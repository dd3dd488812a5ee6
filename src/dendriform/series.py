"""Graded dimensions of the free dendriform algebra, three independent ways.

The degree-m component has dimension C(m) * n^m with C(m) the m-th Catalan
number.  This module computes that value by the shape-count convolution
recursion, by the closed binomial formula binom(2m, m) n^m / (m+1), and by
expanding the generating function

    H(t) = (1 - 2nt - sqrt(1 - 4nt)) / (2nt)

with exact rational coefficients.  It also produces the series of the three
basis families whose functional equations determine H, and the growth
statistic log dim / log degree whose divergence shows the algebra has no
finite polynomial growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

_GK_PRECISION = 40

_shape_counts = [1]  # convolution recursion values, index by degree


def f_recursive(m: int) -> int:
    """Tree-shape count by the convolution a(m) = sum a(i) a(m-1-i), a(0) = 1."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    while len(_shape_counts) <= m:
        k = len(_shape_counts)
        _shape_counts.append(sum(_shape_counts[i] * _shape_counts[k - 1 - i] for i in range(k)))
    return _shape_counts[m]


def dim_closed(m: int, n: int) -> int:
    """Component dimension in closed form: binom(2m, m) n^m / (m+1), exact."""
    if m < 1 or n < 1:
        raise ValueError("degree and alphabet size must be at least 1")
    return math.comb(2 * m, m) // (m + 1) * n**m


@dataclass(frozen=True)
class SeriesCoefficients:
    """Exact coefficients of t^1 .. t^max of a power series."""

    n: int
    coeffs: tuple[Fraction, ...]

    def coefficient(self, m: int) -> Fraction:
        if not 1 <= m <= len(self.coeffs):
            raise ValueError(f"coefficient index {m} outside 1..{len(self.coeffs)}")
        return self.coeffs[m - 1]


def _sqrt_one_minus_4nt(m_max: int, n: int) -> list[Fraction]:
    # Binomial expansion of (1 - 4nt)^(1/2); coefficients of t^0 .. t^m_max.
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for i in range(1, m_max + 1):
        term = term * (Fraction(1, 2) - (i - 1)) * (-4 * n) / i
        coeffs.append(term)
    return coeffs


def _as_count(c: Fraction) -> Fraction:
    if c.denominator != 1 or c < 0:
        raise RuntimeError(f"series coefficient {c} is not a count")
    return c


def series_from_gf(m_max: int, n: int) -> SeriesCoefficients:
    """Dimension series from the generating function, exact to t^m_max.

    The square root is expanded by its binomial series; subtracting it from
    1 - 2nt must kill the constant and linear terms (this is the root with
    value 0 at t = 0, checked), after which dividing by 2nt is an index
    shift.  Every coefficient is checked to be a nonnegative integer; a
    failed check raises RuntimeError.
    """
    if m_max < 1 or n < 1:
        raise ValueError("order and alphabet size must be at least 1")
    s = _sqrt_one_minus_4nt(m_max + 1, n)
    if 1 - s[0] != 0 or -2 * n - s[1] != 0:
        raise RuntimeError("numerator must vanish to order 2")
    coeffs = tuple(_as_count(-s[m + 1] / (2 * n)) for m in range(1, m_max + 1))
    return SeriesCoefficients(n, coeffs)


def abc_series(m_max: int, n: int) -> tuple[SeriesCoefficients, SeriesCoefficients, SeriesCoefficients]:
    """Series of the three basis families of composite basis words.

    A counts words x < w, B counts words x > w (so B = A), and C counts
    words (x > w1) > w2, each with x a generator.  Closed forms:

        A = (1 - 2nt - sqrt(1 - 4nt)) / 2
        C = (1 - (1 - 2nt) sqrt(1 - 4nt)) / (2nt) - 2 + nt

    Together with the n generators at degree 1 they decompose the whole
    dimension series.
    """
    if m_max < 1 or n < 1:
        raise ValueError("order and alphabet size must be at least 1")
    s = _sqrt_one_minus_4nt(m_max + 1, n)
    a_coeffs = [Fraction(0)]  # degree 1
    for m in range(2, m_max + 1):
        a_coeffs.append(_as_count(-s[m] / 2))
    # q = 1 - (1 - 2nt) sqrt(1 - 4nt); q/(2nt) shifts the index down by one.
    q = [Fraction(0)] * (m_max + 2)
    q[0] = 1 - s[0]
    for i in range(1, m_max + 2):
        q[i] = -(s[i] - 2 * n * s[i - 1])
    if q[0] != 0:
        raise RuntimeError("numerator of the C series must vanish at order 0")
    c_coeffs = []
    for m in range(1, m_max + 1):
        value = q[m + 1] / (2 * n)
        if m == 1:
            value += n
        c_coeffs.append(_as_count(value))
    a = SeriesCoefficients(n, tuple(a_coeffs[: m_max]))
    c = SeriesCoefficients(n, tuple(c_coeffs))
    return a, a, c


@dataclass(frozen=True)
class DimensionRow:
    degree: int
    shapes: int  # dimension divided by n^degree
    dim: int


@dataclass(frozen=True)
class DimensionTable:
    n: int
    rows: tuple[DimensionRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rows": [
                {"degree": r.degree, "shapes": r.shapes, "dim": r.dim} for r in self.rows
            ],
        }


_METHODS = ("recursive", "closed", "gf", "all")


def dimension_table(m_max: int, n: int, method: str = "all") -> DimensionTable:
    """Per-degree dimension table by the chosen method.

    ``all`` computes every method and raises RuntimeError on the first
    disagreement, so a passing call is itself a cross-check.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {_METHODS}")
    if m_max < 1 or n < 1:
        raise ValueError("order and alphabet size must be at least 1")
    columns = {}
    if method in ("recursive", "all"):
        columns["recursive"] = [f_recursive(m) * n**m for m in range(1, m_max + 1)]
    if method in ("closed", "all"):
        columns["closed"] = [dim_closed(m, n) for m in range(1, m_max + 1)]
    if method in ("gf", "all"):
        gf = series_from_gf(m_max, n)
        columns["gf"] = [int(gf.coefficient(m)) for m in range(1, m_max + 1)]
    reference = next(iter(columns.values()))
    for name, column in columns.items():
        if column != reference:
            raise RuntimeError(f"dimension methods disagree: {name} differs at n={n}")
    rows = tuple(
        DimensionRow(degree=m, shapes=reference[m - 1] // n**m, dim=reference[m - 1])
        for m in range(1, m_max + 1)
    )
    return DimensionTable(n=n, rows=rows)


@dataclass(frozen=True)
class GKStatistic:
    """log dim / log degree at one degree, to 40 significant digits."""

    degree: int
    value: Decimal


def gk_statistic(d: int, n: int) -> GKStatistic:
    """Growth statistic at degree d; unbounded in d for every n.

    Both logarithms are taken of exact integers under a fixed-precision
    decimal context, so comparisons against fixed bounds are reliable.
    """
    if d < 2:
        raise ValueError("the growth statistic needs degree at least 2")
    dim = dim_closed(d, n)
    with localcontext() as ctx:
        ctx.prec = _GK_PRECISION
        value = Decimal(dim).ln() / Decimal(d).ln()
    return GKStatistic(degree=d, value=value)
