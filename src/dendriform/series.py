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

The growth statistic never builds the degree-d dimension.  It encloses
ln dim between two decimals from the Stirling series of ln Gamma, whose
remainder for a real positive argument is bounded in magnitude by the first
neglected term (DLMF 5.11(ii)), together with a proved bound on every
rounding, and accepts the enclosure only once both ends round to the same
40 digits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

_GK_PRECISION = 40
_GK_GUARD_DIGITS = 10  # working digits beyond _GK_PRECISION on the first try

_shape_counts = [1]  # convolution recursion values, index by degree


def f_recursive(m: int) -> int:
    """Tree-shape count by the convolution a(m) = sum a(i) a(m-1-i), a(0) = 1."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    while len(_shape_counts) <= m:
        _shape_counts.append(sum(map(operator.mul, _shape_counts, reversed(_shape_counts))))
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

    A counts words x < w, B counts words x > w, and C counts words
    (x > w1) > w2, each with x a generator.  A and C come from closed forms

        A = (1 - 2nt - sqrt(1 - 4nt)) / 2
        C = (1 - (1 - 2nt) sqrt(1 - 4nt)) / (2nt) - 2 + nt

    and B from the shape recursion, B_m = n * dim_(m-1), so the two equal
    families are computed on separate paths.

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
    b_coeffs = [Fraction(0)] + [Fraction(n**m * f_recursive(m - 1)) for m in range(2, m_max + 1)]
    a = SeriesCoefficients(n, tuple(a_coeffs[: m_max]))
    b = SeriesCoefficients(n, tuple(b_coeffs))
    c = SeriesCoefficients(n, tuple(c_coeffs))
    return a, b, c


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

    ln dim is the correctly rounded 40-digit value of ln(Catalan(d) n^d),
    taken from a certified enclosure (see _ln_dim_enclosure) instead of the
    integer itself, and divided by ln d in a 40-digit half-even context.
    Both run in decimal contexts of their own, so the result does not
    depend on the caller's context, and comparisons against fixed bounds
    are reliable.
    """
    if d < 2:
        raise ValueError("the growth statistic needs degree at least 2")
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    ctx = Context(prec=_GK_PRECISION, rounding=ROUND_HALF_EVEN, traps=[])
    guard = _GK_GUARD_DIGITS
    while True:
        lo, hi = _ln_dim_enclosure(d, n, _GK_PRECISION + guard)
        ln_dim = ctx.plus(lo)
        # ln of an integer > 1 is transcendental, so it is never a rounding
        # midpoint and enough guard digits always decide the rounding.
        if ln_dim == ctx.plus(hi):
            break
        guard += 10
    return GKStatistic(degree=d, value=ctx.divide(ln_dim, ctx.ln(d)))


def _ln_dim_enclosure(d: int, n: int, prec: int) -> tuple[Decimal, Decimal]:
    """Decimals lo <= ln(Catalan(d) n^d) <= hi from prec-digit arithmetic, prec >= 20.

    ln dim = lnGamma(2d+1) - 2 lnGamma(d+1) - ln(d+1) + d ln n.  Each
    lnGamma(x) is taken at X = max(x, prec) as lnGamma(x + s) - ln(x(x+1)..
    (x+s-1)), the product an exact integer, and at X by Stirling's series

        (X - 1/2) ln X - X + ln(2 pi)/2 + sum_{k<K} B_2k / (2k(2k-1) X^(2k-1)),

    whose sum is exact in Fractions and cut at the first term of magnitude
    at most 10^-prec.  For real X > 0 that term bounds the remainder (DLMF
    5.11(ii)); with X >= prec the terms fall below 10^-prec long before
    they start to grow (k near pi X, where they are near e^(-2 pi X)).

    The error of the sum of the seven decimal terms below is at most

        55 M 10^-prec + 2 prec 10^-prec + 3 10^-prec,    M = sum |term|.

    With u = 5 * 10^-prec, every operation, ln included, is correctly
    rounded with relative error at most u; rounding 2 pi moves its ln by
    at most 1.0001 u < u ln(2 pi).  Each term takes at most three
    operations on exact inputs, so its relative error is at most
    gamma_3 = 3u / (1 - 3u) and its absolute error at most 4u |term|.
    Summing seven terms adds at most gamma_6 M <= 7u M (Higham, Accuracy
    and Stability of Numerical Algorithms, Lemma 3.1 and (4.4)): 11u M in
    all.  _pi(prec) is within 10 prec 10^-prec of pi, so ln(2 pi)/2 moves by
    at most 2 prec 10^-prec.  The three cut series, once at X1 and twice at
    X2, leave at most 3 10^-prec.  The ends are rounded outward.
    """
    x1 = max(2 * d + 1, prec)
    x2 = max(d + 1, prec)
    shift1 = math.prod(range(2 * d + 1, x1))
    shift2 = math.prod(range(d + 1, x2))
    tol = Fraction(1, 10**prec)
    exact = 2 * x2 - x1 + _stirling_sum(x1, tol) - 2 * _stirling_sum(x2, tol)
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN, traps=[])):
        terms = (
            (x1 - Decimal("0.5")) * Decimal(x1).ln(),
            -(2 * x2 - 1) * Decimal(x2).ln(),
            Decimal(exact.numerator) / exact.denominator,
            -(2 * _pi(prec)).ln() / 2,
            Decimal(shift2 * shift2).ln(),
            -Decimal(shift1 * (d + 1)).ln(),
            d * Decimal(n).ln(),
        )
        total = sum(terms)
    bound = 55 * sum(int(t.copy_abs()) + 1 for t in terms) + 2 * prec + 3
    err = Decimal(bound).scaleb(-prec, Context(prec=prec, rounding=ROUND_CEILING, traps=[]))
    lo = Context(prec=prec, rounding=ROUND_FLOOR, traps=[]).subtract(total, err)
    hi = Context(prec=prec, rounding=ROUND_CEILING, traps=[]).add(total, err)
    return lo, hi


def _stirling_sum(x: int, tol: Fraction) -> Fraction:
    """sum_{k<K} B_2k / (2k(2k-1) x^(2k-1)), K the first k whose term is at most tol."""
    total = Fraction(0)
    k = 1
    while True:
        term = _bernoulli(2 * k) / (2 * k * (2 * k - 1) * x ** (2 * k - 1))
        if abs(term) <= tol:
            return total
        total += term
        k += 1


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m (B_1 = -1/2) from sum_{j<=m} binom(m+1, j) B_j = 0, exact."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)


@lru_cache(maxsize=None)
def _pi(prec: int) -> Decimal:
    """pi to prec digits by the series of the decimal module's documentation.

    pi = 3 + sum_k t_k with t_k / t_(k-1) = (2k-1)^2 / (8k(2k+1)) < 1/4.
    With u = 5 * 10^-prec: the 2k roundings in t_k leave at most 4u over
    all terms; each addition to the partial sum, which stays in [3, 10),
    errs by at most u, and the loop stops once a term no longer changes the
    sum, within 1.7 prec + 1 steps; the terms left out sum to under u.  So
    the result is within (1.7 prec + 6) u <= 10 prec 10^-prec of pi for
    prec >= 20.
    """
    with localcontext(Context(prec=prec, rounding=ROUND_HALF_EVEN, traps=[])):
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return s
