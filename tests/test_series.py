import math
import random
from decimal import ROUND_FLOOR, Decimal, Inexact, localcontext
from fractions import Fraction

import pytest

from dendriform import series
from dendriform.series import (
    abc_series,
    dim_closed,
    dimension_table,
    f_recursive,
    gk_statistic,
    series_from_gf,
)


def convolve(a, b, m_max):
    """Truncated product of two series given as t^1.. coefficient lists."""
    out = [Fraction(0)] * m_max
    for i, ai in enumerate(a, start=1):
        if i >= m_max:
            break
        for j, bj in enumerate(b, start=1):
            if i + j > m_max:
                break
            out[i + j - 1] += ai * bj
    return out


class TestShapeRecursion:
    @pytest.mark.parametrize("m,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14)])
    def test_values(self, m, expected):
        assert f_recursive(m) == expected

    def test_matches_central_binomial_quotient(self):
        for m in range(31):
            assert f_recursive(m) == math.comb(2 * m, m) // (m + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_recursive(-1)

    def test_matches_the_full_convolution(self):
        # Every product a(i) a(k-i) taken, both of each symmetric pair, over
        # odd and even k.
        a = [1]
        for k in range(400):
            a.append(sum(a[i] * a[k - i] for i in range(k + 1)))
        assert [f_recursive(m) for m in range(401)] == a

    def test_reads_neither_comb_nor_the_gf(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the recursion must stay independent of the other columns")

        with monkeypatch.context() as patch:
            patch.setattr(series, "_shape_counts", [1])
            patch.setattr(math, "comb", refuse)
            patch.setattr(series, "_sqrt_one_minus_4nt", refuse)
            values = [f_recursive(m) for m in range(301)]
        assert values == [math.comb(2 * m, m) // (m + 1) for m in range(301)]


class TestClosedForm:
    def test_seeds(self):
        for n in (1, 2, 3):
            assert dim_closed(1, n) == n
            assert dim_closed(2, n) == 2 * n**2

    def test_degree_four_two_generators(self):
        assert dim_closed(4, 2) == 14 * 16

    def test_factorial_formula(self):
        for n in (1, 2):
            for m in range(1, 12):
                expected = math.factorial(2 * m) * n**m
                expected //= math.factorial(m + 1) * math.factorial(m)
                assert dim_closed(m, n) == expected


class TestGeneratingFunction:
    def test_single_generator(self):
        assert [int(c) for c in series_from_gf(2, 1).coeffs] == [1, 2]

    def test_two_generators(self):
        assert [int(c) for c in series_from_gf(3, 2).coeffs] == [2, 8, 40]

    def test_coefficients_are_integral_counts(self):
        for n in (1, 2, 3):
            for c in series_from_gf(20, n).coeffs:
                assert c.denominator == 1 and c >= 0

    def test_three_way_agreement(self):
        for n in (1, 2, 3):
            gf = series_from_gf(30, n)
            for m in range(1, 31):
                dim = dim_closed(m, n)
                assert f_recursive(m) * n**m == dim
                assert gf.coefficient(m) == dim


class TestSubspaceSeries:
    def test_seeds(self):
        a, b, c = abc_series(6, 1)
        assert a.coefficient(2) == 1
        assert c.coefficient(3) == 1
        assert a.coefficient(1) == 0 and c.coefficient(1) == 0 and c.coefficient(2) == 0

    def test_b_equals_a(self):
        a, b, _ = abc_series(12, 2)
        assert b == a

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decomposition(self, n):
        m_max = 30
        a, b, c = abc_series(m_max, n)
        total = series_from_gf(m_max, n)
        for m in range(1, m_max + 1):
            degree_one = n if m == 1 else 0
            assert degree_one + a.coefficient(m) + b.coefficient(m) + c.coefficient(m) == total.coefficient(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_functional_equations(self, n):
        m_max = 30
        a, _, c = abc_series(m_max, n)
        # first equation: A = n^2 t^2 + n t (2A + C)
        mix = [2 * a.coefficient(m) + c.coefficient(m) for m in range(1, m_max + 1)]
        for m in range(1, m_max + 1):
            rhs = Fraction(n**2 if m == 2 else 0)
            if m >= 2:
                rhs += n * mix[m - 2]
            assert a.coefficient(m) == rhs
        # second equation: C = n t (n t + 2A + C)^2
        inner = list(mix)
        inner[0] += n  # the n t term
        square = convolve(inner, inner, m_max)
        for m in range(1, m_max + 1):
            rhs = n * square[m - 2] if m >= 2 else Fraction(0)
            assert c.coefficient(m) == rhs


class TestDimensionTable:
    def test_all_methods_agree(self):
        table = dimension_table(6, 1, "all")
        assert [row.dim for row in table.rows] == [1, 2, 5, 14, 42, 132]
        assert [row.shapes for row in table.rows] == [1, 2, 5, 14, 42, 132]

    def test_shape_factor_scales(self):
        table = dimension_table(4, 3, "closed")
        for row in table.rows:
            assert row.dim == row.shapes * 3**row.degree

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            dimension_table(4, 1, "guess")


class TestGrowthStatistic:
    def test_smallest_case_is_exactly_one(self):
        assert gk_statistic(2, 1).value == Decimal(1)

    def test_monotone_sample(self):
        assert gk_statistic(20, 1).value > gk_statistic(10, 1).value

    def test_degree_100_exceeds_bound(self):
        assert gk_statistic(100, 1).value > 5

    def test_increasing_and_unbounded_over_sampled_range(self):
        values = [gk_statistic(d, 1).value for d in (100, 1000, 10000)]
        assert values[0] < values[1] < values[2]
        assert values[-1] > 10

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            gk_statistic(1, 1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_alphabet_validation(self, n):
        with pytest.raises(ValueError, match="alphabet size must be at least 1"):
            gk_statistic(10, n)


def exact_route(d, n):
    """log dim / log degree from the exact dimension, 40 digits, half-even."""
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(dim_closed(d, n)).ln() / Decimal(d).ln()


class TestGrowthEnclosure:
    """gk_statistic encloses ln dim without building dim; the exact route is the reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_exact_route(self, n):
        for d in list(range(2, 401)) + [10**3, 10**4]:
            assert str(gk_statistic(d, n).value) == str(exact_route(d, n)), (d, n)

    def test_guard_digit_retry_keeps_the_strings(self, monkeypatch):
        degrees = [2, 3, 10, 57, 400, 10**3]
        expected = [str(gk_statistic(d, 3).value) for d in degrees]
        precisions = []
        enclosure = series._ln_dim_enclosure

        def recording(d, n, prec):
            precisions.append(prec)
            return enclosure(d, n, prec)

        monkeypatch.setattr(series, "_GK_GUARD_DIGITS", 0)
        monkeypatch.setattr(series, "_ln_dim_enclosure", recording)
        assert [str(gk_statistic(d, 3).value) for d in degrees] == expected
        assert len(precisions) > len(degrees)  # 40 digits never decide; a retry ran
        assert min(precisions) == 40

    def test_quotient_within_its_rounding_bound(self):
        # ln dim is certified, but the quotient carries three roundings, of
        # ln dim, of ln d and of the division, each at most half a unit in
        # the 40th digit of its own value.  So gk is within
        # 1/2 + (m_q / 2)(1/m_L + 1/m_l) units in the 40th digit of the exact
        # quotient q, m_q, m_L and m_l being the significands in [1, 10) of
        # q, ln dim and ln d: under 10.5 units, since m_q = (m_L / m_l) 10^k
        # with k = 1 only when m_L < m_l.  mpmath at 90 digits is the reference.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(29)
        pairs = [(2, 2)] + [(round(10 ** rng.uniform(0.31, 9)), rng.randint(1, 7)) for _ in range(200)]
        errors = []
        with localcontext() as ctx, mpmath.workdps(90):
            ctx.prec = 100
            for d, n in pairs:
                ln_d = mpmath.log(d)
                ln_dim = mpmath.loggamma(2 * d + 1) - 2 * mpmath.loggamma(d + 1) - mpmath.log(d + 1) + d * mpmath.log(n)
                q, exact_dim, exact_d = (Decimal(mpmath.nstr(x, 85)) for x in (ln_dim / ln_d, ln_dim, ln_d))
                m_q, m_dim, m_d = (x.scaleb(-x.adjusted()) for x in (q, exact_dim, exact_d))
                value = gk_statistic(d, n).value
                error = abs(value - q).scaleb(39 - q.adjusted())
                # The division rounds at the result's own last digit.
                bound = Decimal(10) ** (value.adjusted() - q.adjusted()) / 2 + m_q / 2 * (1 / m_dim + 1 / m_d)
                assert error <= bound * (1 + Decimal(10) ** -30), (d, n, error, bound)
                assert bound < Decimal("10.5")
                errors.append(error)
        # Not correctly rounded: at (2, 2) the exact value is 3.
        assert str(gk_statistic(2, 2).value) == "3.000000000000000000000000000000000000001"
        assert errors[0] == 1 and max(errors) > 1

    def test_independent_of_the_ambient_context(self):
        expected = [str(gk_statistic(d, 2).value) for d in range(2, 300)]
        with localcontext() as ctx:
            ctx.rounding = ROUND_FLOOR
            ctx.prec = 6
            ctx.traps[Inexact] = True
            assert [str(gk_statistic(d, 2).value) for d in range(2, 300)] == expected
