import json
from fractions import Fraction

import pytest
from hypothesis import given

from _strategies import all_contexts, hole_path, normal_words, polynomials, spliced
from dendriform import poly
from dendriform.oracle import enumerate_contexts
from dendriform.poly import AlphabetMismatchError, Polynomial, admit, apply_context, leading, mul
from dendriform.rewrite import RuleId, find_redexes, normal_form, rewrite_step, rule_polynomial
from dendriform.terms import (
    PREC,
    SUCC,
    generator,
    hole,
    l_prec,
    l_succ,
    node,
    normalize,
    substitute,
)

x1, x2, x3 = generator(1), generator(2), generator(3)


def mono(word, coeff=1, n=3):
    return Polynomial.monomial(word, coeff, n=n)


class TestVectorSpace:
    def test_cancellation(self):
        assert (mono(x1) + mono(x1, -1)).is_zero

    def test_sum_keeps_distinct_words(self):
        p = mono(l_prec(x1, x2)) + mono(l_succ(x1, x2))
        assert len(p) == 2

    def test_coefficients_collect(self):
        assert (mono(x1, 2) + mono(x1, 3)) == mono(x1, 5)

    def test_scale_zero_and_one(self):
        p = mono(l_prec(x1, x2), Fraction(5, 3))
        assert (0 * p).is_zero
        assert 1 * p == p
        assert -1 * (mono(x1) - mono(x2)) == mono(x2) - mono(x1)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            mono(x1, n=1) + mono(x2, n=2)
        with pytest.raises(AlphabetMismatchError):
            Polynomial(1, [(x2, 1)])

    def test_words_must_be_normal(self):
        with pytest.raises(ValueError):
            Polynomial(2, [(node(PREC, node(SUCC, x1, x2), x1), 1)])


class TestAdmit:
    def test_default_alphabet_is_the_largest_index(self):
        assert admit((), None, "w") == 1
        assert admit((x1, l_succ(x1, x3), x2), None, "w") == 3
        assert admit((x1,), 5, "w") == 5

    @pytest.mark.parametrize("n", [0, -1])
    def test_alphabet_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match="alphabet size must be at least 1"):
            admit((x1,), n, "w")

    def test_words_beyond_the_alphabet_are_refused(self):
        with pytest.raises(AlphabetMismatchError, match="the word x3 uses generators beyond x2"):
            admit((x1, x3), 2, "the word")

    @pytest.mark.parametrize(
        "word", [hole(), node(SUCC, x1, hole()), node(PREC, node(SUCC, x1, x2), x1)], ids=["hole", "holed", "entangled"]
    )
    @pytest.mark.parametrize("n", [None, 3])
    def test_holes_and_non_normal_words_are_refused(self, word, n):
        with pytest.raises(ValueError, match=r"^the word must be a normal word without holes: ") as err:
            admit((x1, word), n, "the word")
        assert not isinstance(err.value, AlphabetMismatchError)


class TestZero:
    def test_one_shared_instance_per_alphabet(self):
        z = Polynomial.zero(2)
        assert z is Polynomial.zero(2) and z is not Polynomial.zero(3)
        p = mono(l_prec(x1, x2), n=2)
        assert z + p == p and p + z == p and z - p == -p and p - z == p
        assert (z * 3).is_zero and (Fraction(2, 3) * z).is_zero and (-z).is_zero
        assert mul(z, PREC, p).is_zero and mul(p, SUCC, z).is_zero
        assert normal_form(z) is z and normal_form(p - p) is z
        assert z._terms == {} and z.is_zero
        with pytest.raises(ValueError):
            Polynomial.zero(0)


class TestMul:
    def test_monomials(self):
        assert mul(mono(x1), PREC, mono(x2)) == mono(l_prec(x1, x2))

    def test_entangles(self):
        p = mul(mono(l_succ(x1, x2)), PREC, mono(x3))
        assert p == mono(l_succ(x1, l_prec(x2, x3)))

    def test_bilinear(self):
        p = mul(mono(x1) + mono(x2), SUCC, mono(x3))
        assert p == mono(l_succ(x1, x3)) + mono(l_succ(x2, x3))

    @pytest.mark.parametrize("op", ["<", 2, 1, None])
    def test_only_the_two_operations(self, op):
        # 2 and 1 equal PREC and SUCC but are not them.
        with pytest.raises(ValueError, match="operation must be PREC or SUCC"):
            mul(mono(x1), op, mono(x2))

    @given(polynomials(), polynomials(), polynomials())
    def test_distributes_over_add(self, p, q, r):
        for op in (PREC, SUCC):
            assert mul(p + q, op, r) == mul(p, op, r) + mul(q, op, r)
            assert mul(r, op, p + q) == mul(r, op, p) + mul(r, op, q)

    @given(polynomials(), polynomials())
    def test_scale_commutes(self, p, q):
        a = Fraction(3, 7)
        for op in (PREC, SUCC):
            assert mul(a * p, op, q) == a * mul(p, op, q)
            assert mul(p, op, a * q) == a * mul(p, op, q)

    @given(
        normal_words(n=2, max_degree=4),
        normal_words(n=2, max_degree=4),
        normal_words(n=2, max_degree=4),
    )
    def test_entanglement_identity(self, u, v, w):
        pu, pv, pw = (Polynomial.monomial(t, n=2) for t in (u, v, w))
        assert mul(mul(pu, SUCC, pv), PREC, pw) == mul(pu, SUCC, mul(pv, PREC, pw))


class TestLeading:
    def test_prec_right_factor_dominates(self):
        # Equal degree and left factor; the PREC-topped right factor wins.
        p = mono(l_prec(x1, l_prec(x2, x3))) + mono(l_prec(x1, l_succ(x2, x3)))
        assert leading(p) == (l_prec(x1, l_prec(x2, x3)), Fraction(1))

    def test_coefficient_returned(self):
        assert leading(mono(x1, 5)) == (x1, Fraction(5))

    def test_prec_tops_succ(self):
        p = mono(l_prec(x1, x2)) - mono(l_succ(x1, x2))
        assert leading(p) == (l_prec(x1, x2), Fraction(1))

    def test_zero_has_no_leading_word(self):
        with pytest.raises(ValueError):
            leading(Polynomial.zero(2))


class TestApplyContext:
    def test_identity(self):
        p = mono(l_prec(x1, x2)) - mono(x3, 2)
        assert apply_context((), p) == p
        assert hole_path(hole()) == ()

    def test_simple_embedding(self):
        p = apply_context(hole_path(node(SUCC, hole(), x3)), mono(l_prec(x1, x2)))
        assert p == mono(l_succ(l_prec(x1, x2), x3))

    def test_embedding_renormalizes(self):
        p = apply_context(hole_path(node(PREC, hole(), x3)), mono(l_succ(x1, x2)))
        assert p == mono(l_succ(x1, l_prec(x2, x3)))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            apply_context(hole_path(node(PREC, hole(), x3)), mono(x1, n=1))
        # A sibling below the root is checked too.
        deep = hole_path(node(SUCC, x1, node(PREC, hole(), l_succ(x1, x3))))
        with pytest.raises(AlphabetMismatchError):
            apply_context(deep, mono(x1, n=2))
        assert apply_context(deep, mono(x1, n=3)) == mono(l_succ(x1, l_prec(x1, l_succ(x1, x3))))

    def test_non_normal_sibling_is_refused(self):
        # The fold takes siblings as they are: a non-normal one would give a
        # word off the basis, and one with a hole a word with two holes.
        entangled = node(PREC, node(SUCC, x1, x2), x3)
        for sibling in (entangled, node(SUCC, x1, hole())):
            for hole_left in (True, False):
                with pytest.raises(ValueError) as err:
                    apply_context(((PREC, hole_left, sibling),), mono(x2))
                assert not isinstance(err.value, AlphabetMismatchError)
        assert apply_context(((PREC, True, normalize(entangled)),), mono(x2)) == mono(l_prec(x2, normalize(entangled)))

    def test_bad_operation_is_refused(self):
        # The operation is checked with the siblings, so a zero p, which the
        # fold never walks, is refused too.
        for op in (l_prec, "<", 2, None):
            for p in (mono(x2), Polynomial.zero(3)):
                with pytest.raises(ValueError, match="operation must be PREC or SUCC"):
                    apply_context(((SUCC, False, x1), (op, True, x3)), p)

    def test_fold_calls_poly_products(self, monkeypatch):
        # The tracer rebinds poly.l_prec and poly.l_succ; the fold must look
        # them up there, for the oracle's contexts and for rewrite steps.
        calls = {PREC: 0, SUCC: 0}

        def counting(op, product):
            def wrapped(u, v):
                calls[op] += 1
                return product(u, v)
            return wrapped

        monkeypatch.setattr(poly, "l_prec", counting(PREC, l_prec))
        monkeypatch.setattr(poly, "l_succ", counting(SUCC, l_succ))
        steps = {PREC: 0, SUCC: 0}
        for path in enumerate_contexts(4, 1):
            for op, _, _ in path:
                steps[op] += 1
            apply_context(path, mono(x1, n=1))
        assert calls == steps and min(steps.values()) > 0
        calls[PREC] = calls[SUCC] = 0
        w = l_succ(x1, l_prec(l_prec(x1, x2), x3))
        redex = find_redexes(w)[0]
        assert (redex.rule, redex.path) == (RuleId.F1, "R")
        assert rewrite_step(w, redex) == mono(l_succ(x1, l_prec(x1, l_prec(x2, x3)))) + mono(
            l_succ(x1, l_prec(x1, l_succ(x2, x3)))
        )
        assert calls == {PREC: 0, SUCC: 2}

    def test_fold_equals_splice_and_normalize(self):
        # Every arbitrary context with four leaves over two generators, on
        # rule relations whose bindings carry both top operations.
        y1, y2 = l_succ(x2, x1), l_prec(x1, x2)
        relations = [
            rule_polynomial(RuleId.F1, (x1, x2, x1), n=2),
            rule_polynomial(RuleId.F2, (y1, x1, y2), n=2),
            rule_polynomial(RuleId.F3, (x2, y1, x1, y2), n=2) * Fraction(-3, 2),
            rule_polynomial(RuleId.F1, (y1, y2, y1), n=2) + rule_polynomial(RuleId.F2, (y2, y1, y2), n=2),
        ]
        contexts = all_contexts(4, 2)
        assert len(contexts) == 1280
        for c in contexts:
            path = hole_path(c)
            for p in relations:
                assert apply_context(path, p) == spliced(c, p)

    @given(polynomials(n=2, max_degree=4))
    def test_leading_commutes_with_contexts(self, p):
        if p.is_zero:
            return
        lead_word, _ = leading(p)
        # Only meaningful when the leading word strictly dominates.
        c = node(PREC, hole(), x2)
        embedded = apply_context(hole_path(c), p)
        assert leading(embedded)[0] is normalize(substitute(c, lead_word))


class TestSerialization:
    def test_json_shape_and_order(self):
        p = mono(l_succ(x1, x2), Fraction(-5, 3)) + mono(l_prec(x1, x2))
        d = p.to_json_dict()
        assert d == {
            "n": 3,
            "terms": [
                {"coeff": "1", "word": "(x1 < x2)"},
                {"coeff": "-5/3", "word": "(x1 > x2)"},
            ],
        }
        json.dumps(d)  # must be serializable as-is

    def test_str_rendering(self):
        p = mono(l_prec(x1, x2), 2) - mono(x1)
        assert str(p) == "2*(x1 < x2) - x1"
        assert str(Polynomial.zero(2)) == "0"
        assert str(-mono(x1)) == "-x1"

    def test_mixed_coefficients_render_as_before(self):
        p = Polynomial(3, [
            (l_prec(x1, x2), 2), (l_succ(x1, x2), -1), (l_prec(x1, l_prec(x2, x3)), Fraction(-5, 3)),
            (x3, Fraction(1, 2)), (x2, Fraction(4, 2)), (l_succ(x2, x3), 1), (x1, -3),
        ])
        assert str(p) == "-5/3*(x1 < (x2 < x3)) + 2*(x1 < x2) + (x2 > x3) - (x1 > x2) + 1/2*x3 + 2*x2 - 3*x1"
        assert [t["coeff"] for t in p.to_json_dict()["terms"]] == ["-5/3", "2", "1", "-1", "1/2", "2", "-3"]


class TestCoefficientDomain:
    def test_integral_rationals_are_stored_as_int(self):
        assert type(mono(x1, Fraction(4, 2)).coefficient(x1)) is int
        assert mono(x1, Fraction(4, 2)).coefficient(x1) == 2
        third = mono(x1, Fraction(2, 3))
        assert type(third.coefficient(x1)) is Fraction
        assert type((3 * third).coefficient(x1)) is int
        assert type((third + third + third).coefficient(x1)) is int
        assert type((Fraction(3, 2) * mono(x1, 2)).coefficient(x1)) is int

    def test_missing_word_has_int_coefficient_zero(self):
        zero = mono(x1).coefficient(x2)
        assert zero == 0 and type(zero) is int

    def test_integer_arithmetic_stays_int(self):
        p = mono(l_prec(x1, x2), 2) - mono(x1, 3)
        q = mul(p, PREC, -p) + apply_context(hole_path(node(SUCC, hole(), x3)), p)
        assert all(type(c) is int for _, c in q.terms())

    def test_float_coefficients_are_rejected(self):
        with pytest.raises(TypeError, match="float"):
            Polynomial(3, [(x1, 0.1)])
        with pytest.raises(TypeError, match="float"):
            mono(x1, 0.1)
        for exact, stored in ((3, 3), (Fraction(2, 3), Fraction(2, 3)), (Fraction(4, 2), 2)):
            c = mono(x1, exact).coefficient(x1)
            assert c == stored and type(c) is type(stored)
