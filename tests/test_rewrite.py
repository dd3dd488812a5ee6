import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from _strategies import (
    all_contexts,
    hole_path,
    polynomials,
    reference_is_dd,
    reference_redexes,
    sample_dd_word,
    spliced,
)
from dendriform import rewrite, terms
from dendriform.oracle import binding_tuples, enumerate_dd_words, enumerate_normal_lwords
from dendriform.poly import AlphabetMismatchError, Polynomial, mul
from dendriform.rewrite import (
    Redex,
    RewriteOrderError,
    RuleId,
    StaleRedexError,
    find_redexes,
    max_reducible_word,
    normal_form,
    rewrite_step,
    rule_polynomial,
)
from dendriform.terms import (
    PREC,
    SUCC,
    compare,
    count_holes,
    generator,
    hole,
    is_normal,
    l_prec,
    l_succ,
    max_generator_index,
    node,
    normalize,
)

x1, x2, x3, x4 = (generator(i) for i in range(1, 5))
x7, x8, x9 = (generator(i) for i in range(7, 10))


def mono(word, coeff=1, n=4):
    return Polynomial.monomial(word, coeff, n=n)


def first_match(w):
    """``_first_match`` on w as (rule, bindings, path string), or None.

    Also checks each of its steps, root first, against the subterm the walk
    passes through: that subterm's operation, the side the walk enters and
    the sibling it leaves.
    """
    found = rewrite._first_match(w)
    if found is None:
        return None
    rule, bindings, steps = found
    path = []
    for op, hole_left, sibling in steps:
        assert op is w.op
        assert sibling is (w.right if hole_left else w.left)
        path.append("L" if hole_left else "R")
        w = w.left if hole_left else w.right
    return rule, bindings, "".join(path)


def unpacked(redex):
    return redex.rule, redex.bindings, redex.path


def hole_at(w, path):
    """The context w with a hole at path in place of its subterm there."""
    if not path:
        return hole()
    if path[0] == "L":
        return node(w.op, hole_at(w.left, path[1:]), w.right)
    return node(w.op, w.left, hole_at(w.right, path[1:]))


class TestDDNormal:
    def test_examples(self):
        assert l_prec(x1, l_succ(x2, x3)).dd
        assert not l_prec(l_prec(x1, x2), x3).dd
        assert l_succ(l_succ(x1, x2), x3).dd

    def test_equals_redex_freeness_exhaustively(self):
        # Degree <= 6 over one and two generators.
        for n in (1, 2):
            for m in range(1, 7):
                for w in enumerate_normal_lwords(m, n):
                    assert w.dd == (find_redexes(w) == [])
                    assert w.dd == (reference_redexes(w) == [])

    def test_dd_enumeration_is_redex_free(self):
        for m in range(1, 6):
            for w in enumerate_dd_words(m, 2):
                assert w.dd

    @pytest.mark.parametrize("max_degree,n", [(7, 1), (6, 2)])
    def test_flag_and_searches_match_the_reference_walk(self, max_degree, n):
        # The reference reads no flag and skips no subtree, so the pruned
        # search and the one-path first redex are checked against it.
        for m in range(1, max_degree + 1):
            for w in enumerate_normal_lwords(m, n):
                expected = reference_redexes(w)
                assert w.dd == reference_is_dd(w) == (expected == [])
                assert find_redexes(w) == expected
                assert first_match(w) == (unpacked(expected[0]) if expected else None)

    def test_flag_on_arbitrary_trees(self):
        # Normal or not, a flagged tree is normal and redex free, and the
        # pruned search still finds every redex.
        trees = all_contexts(4, 2)
        assert any(not is_normal(w) for w in trees)
        for w in trees:
            assert w.dd == reference_is_dd(w)
            if w.dd:
                assert is_normal(w) and reference_redexes(w) == []
            assert find_redexes(w) == reference_redexes(w)

    def test_pickle_keeps_the_flag(self):
        # Pickling recurses on no word's depth: a depth-10,000 > chain and
        # < comb round-trip like short words.
        chain, comb = x1, x1
        for _ in range(10_000):
            chain, comb = node(SUCC, x1, chain), node(PREC, comb, x2)
        words = [l_prec(x1, l_succ(x2, x3)), l_prec(l_prec(x1, x2), x3), l_succ(l_succ(x1, x2), x3), chain, comb]
        flags = [(w.dd, w.normal) for w in words]
        assert flags == [(True, True), (False, True), (True, True), (True, True), (False, True)]
        holed = [hole(), node(SUCC, node(PREC, hole(), x1), x2), node(PREC, node(SUCC, x1, hole()), hole())]
        for w in words + holed:
            assert pickle.loads(pickle.dumps(w)) is w
        # A fresh interpreter rebuilds every word, and so its flags, from the bytes.
        code = "import pickle, sys; print([(w.dd, w.normal) for w in pickle.load(sys.stdin.buffer)])"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(words), capture_output=True, check=True, env=env, timeout=60,
        ).stdout
        assert out.decode().strip() == str(flags)


class TestRulePolynomials:
    def test_rule_1(self):
        p = rule_polynomial(RuleId.F1, (x1, x2, x3))
        assert p == (
            mono(l_prec(l_prec(x1, x2), x3), n=3)
            - mono(l_prec(x1, l_prec(x2, x3)), n=3)
            - mono(l_prec(x1, l_succ(x2, x3)), n=3)
        )

    def test_rule_2(self):
        p = rule_polynomial(RuleId.F2, (x1, x2, x3))
        assert p == (
            mono(l_succ(l_prec(x1, x2), x3), n=3)
            + mono(l_succ(l_succ(x1, x2), x3), n=3)
            - mono(l_succ(x1, l_succ(x2, x3)), n=3)
        )

    def test_rule_3(self):
        p = rule_polynomial(RuleId.F3, (x1, x2, x3, x4))
        assert p == (
            mono(l_succ(l_succ(l_succ(x1, x2), x3), x4))
            - mono(l_succ(l_succ(x1, x2), l_succ(x3, x4)))
            + mono(l_succ(l_succ(x1, l_prec(x2, x3)), x4))
        )

    # The rules as the module docstring writes them, as raw trees.
    DOCSTRING_SIDES = {
        RuleId.F1: (
            lambda x, y, z: node(PREC, node(PREC, x, y), z),
            lambda x, y, z: ((node(PREC, x, node(PREC, y, z)), 1), (node(PREC, x, node(SUCC, y, z)), 1)),
        ),
        RuleId.F2: (
            lambda x, y, z: node(SUCC, node(PREC, x, y), z),
            lambda x, y, z: ((node(SUCC, x, node(SUCC, y, z)), 1), (node(SUCC, node(SUCC, x, y), z), -1)),
        ),
        RuleId.F3: (
            lambda x, y, z, v: node(SUCC, node(SUCC, node(SUCC, x, y), z), v),
            lambda x, y, z, v: (
                (node(SUCC, node(SUCC, x, y), node(SUCC, z, v)), 1),
                (node(SUCC, node(SUCC, x, node(PREC, y, z)), v), -1),
            ),
        ),
    }

    @pytest.mark.parametrize("rule", list(RuleId))
    def test_table_sides_are_the_docstring_rules(self, rule):
        left_side, right_side = rewrite._SIDES[rule]
        doc_left, doc_right = self.DOCSTRING_SIDES[rule]
        checked = 0
        for total in range(rule.arity, 7):
            for bindings in binding_tuples(total, rule.arity, 1):
                assert left_side(*bindings) is normalize(doc_left(*bindings))
                assert right_side(*bindings) == tuple((normalize(w), c) for w, c in doc_right(*bindings))
                checked += 1
        assert checked == {3: 222, 4: 61}[rule.arity]

    def test_alphabet_beyond_the_bindings_is_refused(self):
        with pytest.raises(AlphabetMismatchError):
            rule_polynomial(RuleId.F1, (x1, x2, x3), n=2)
        assert rule_polynomial(RuleId.F1, (x1, x2, x3), n=3) == rule_polynomial(RuleId.F1, (x1, x2, x3))

    def test_hole_binding_is_refused(self):
        # An instance with a hole binding holds only hole words, which no
        # polynomial may hold.
        with pytest.raises(ValueError, match="normal") as err:
            rule_polynomial(RuleId.F1, (hole(), x1, x2))
        assert not isinstance(err.value, AlphabetMismatchError)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            rule_polynomial(RuleId.F1, (x1, x2))
        with pytest.raises(ValueError):
            rule_polynomial(RuleId.F3, (x1, x2, x3))


class TestFindRedexes:
    def test_dd_word_has_none(self):
        assert find_redexes(l_prec(x1, x2)) == []

    def test_rule1_at_root(self):
        w = l_prec(l_prec(x1, x2), x3)
        assert find_redexes(w) == [Redex(RuleId.F1, "", (x1, x2, x3))]

    def test_rule3_at_root(self):
        w = l_succ(l_succ(l_succ(x1, x2), x3), x4)
        assert find_redexes(w) == [Redex(RuleId.F3, "", (x1, x2, x3, x4))]

    def test_preorder_and_first_agree(self):
        for n in (1, 2):
            for m in range(3, 7):
                for w in enumerate_normal_lwords(m, n):
                    redexes = find_redexes(w)
                    assert first_match(w) == (unpacked(redexes[0]) if redexes else None)

    def test_paths_address_matching_subterms(self):
        w = node(SUCC, node(PREC, node(PREC, x1, x2), x3), x4)
        redexes = find_redexes(w)
        assert [(r.rule, r.path) for r in redexes] == [
            (RuleId.F2, ""),
            (RuleId.F1, "L"),
        ]

    def test_paths_are_strings(self):
        for n in (1, 2):
            for m in range(3, 7):
                for w in enumerate_normal_lwords(m, n):
                    assert all(type(r.path) is str for r in find_redexes(w))

    @pytest.mark.parametrize("max_degree,n", [(6, 1), (5, 2)])
    def test_first_walk_is_the_hole_path(self, max_degree, n):
        # The steps the first-redex walk hands to the fold are the hole
        # path of the context with the hole at that redex: the same
        # operations, sides and sibling objects, root first.
        checked = 0
        for m in range(3, max_degree + 1):
            for w in enumerate_normal_lwords(m, n):
                if w.dd:
                    continue
                steps = rewrite._first_match(w)[2]
                expected = hole_path(hole_at(w, find_redexes(w)[0].path))
                assert len(steps) == len(expected)
                for (op, hole_left, sibling), (e_op, e_hole_left, e_sibling) in zip(steps, expected):
                    assert op is e_op and hole_left is e_hole_left and sibling is e_sibling
                checked += 1
        assert checked == {1: 715, 2: 3504}[n]  # the normal words off the basis


class TestRewriteStep:
    def test_rule1(self):
        w = l_prec(l_prec(x1, x2), x3)
        out = rewrite_step(w, find_redexes(w)[0])
        assert out == mono(l_prec(x1, l_prec(x2, x3)), n=3) + mono(l_prec(x1, l_succ(x2, x3)), n=3)

    def test_rule2(self):
        w = l_succ(l_prec(x1, x2), x3)
        out = rewrite_step(w, find_redexes(w)[0])
        assert out == mono(l_succ(x1, l_succ(x2, x3)), n=3) - mono(l_succ(l_succ(x1, x2), x3), n=3)

    def test_rule3(self):
        w = l_succ(l_succ(l_succ(x1, x2), x3), x4)
        out = rewrite_step(w, find_redexes(w)[0])
        assert out == mono(l_succ(l_succ(x1, x2), l_succ(x3, x4))) - mono(
            l_succ(l_succ(x1, l_prec(x2, x3)), x4)
        )

    def test_stale_redex(self):
        w = l_prec(l_prec(x1, x2), x3)
        stale = Redex(RuleId.F1, "L", (x1, x2, x3))
        with pytest.raises(StaleRedexError) as err:
            rewrite_step(w, stale)
        assert str(err.value) == "no F1 redex with those bindings at path 'L'"
        wrong_bindings = Redex(RuleId.F1, "", (x1, x2, x4))
        with pytest.raises(StaleRedexError) as err:
            rewrite_step(w, wrong_bindings)
        assert str(err.value) == "no F1 redex with those bindings at path ''"
        off_the_word = Redex(RuleId.F1, "LLL", (x1, x2, x3))
        with pytest.raises(StaleRedexError) as err:
            rewrite_step(w, off_the_word)
        assert str(err.value) == "path 'LLL' leaves the word"

    def test_alphabet_beyond_the_word_is_refused(self):
        w = l_prec(l_prec(x1, x2), x3)
        [r] = find_redexes(w)
        for n in (1, 2):
            with pytest.raises(AlphabetMismatchError):
                rewrite_step(w, r, n=n)
        assert rewrite_step(w, r, n=3) == rewrite_step(w, r)

    def test_word_off_the_algebra_is_refused(self):
        # The redexes are real, but a step of a non-normal word gives
        # non-normal words, and one of a word with a hole gives hole words.
        off = node(SUCC, node(PREC, node(PREC, x1, x2), x3), node(PREC, node(SUCC, x1, x2), x3))
        holed = node(PREC, node(PREC, x1, x2), hole())
        assert not is_normal(off) and count_holes(holed) == 1
        for w in (off, holed):
            with pytest.raises(ValueError, match="normal") as err:
                rewrite_step(w, find_redexes(w)[0])
            assert not isinstance(err.value, (AlphabetMismatchError, StaleRedexError))

    def test_strict_descent_everywhere(self):
        for n in (1, 2):
            for m in range(3, 7):
                for w in enumerate_normal_lwords(m, n):
                    for r in find_redexes(w):
                        out = rewrite_step(w, r, n=n)
                        for produced, coeff in out.terms():
                            assert compare(produced, w) == -1
                            assert produced.degree == w.degree
                            assert type(coeff) is int

    def test_step_is_the_spliced_relation(self):
        # A step subtracts the rule relation spliced into the word and
        # re-normalized as a whole; the reference does not use the fold that
        # both rewrite steps and apply_context share.
        steps = 0
        for n, max_degree in ((1, 6), (2, 5)):
            for m in range(3, max_degree + 1):
                for w in enumerate_normal_lwords(m, n):
                    for r in find_redexes(w):
                        relation = rule_polynomial(r.rule, r.bindings, n=n)
                        reference = spliced(hole_at(w, r.path), relation)
                        assert rewrite_step(w, r, n=n) == Polynomial.monomial(w, n=n) - reference
                        steps += 1
        assert steps == 5590


class TestNormalForm:
    def test_fixed_point_on_dd_words(self):
        p = mono(l_succ(x1, l_prec(x2, x3)), n=3)
        assert normal_form(p) == p

    def test_rule1_head(self):
        p = normal_form(mono(l_prec(l_prec(x1, x2), x3), n=3))
        assert p == mono(l_prec(x1, l_prec(x2, x3)), n=3) + mono(l_prec(x1, l_succ(x2, x3)), n=3)

    def test_rule_instances_vanish(self):
        assert normal_form(rule_polynomial(RuleId.F2, (x1, x2, x3))).is_zero
        assert normal_form(rule_polynomial(RuleId.F1, (x1, x2, x3))).is_zero
        assert normal_form(rule_polynomial(RuleId.F3, (x1, x2, x3, x4))).is_zero

    def test_image_is_dd_normal_and_terminates(self):
        for n in (1, 2):
            for m in range(1, 7):
                for w in enumerate_normal_lwords(m, n):
                    nf = normal_form(Polynomial.monomial(w, n=n))
                    assert all(t.dd for t, _ in nf.terms())
                    # The rules' coefficients are +-1 and reduction never divides.
                    assert all(type(c) is int for _, c in nf.terms())

    def test_strategy_independence(self):
        # Every redex of every small word leads to the same normal form.
        for n in (1, 2):
            for m in range(3, 7):
                for w in enumerate_normal_lwords(m, n):
                    redexes = find_redexes(w)
                    if not redexes:
                        continue
                    reference = normal_form(Polynomial.monomial(w, n=n))
                    for r in redexes:
                        assert normal_form(rewrite_step(w, r, n=n)) == reference

    def test_steps_fold_from_the_first_redex_walk(self, monkeypatch):
        # normal_form matches the rules once per word on the one path to
        # the first redex, and folds the step up the ancestors it passed;
        # it never walks or matches the path a second time.  The step words
        # of a normal word over x1, x2 are normal words of its degree over
        # x1, x2, so clearing every enumerated word's stored normal form
        # makes the second pass reduce every word off the basis afresh.
        words = [w for m in range(1, 6) for w in enumerate_normal_lwords(m, 2)]
        expected = [normal_form(Polynomial.monomial(w, n=2)) for w in words]
        for w in words:
            monkeypatch.setattr(w, "nf", None)
        matches = []
        real = rewrite.match_rule_at

        def counted(u):
            matches.append(u)
            return real(u)

        monkeypatch.setattr(rewrite, "match_rule_at", counted)
        assert [normal_form(Polynomial.monomial(w, n=2)) for w in words] == expected
        reduced = [u for u in words if u.nf is not None]
        monkeypatch.undo()
        assert reduced == [u for u in words if not u.dd]
        assert len(matches) == sum(len(find_redexes(u)[0].path) + 1 for u in reduced)

    def test_only_words_off_the_basis_are_cached(self):
        # A basis word is its own normal form, which its dd flag says, so
        # none stores one: not the small ones, not a depth-600 > chain.
        chain = x1
        bottom = node(PREC, node(PREC, x1, x2), x3)
        for _ in range(600):
            chain, bottom = node(SUCC, x1, chain), node(SUCC, x1, bottom)
        basis = [w for m in range(1, 6) for w in enumerate_dd_words(m, 2)] + [chain]
        off = [w for m in range(3, 6) for w in enumerate_normal_lwords(m, 2) if not w.dd] + [bottom]
        normal_form(Polynomial(3, {w: k for k, w in enumerate(basis + off, 1)}))
        assert all(u.nf is not None for u in off) and all(w.nf is None for w in basis)
        for w in basis:
            assert normal_form(Polynomial.monomial(w, n=3))._terms == {w: 1}
        assert all(w.nf is None for w in basis)

    def test_every_step_checks_descent(self, monkeypatch):
        w = l_prec(l_prec(x1, x1), x1)
        monkeypatch.setattr(w, "nf", None)
        monkeypatch.setattr(rewrite, "compare", lambda u, v: 0)  # every produced word now ties with w
        with pytest.raises(RewriteOrderError):
            normal_form(Polynomial.monomial(w))

    def test_a_dropped_word_takes_its_derivation_with_it(self, monkeypatch):
        # Generators x7..x9 at degree 5 keep the words out of every
        # enumeration another test may have cached.
        steps = []
        real = rewrite._step

        def recorded(*args):
            out = real(*args)
            steps.extend(weakref.ref(w) for w in out)
            return out

        monkeypatch.setattr(rewrite, "_step", recorded)
        u = l_prec(l_prec(l_prec(x7, x8), x9), l_succ(x7, x8))
        p = normal_form(Polynomial.monomial(u, n=9))
        assert len(p) == 4 and u.nf == p._terms and steps
        refs = [weakref.ref(u), *steps]
        del u, p
        assert all(r() is None for r in refs)

    def test_a_live_word_keeps_its_normal_form(self, monkeypatch):
        u = l_prec(l_prec(l_prec(x7, x9), x8), x7)
        first = normal_form(Polynomial.monomial(u, n=9))
        assert u.nf == first._terms
        del first
        matches = []
        monkeypatch.setattr(rewrite, "match_rule_at", lambda w: matches.append(w))
        assert normal_form(Polynomial.monomial(u, n=9))._terms == u.nf
        assert matches == []

    def test_a_depth_10000_derivation_leaves_the_intern_table(self, monkeypatch):
        # Freeing the chain frees 10,000 nested words at once; each one's
        # intern entry must go without a RecursionError in its callback.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        before = len(terms._NODE_CACHE)
        w = node(PREC, node(PREC, x1, x2), x3)
        for _ in range(10_000):
            w = node(SUCC, x1, w)
        p = normal_form(Polynomial.monomial(w, n=3))
        chain = "(x1 > " * 10_000 + "{})" + ")" * 9_999
        assert str(p) == chain.format("(x1 < (x2 < x3))") + " + " + chain.format("(x1 < (x2 > x3))")
        assert len(terms._NODE_CACHE) > before + 29_000  # the chain and its two step words, 10,001 levels each
        del w, p
        assert len(terms._NODE_CACHE) == before
        assert unraisable == []

    @given(polynomials(n=2, max_degree=5), polynomials(n=2, max_degree=5))
    def test_linearity(self, p, q):
        a, b = Fraction(2, 3), Fraction(-5)
        assert normal_form(a * p + b * q) == a * normal_form(p) + b * normal_form(q)

    @given(polynomials(n=2, max_degree=5))
    def test_degree_decomposition_preserved(self, p):
        nf = normal_form(p)
        by_degree = {}
        for w, c in p.terms():
            by_degree.setdefault(w.degree, []).append((w, c))
        recombined = Polynomial.zero(p.n)
        for m, part in by_degree.items():
            nf_part = normal_form(Polynomial(p.n, part))
            assert all(w.degree == m for w, _ in nf_part.terms())
            recombined = recombined + nf_part
        assert recombined == nf


class TestDendriformAxioms:
    def test_axioms_vanish_on_seeded_dd_triples(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 60:
            a = sample_dd_word(rng, 3, 2)
            b = sample_dd_word(rng, 2, 2)
            c = sample_dd_word(rng, 2, 2)
            if a.degree + b.degree + c.degree > 6:
                continue
            pa, pb, pc = (Polynomial.monomial(t, n=2) for t in (a, b, c))
            entangle = mul(mul(pa, SUCC, pb), PREC, pc) - mul(pa, SUCC, mul(pb, PREC, pc))
            assert entangle.is_zero
            left_split = mul(mul(pa, PREC, pb), PREC, pc) - mul(pa, PREC, mul(pb, PREC, pc)) - mul(
                pa, PREC, mul(pb, SUCC, pc)
            )
            right_split = mul(pa, SUCC, mul(pb, SUCC, pc)) - mul(mul(pa, SUCC, pb), SUCC, pc) - mul(
                mul(pa, PREC, pb), SUCC, pc
            )
            assert normal_form(left_split).is_zero
            assert normal_form(right_split).is_zero
            checked += 1


class TestDeepWords:
    DEPTH = 10_000

    def right_chain(self, bottom):
        w = bottom
        for _ in range(self.DEPTH):
            w = node(SUCC, x1, w)
        return w

    def test_flag_redex_search_and_normal_form(self):
        basis = self.right_chain(x2)
        reducible = self.right_chain(node(PREC, node(PREC, x1, x2), x3))
        assert basis.dd and not reducible.dd
        assert first_match(basis) is None and find_redexes(basis) == []
        # No x1 > w level matches a rule, so the reference's first redex is
        # the bottom's, below the whole chain; the recursive reference itself
        # would build a path per level.
        [bottom] = reference_redexes(node(PREC, node(PREC, x1, x2), x3))
        expected = Redex(bottom.rule, "R" * self.DEPTH + bottom.path, bottom.bindings)
        assert first_match(reducible) == unpacked(expected)
        assert find_redexes(reducible) == [expected]
        p = Polynomial(3, {basis: 1, reducible: 1})
        assert max_reducible_word(p) is reducible
        reduced = normal_form(Polynomial._raw(3, {reducible: 1}))
        assert reduced._terms == {
            self.right_chain(l_prec(x1, l_prec(x2, x3))): 1,
            self.right_chain(l_prec(x1, l_succ(x2, x3))): 1,
        }

    def test_public_constructor_and_fixed_point(self):
        chain = self.right_chain(x1)
        p = Polynomial.monomial(chain)
        assert p.n == 1 and p._terms == {chain: 1}
        assert normal_form(p) == p
        assert is_normal(chain) and count_holes(chain) == 0 and max_generator_index(chain) == 1
        holed = self.right_chain(node(SUCC, hole(), x3))
        assert count_holes(holed) == 1 and max_generator_index(holed) == 3
        with pytest.raises(ValueError, match="normal"):
            Polynomial.monomial(self.right_chain(node(PREC, node(SUCC, x1, x2), x3)))

    def test_compare(self):
        a = self.right_chain(l_prec(x1, l_prec(x2, x3)))
        b = self.right_chain(node(PREC, node(PREC, x1, x2), x3))
        assert compare(a, b) == -1 and compare(b, a) == 1 and compare(a, a) == 0
        assert a < b and not b <= a
