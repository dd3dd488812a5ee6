import pickle
import weakref

import pytest
from hypothesis import given

from _strategies import normal_words, reference_is_normal, reference_leaves, tree_words
from dendriform import terms
from dendriform.oracle import enumerate_contexts, enumerate_normal_lwords
from dendriform.terms import (
    PREC,
    SUCC,
    Context,
    ParseError,
    compare,
    count_holes,
    count_normal_lwords,
    format_lword,
    generator,
    hole,
    is_normal,
    l_prec,
    l_succ,
    max_generator_index,
    node,
    normalize,
    parse_lword,
    substitute,
)

x1, x2, x3, x4 = (generator(i) for i in range(1, 5))


class TestParse:
    def test_single_generator(self):
        assert parse_lword("x1") is x1

    def test_nested_tree(self):
        assert parse_lword("((x1 > x2) < x3)") is node(PREC, node(SUCC, x1, x2), x3)

    def test_whitespace_insignificant(self):
        assert parse_lword(" (x1<x2) ") is node(PREC, x1, x2)
        assert parse_lword("(  x1 >   x2)") is node(SUCC, x1, x2)

    @pytest.mark.parametrize(
        "text,n,message,offset",
        [
            ("(x1 ? x2)", None, "unexpected character '?'", 4),
            ("(x > x2)", None, "expected digits after 'x'", 1),
            ("(x1 >", None, "unexpected end of input", 5),
            ("(x1 > x0)", None, "generator index must be at least 1", 6),
            ("(x1 < x4)", 3, "generator index 4 exceeds alphabet size 3", 6),
            ("x3", 2, "generator index 3 exceeds alphabet size 2", 0),
            ("x0", None, "generator index must be at least 1", 0),
            ("(x1 x2)", None, "expected operator '<' or '>'", 4),
            ("(x1", None, "expected operator '<' or '>'", 3),
            ("(x1 > x2 x3)", None, "expected ')'", 9),
            ("(x1 > x2", None, "expected ')'", 8),
            ("(x1 > (x2 > x3", None, "expected ')'", 14),
            ("(x1 > >)", None, "expected a generator or '('", 6),
            ("x1 x2", None, "trailing input after expression", 3),
            # A character that starts no token wins over an earlier syntax error.
            ("(x1 x2 $)", None, "unexpected character '$'", 7),
            ("(x1 x2 x)", None, "expected digits after 'x'", 7),
        ],
    )
    def test_error_message_and_offset(self, text, n, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_lword(text, n)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.position == offset

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            ("x1²", "unexpected character '²'", 2),
            ("x١", "expected digits after 'x'", 0),
            ("(x1 < x" + "9" * 5000 + ")", "generator index has too many digits", 6),
        ],
        ids=["superscript-digit", "arabic-indic-digit", "5000-digit-index"],
    )
    def test_non_ascii_or_overlong_index_is_rejected(self, text, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_lword(text)
        assert str(exc.value) == f"{message} (at offset {offset})"

    @given(tree_words(n=3, max_leaves=6))
    def test_round_trip(self, w):
        assert parse_lword(format_lword(w), 3) is w

    @pytest.mark.parametrize("comb", [False, True], ids=["right-succ-chain", "left-prec-comb"])
    def test_round_trip_depth_10000(self, comb):
        w = x1
        for _ in range(10_000):
            w = node(PREC, w, x2) if comb else node(SUCC, x2, w)
        assert w.degree == 10_001
        assert parse_lword(str(w)) is w


class TestInterning:
    def test_identity_holds_after_a_word_died_and_was_rebuilt(self):
        # Generators x7..x9 keep the word out of every enumeration another
        # test may have cached, so dropping it here frees it.
        x7, x8, x9 = (generator(i) for i in range(7, 10))
        before = len(terms._NODE_CACHE)
        w = node(PREC, node(SUCC, x7, x8), x9)
        assert len(terms._NODE_CACHE) == before + 2
        ref = weakref.ref(w)
        del w
        assert ref() is None and len(terms._NODE_CACHE) == before
        w = node(PREC, node(SUCC, x7, x8), x9)
        assert node(PREC, node(SUCC, x7, x8), x9) is w
        assert parse_lword("((x7 > x8) < x9)") is w
        assert pickle.loads(pickle.dumps(w)) is w


class TestDegreeAndNormality:
    def test_degree_counts_leaves(self):
        assert x1.degree == 1
        assert node(PREC, node(SUCC, x1, x2), x3).degree == 3
        assert node(SUCC, node(SUCC, node(SUCC, x1, x2), x3), x4).degree == 4

    def test_is_normal(self):
        assert is_normal(node(PREC, x1, x2))
        assert not is_normal(node(PREC, node(SUCC, x1, x2), x3))
        assert is_normal(node(SUCC, node(SUCC, x1, x2), x3))

    def test_walks_match_the_definitions(self):
        # The contexts cover normal and non-normal trees, flagged or not.
        trees = [c.word for c in enumerate_contexts(4, 3)] + list(enumerate_normal_lwords(4, 2).words)
        assert any(not is_normal(w) for w in trees) and any(not w.dd and is_normal(w) for w in trees)
        for w in trees:
            assert is_normal(w) == reference_is_normal(w)
            assert count_holes(w) == reference_leaves(w).count(0)
            assert max_generator_index(w) == max(reference_leaves(w))

    @given(tree_words(n=3, max_leaves=8, holes=True))
    def test_facts_match_the_definitions_on_any_tree(self, w):
        leaves = reference_leaves(w)
        assert w.normal == reference_is_normal(w)
        assert w.holes == leaves.count(0)
        assert w.index == max(leaves)


class TestProducts:
    def test_succ_is_plain_pairing(self):
        assert l_succ(x1, x2) is node(SUCC, x1, x2)
        assert l_succ(l_prec(x1, x2), x3) is node(SUCC, node(PREC, x1, x2), x3)
        assert l_succ(l_succ(x1, x2), l_prec(x3, x4)) is node(
            SUCC, node(SUCC, x1, x2), node(PREC, x3, x4)
        )

    def test_prec_entangles_succ_topped_left(self):
        assert l_prec(x1, x2) is node(PREC, x1, x2)
        assert l_prec(l_succ(x1, x2), x3) is node(SUCC, x1, node(PREC, x2, x3))
        # one more unfolding of the recursion
        assert l_prec(l_succ(l_succ(x1, x2), x3), x4) is node(
            SUCC, node(SUCC, x1, x2), node(PREC, x3, x4)
        )

    @given(normal_words(n=2, max_degree=5), normal_words(n=2, max_degree=5))
    def test_products_stay_normal_and_add_degrees(self, u, v):
        for prod in (l_prec, l_succ):
            w = prod(u, v)
            assert is_normal(w)
            assert w.degree == u.degree + v.degree


class TestNormalize:
    def test_entanglement(self):
        assert normalize(node(PREC, node(SUCC, x1, x2), x3)) is node(
            SUCC, x1, node(PREC, x2, x3)
        )

    def test_fixed_point_on_normal_words(self):
        w = node(PREC, x1, x2)
        assert normalize(w) is w

    def test_two_unfoldings(self):
        w = node(PREC, node(PREC, node(SUCC, x1, x2), x3), x4)
        assert normalize(w) is node(SUCC, x1, node(PREC, node(PREC, x2, x3), x4))

    @given(tree_words(n=2, max_leaves=7))
    def test_idempotent_normal_and_degree_preserving(self, w):
        nw = normalize(w)
        assert is_normal(nw)
        assert nw.degree == w.degree
        assert normalize(nw) is nw


class TestOrder:
    def test_degree_decides_first(self):
        assert compare(x1, node(SUCC, x1, x2)) == -1

    def test_prec_above_succ(self):
        assert compare(node(PREC, x1, x2), node(SUCC, x1, x2)) == 1

    def test_generators_by_index(self):
        assert compare(x1, x2) == -1

    def test_strict_total_order_up_to_degree_four(self):
        # Sorting the full enumeration and checking all pairs against the
        # sort certifies totality, antisymmetry and transitivity at once.
        words = []
        for m in range(1, 5):
            words.extend(enumerate_normal_lwords(m, 2).words)
        ordered = sorted(words)
        for i in range(len(ordered)):
            assert compare(ordered[i], ordered[i]) == 0
            for j in range(i + 1, len(ordered)):
                assert compare(ordered[i], ordered[j]) == -1
                assert compare(ordered[j], ordered[i]) == 1

    def test_monomial_in_contexts(self):
        # u > v of equal degree must stay ordered after substitution into
        # any context, exhaustively at small degree.
        contexts = []
        for h in range(1, 4):
            contexts.extend(enumerate_contexts(h, 2))
        for m in range(1, 4):
            words = enumerate_normal_lwords(m, 2).words  # descending
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
                    u, v = words[i], words[j]
                    for c in contexts:
                        cu = normalize(substitute(c, u))
                        cv = normalize(substitute(c, v))
                        assert compare(cu, cv) == 1


class TestContexts:
    def test_identity_context(self):
        assert substitute(Context(hole()), x1) is x1

    def test_splice(self):
        c = Context(node(PREC, hole(), x2))
        assert substitute(c, node(SUCC, x1, x3)) is node(PREC, node(SUCC, x1, x3), x2)

    def test_splice_deep(self):
        c = Context(node(SUCC, node(SUCC, x1, hole()), x2))
        w = node(PREC, x3, x4)
        assert substitute(c, w) is node(SUCC, node(SUCC, x1, w), x2)

    def test_exactly_one_hole_required(self):
        with pytest.raises(ValueError):
            Context(x1)
        with pytest.raises(ValueError):
            Context(node(PREC, hole(), hole()))
        assert count_holes(node(PREC, hole(), x1)) == 1


class TestCounting:
    @pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (3, 7), (4, 30), (5, 143)])
    def test_recursion_single_generator(self, m, expected):
        assert count_normal_lwords(m, 1) == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_recursion_matches_enumeration(self, n):
        for m in range(1, 6):
            assert count_normal_lwords(m, n) == len(enumerate_normal_lwords(m, n).words)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_matches_top_operation_recursion_to_degree_400(self, n):
        # The reference splits on the top operation: a SUCC-topped word is
        # any pair of normal words, a PREC-topped one needs a left factor
        # that is not SUCC-topped.  Indexed by degree, entry 0 is 0.
        words, not_succ = [0, n], [0, n]
        for m in range(2, 401):
            prec_topped = sum(not_succ[i] * words[m - i] for i in range(1, m))
            words.append(sum(words[i] * words[m - i] for i in range(1, m)) + prec_topped)
            not_succ.append(prec_topped)
        for m in range(1, 401):
            assert count_normal_lwords(m, n) == words[m]

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generator(0)
        with pytest.raises(ValueError):
            count_normal_lwords(0, 1)
