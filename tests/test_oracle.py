import hashlib
import math
from fractions import Fraction

import pytest

from _strategies import all_contexts, hole_path, hole_word
from dendriform import rewrite
from dendriform.audit import criterion_3_oracle_quotient, pivot_leads_off_the_basis
from dendriform.oracle import (
    build_relation_matrix,
    enumerate_contexts,
    enumerate_dd_words,
    enumerate_normal_lwords,
    quotient_dim,
    reduce_vector,
    row_echelon,
)
from dendriform.poly import Polynomial, apply_context
from dendriform.rewrite import RuleId, normal_form, rule_polynomial
from dendriform.series import dim_closed
from dendriform.terms import count_normal_lwords, generator, is_normal, normalize

x1 = generator(1)


def _f3_vector():
    """F3(x1, x2, x3, x4) in the columns of the degree-4 relation matrix over four generators."""
    column = {w: i for i, w in enumerate(enumerate_normal_lwords(4, 4))}
    f3 = rule_polynomial(RuleId.F3, [generator(i) for i in range(1, 5)], n=4)
    return {column[w]: a for w, a in f3.terms()}


def _flipped_right_side(rule):
    """The rule's sides with the sign of the right side's -1 term flipped to +1."""
    left, right = rewrite._SIDES[rule]
    return left, lambda *xs: tuple((w, -a if a == -1 else a) for w, a in right(*xs))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Every degree through 8 over x1, 6 over two generators and 5 over three.
ORDER_CASES = [(m, n) for n, top in ((1, 8), (2, 6), (3, 5)) for m in range(1, top + 1)]


class TestEnumeration:
    def test_degree_one_two_generators(self):
        assert [str(w) for w in enumerate_normal_lwords(1, 2)] == ["x2", "x1"]

    def test_degree_two_single_generator(self):
        assert [str(w) for w in enumerate_normal_lwords(2, 1)] == ["(x1 < x1)", "(x1 > x1)"]

    def test_counts_match_recursion(self):
        assert len(enumerate_normal_lwords(4, 1)) == 30
        for n in (1, 2):
            for m in range(1, 6):
                assert len(enumerate_normal_lwords(m, n)) == count_normal_lwords(m, n)

    def test_all_words_normal_distinct_descending(self):
        words = enumerate_normal_lwords(5, 2)
        assert len(set(words)) == len(words)
        assert all(is_normal(w) for w in words)
        assert all(words[i] > words[i + 1] for i in range(len(words) - 1))

    @pytest.mark.parametrize("m, n", [(5, 1), (4, 2)])
    def test_enumerations_are_the_matrix_columns(self, m, n):
        # Both enumerations are plain tuples, and the relation matrix's
        # columns are the cached normal-word tuple itself, not a copy.
        assert type(enumerate_normal_lwords(m, n)) is tuple
        assert type(enumerate_dd_words(m, n)) is tuple
        assert build_relation_matrix(m, n).words is enumerate_normal_lwords(m, n)

    @pytest.mark.parametrize("m, n", ORDER_CASES)
    def test_generated_in_descending_order(self, m, n):
        # The enumeration is generated in order; sorting is only the reference.
        words = enumerate_normal_lwords(m, n)
        assert list(words) == sorted(words, reverse=True)


class TestDDEnumeration:
    def test_degree_two(self):
        assert {str(w) for w in enumerate_dd_words(2, 1)} == {"(x1 < x1)", "(x1 > x1)"}

    def test_degree_three_single_generator(self):
        assert len(enumerate_dd_words(3, 1)) == 5

    def test_degree_one_is_alphabet(self):
        assert [str(w) for w in enumerate_dd_words(1, 3)] == ["x3", "x2", "x1"]

    def test_counts_match_closed_form(self):
        for n in (1, 2):
            for m in range(1, 7):
                assert len(enumerate_dd_words(m, n)) == dim_closed(m, n)

    @pytest.mark.parametrize("m, n", ORDER_CASES)
    def test_generated_in_descending_order(self, m, n):
        words = enumerate_dd_words(m, n)
        assert list(words) == sorted(words, reverse=True)

    def test_order_is_pinned(self):
        words = enumerate_dd_words(5, 2)
        assert len(words) == 1344
        assert digest(map(str, words)) == "87ddf633e1bfee8b5fed84033a3b5f743b4e61203a09722a479b76dca7d383c4"

    def test_dd_words_are_normal_words(self):
        dd = set(enumerate_dd_words(4, 2))
        all_words = set(enumerate_normal_lwords(4, 2))
        assert dd <= all_words
        assert all(w.dd for w in dd)


class TestContexts:
    def test_single_hole_everywhere(self):
        # Each path is the reference walk of the hole word it splices into:
        # the same products, sides and sibling objects.
        for h in (1, 2, 3):
            for c in enumerate_contexts(h, 2):
                word = hole_word(c)
                assert word.degree == h and word.holes == 1
                assert hole_path(word) == c

    def test_counts(self):
        # Normal words of degree h with one of their h leaves made the hole
        assert len(enumerate_contexts(1, 1)) == 1
        assert len(enumerate_contexts(2, 1)) == 4
        assert len(enumerate_contexts(3, 1)) == 21
        assert len(enumerate_contexts(2, 3)) == 12

    @pytest.mark.parametrize("h, n", [(h, n) for n in (1, 2) for h in range(1, 6)])
    def test_only_normal_contexts(self, h, n):
        contexts = enumerate_contexts(h, n)
        words = [hole_word(c) for c in contexts]
        assert all(w.normal and w.holes == 1 and w.degree == h for w in words)
        assert len(set(words)) == len(contexts) == math.comb(3 * h - 2, h - 1) * n ** (h - 1)

    def test_every_context_has_its_normal_form_enumerated(self):
        # A context and its normal form (the hole read as a letter) embed
        # every normal word alike, so the non-normal contexts add no row.
        words = [Polynomial.monomial(u, n=2) for m in (1, 2) for u in enumerate_normal_lwords(m, 2)]
        for h in range(1, 5):
            normal = set(enumerate_contexts(h, 2))
            for c in all_contexts(h, 2):
                c_normal = hole_path(normalize(c))
                assert c_normal in normal
                for p in words:
                    assert apply_context(hole_path(c), p) == apply_context(c_normal, p)

    @pytest.mark.parametrize(
        "h, n, count, expected",
        [
            (4, 1, 120, "321633621f2733e00c60f45c3abb4bdf46b343078a7dfc1ef5f4a2b8232cc784"),
            (3, 2, 84, "e967da7ce5de280f752677cd775d35a03f9f7eea548d09b95d330650c643da6a"),
        ],
    )
    def test_order_is_pinned(self, h, n, count, expected):
        contexts = enumerate_contexts(h, n)
        assert len(contexts) == count
        assert digest(str(hole_word(c)) for c in contexts) == expected


class TestRelationMatrix:
    def test_degree_three_single_generator(self):
        matrix = build_relation_matrix(3, 1)
        assert len(matrix.words) == 7
        assert len(matrix.rows) == 2  # one instance of each rule, bare context
        assert matrix.rank == 2

    def test_rows_are_sparse_signed_units(self):
        matrix = build_relation_matrix(4, 1)
        for row in matrix.rows:
            assert 0 < len(row) <= 3
            assert all(abs(v) == 1 for v in row.values())

    # Digests of the same rows as sorted lines, recorded at commit a836a1a,
    # before the enumerations were generated in order: the (5, 1) row order
    # moved then, the rows themselves did not.  The (5, 1) entries were
    # taken again when contexts became normal, which drops repeated rows.
    SORTED_ROWS = {
        (5, 1): "7de539f2f7de161c84db969593d3e6768898c462b68dac08be0dc8a407a2a882",
        (4, 2): "acbd19ffb5d046d178b4659a90c1fdcd67fb83a3d1504a53741408eae8df4da3",
        (3, 3): "332018c041a9557db84600326b537b410175cddfbedf2c7205d170f3aec75a35",
    }

    # Digests of the distinct rows as sorted lines, recorded at commit
    # 224d8c0, when contexts were every single-hole tree: the normal
    # contexts alone span the same rows.
    DISTINCT_ROWS = {
        (5, 1): "fc935e285583ab43d6e5383da7e79875e53b91966cb832f885d3813c2fc34228",
        (4, 2): "ac03f1c25c70831708a0e9bc214273803b8303128c0028ed908ca971b7b12dd8",
        (3, 3): "332018c041a9557db84600326b537b410175cddfbedf2c7205d170f3aec75a35",
    }

    @pytest.mark.parametrize(
        "m, n, count, expected",
        [
            (5, 1, 156, "478c4e5ddeac1749556f4232dd745b5223a63162565f05ea1cd0c8320cca6b2b"),
            (4, 2, 320, "01ae76821b5738e0355276b74c74af2367d94b6ee27970fd825cd3dc61796ee9"),
            (3, 3, 54, "7a5a7553d00e9a9ef3f61d740b2c4adb3e6095c04a145f6ee54f5ca61b53a11a"),
        ],
    )
    def test_row_order_is_pinned(self, m, n, count, expected):
        # Row order decides the elimination work; a reordered enumeration
        # would change it without changing any rank.
        rows = build_relation_matrix(m, n).rows
        assert len(rows) == count
        lines = [" ".join(f"{c}:{a}" for c, a in sorted(row.items())) for row in rows]
        assert digest(lines) == expected
        assert digest(sorted(lines)) == self.SORTED_ROWS[m, n]
        assert digest(sorted(set(lines))) == self.DISTINCT_ROWS[m, n]

    @pytest.mark.parametrize("m, fill", [(6, 1905), (7, 11401)])
    def test_elimination_fill_is_pinned(self, m, fill):
        # Bindings and context factors read the enumeration ascending; with
        # bindings read descending, the pivot rows hold 2,504 and 17,009
        # entries instead.
        pivots = build_relation_matrix(m, 1).pivots
        assert sum(map(len, pivots.values())) == fill

    def test_apply_context_is_called_once_per_row(self, monkeypatch):
        from dendriform import oracle

        calls = []

        def counting(path, p):
            calls.append(path)
            return apply_context(path, p)

        monkeypatch.setattr(oracle, "apply_context", counting)
        matrix = build_relation_matrix(5, 1)
        # Each row is one relation embedded in one enumerated context.
        assert len(calls) == len(matrix.rows) == 156

    def test_below_degree_three_rejected(self):
        with pytest.raises(ValueError):
            build_relation_matrix(2, 1)

    def test_integer_rows_give_exact_unit_pivots(self):
        # Exact, never float: a non-unit lead is divided out with Fraction.
        rows = ({0: 2, 1: 3, 2: 1}, {1: -1, 2: 4}, {0: 4, 1: 5, 2: 6}, {2: 7})
        pivots = row_echelon(rows)
        assert sorted(pivots) == [0, 1, 2]
        assert all(piv[lead] == 1 for lead, piv in pivots.items())
        assert all(type(v) in (int, Fraction) for piv in pivots.values() for v in piv.values())
        assert pivots[0] == {0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}

    def test_unit_leads_keep_integer_pivots(self):
        # Leads of 1 and -1 are stored as they are or negated, never divided.
        rows = ({0: 1, 1: -1, 2: 1}, {0: -1, 2: 1}, {1: 1, 2: -1})
        pivots = row_echelon(rows)
        assert pivots == {0: {0: 1, 1: -1, 2: 1}, 1: {1: 1, 2: -2}, 2: {2: 1}}
        assert all(type(v) is int for piv in pivots.values() for v in piv.values())

    def test_row_space_accepts_fraction_coordinates(self):
        matrix = build_relation_matrix(4, 1)
        first, second = matrix.rows[0], matrix.rows[1]
        vec = {c: Fraction(2, 3) * first.get(c, 0) + Fraction(1, 5) * second.get(c, 0) for c in {*first, *second}}
        assert any(type(v) is Fraction for v in vec.values())
        assert not reduce_vector(vec, matrix.pivots)
        dd = enumerate_dd_words(4, 1)[0]
        assert reduce_vector({matrix.words.index(dd): Fraction(1, 2)}, matrix.pivots)

    # Digests of the sorted pivot columns and of the pivot rows as printed
    # at commit 8b1f618, where every pivot row was scaled by Fraction(1, lead).
    @pytest.mark.parametrize(
        "m, n, rank, columns, pivot_rows",
        [
            (
                5, 1, 101,
                "d2c3949d489913a5943103ea02b409793bec545c57830c1814133ac4e0123284",
                "8ff16afcc8e5125f2880001b636941f4d8000ab91600c82d15345e197fb742ad",
            ),
            (
                4, 2, 256,
                "42a77d56aa0b8be566556d186793e3ffbe5845a437b1085db6cd8852c8bf3536",
                "3401ebb2f4f614552c96cccdd6cc491381b2421d59ee9d3ca60bfb4fa9c79eb3",
            ),
        ],
        ids=["5-1", "4-2"],
    )
    def test_pivots_are_pinned(self, m, n, rank, columns, pivot_rows):
        pivots = build_relation_matrix(m, n).pivots
        leads = sorted(pivots)
        assert len(leads) == rank
        assert digest(map(str, leads)) == columns
        assert digest(" ".join(f"{c}:{a}" for c, a in sorted(pivots[k].items())) for k in leads) == pivot_rows
        # Every relation pivot has a unit lead, so elimination never divides.
        assert all(type(v) is int and abs(v) == 1 for piv in pivots.values() for v in piv.values())


class TestQuotientDimension:
    def test_matches_catalan_single_generator(self):
        assert quotient_dim(3, 1) == 5
        assert quotient_dim(4, 1) == 14
        assert quotient_dim(5, 1) == 42

    def test_degree_four_rank(self):
        matrix = build_relation_matrix(4, 1)
        assert matrix.rank == 30 - 14

    def test_small_degrees_have_no_relations(self):
        assert quotient_dim(1, 2) == 2
        assert quotient_dim(2, 2) == 8

    def test_f3_lies_in_the_f1_f2_ideal(self):
        # The multilinear F3 reduces to zero against the F1/F2 pivots over
        # four generators; substitution carries that to every instance.
        assert not reduce_vector(_f3_vector(), build_relation_matrix(4, 4).pivots)

    def test_f3_with_a_flipped_sign_is_not_derived(self, monkeypatch):
        # Mutated sides must not reach normal_form: the nf slot would keep
        # the mutated forms on the cached enumeration words.
        monkeypatch.setitem(rewrite._SIDES, RuleId.F3, _flipped_right_side(RuleId.F3))
        assert reduce_vector(_f3_vector(), build_relation_matrix(4, 4).pivots)
        assert not criterion_3_oracle_quotient()[0]

    def test_two_generators(self):
        assert quotient_dim(3, 2) == dim_closed(3, 2)
        assert quotient_dim(4, 2) == dim_closed(4, 2)

    @pytest.mark.parametrize("m, n", [(m, 2) for m in range(1, 6)] + [(m, 3) for m in range(1, 5)])
    def test_scaled_quotient_matches_direct_elimination(self, m, n):
        # quotient_dim relabels the x1 quotient; the rows over n generators
        # eliminated directly must give the same dimension.
        n_words = len(enumerate_normal_lwords(m, n))
        direct = n_words - build_relation_matrix(m, n).rank if m >= 3 else n_words
        assert quotient_dim(m, n) == direct

    def test_falsified_x1_rank_is_not_masked(self, monkeypatch):
        # One pivot lost over x1 is one per leaf sequence over n generators.
        from dendriform import oracle

        def dropping_one_pivot(rows):
            pivots = row_echelon(rows)
            del pivots[max(pivots)]
            return pivots

        monkeypatch.setattr(oracle, "row_echelon", dropping_one_pivot)
        assert quotient_dim(5, 2) == dim_closed(5, 2) + 2**5
        assert not criterion_3_oracle_quotient()[0]


class TestPivotLeads:
    @pytest.mark.parametrize("m, n", [(7, 1), (4, 2)])
    def test_pivot_leads_are_the_words_off_the_basis(self, m, n):
        assert pivot_leads_off_the_basis(build_relation_matrix(m, n))

    def test_flipped_f2_sign_breaks_the_leads_and_the_f3_derivation(self, monkeypatch):
        # As with F3 above, the mutated side never reaches normal_form.
        monkeypatch.setitem(rewrite._SIDES, RuleId.F2, _flipped_right_side(RuleId.F2))
        assert not pivot_leads_off_the_basis(build_relation_matrix(6, 1))
        assert reduce_vector(_f3_vector(), build_relation_matrix(4, 4).pivots)
        assert not criterion_3_oracle_quotient()[0]


class TestAgainstRewriting:
    def test_reduction_moves_lie_in_row_space(self):
        # normal_form(w) - w must be a relation combination, and dd words
        # must be fixed points; degrees up to 4.
        for n in (1, 2):
            for m in (3, 4):
                matrix = build_relation_matrix(m, n)
                for w in enumerate_normal_lwords(m, n):
                    p = Polynomial.monomial(w, n=n)
                    moved = normal_form(p) - p
                    if moved.is_zero:
                        continue
                    vec = {matrix.words.index(u): a for u, a in moved.terms()}
                    assert not reduce_vector(vec, matrix.pivots)

    def test_dd_words_are_fixed_points(self):
        for n in (1, 2):
            for m in range(1, 5):
                for w in enumerate_dd_words(m, n):
                    p = Polynomial.monomial(w, n=n)
                    assert normal_form(p) == p
