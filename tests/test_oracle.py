import pytest

from fractions import Fraction

from dendriform.oracle import (
    build_relation_matrix,
    coordinates,
    enumerate_contexts,
    enumerate_dd_words,
    enumerate_normal_lwords,
    quotient_dim,
    row_echelon,
    vector_in_row_space,
)
from dendriform.poly import Polynomial
from dendriform.rewrite import is_dd_normal, normal_form
from dendriform.series import dim_closed
from dendriform.terms import count_normal_lwords, generator, is_normal, l_prec, l_succ

x1 = generator(1)


class TestEnumeration:
    def test_degree_one_two_generators(self):
        index = enumerate_normal_lwords(1, 2)
        assert [str(w) for w in index.words] == ["x2", "x1"]

    def test_degree_two_single_generator(self):
        index = enumerate_normal_lwords(2, 1)
        assert [str(w) for w in index.words] == ["(x1 < x1)", "(x1 > x1)"]

    def test_counts_match_recursion(self):
        assert len(enumerate_normal_lwords(4, 1).words) == 30
        for n in (1, 2):
            for m in range(1, 6):
                assert len(enumerate_normal_lwords(m, n).words) == count_normal_lwords(m, n)

    def test_all_words_normal_distinct_descending(self):
        index = enumerate_normal_lwords(5, 2)
        words = index.words
        assert len(set(words)) == len(words)
        assert all(is_normal(w) for w in words)
        assert all(words[i] > words[i + 1] for i in range(len(words) - 1))
        assert all(index.position[w] == i for i, w in enumerate(words))


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

    def test_dd_words_are_normal_words(self):
        dd = set(enumerate_dd_words(4, 2))
        all_words = set(enumerate_normal_lwords(4, 2).words)
        assert dd <= all_words
        assert all(is_dd_normal(w) for w in dd)


class TestContexts:
    def test_single_hole_everywhere(self):
        for h in (1, 2, 3):
            for c in enumerate_contexts(h, 2):
                assert c.word.degree == h

    def test_counts(self):
        # C(h-1) shapes, 2^(h-1) operation labelings, h hole slots, n^(h-1) letters
        assert len(enumerate_contexts(1, 1)) == 1
        assert len(enumerate_contexts(2, 1)) == 4
        assert len(enumerate_contexts(3, 1)) == 24
        assert len(enumerate_contexts(2, 3)) == 12


class TestRelationMatrix:
    def test_degree_three_single_generator(self):
        matrix = build_relation_matrix(3, 1)
        assert len(matrix.index.words) == 7
        assert len(matrix.rows) == 2  # one instance of each rule, bare context
        assert matrix.rank == 2

    def test_rows_are_sparse_signed_units(self):
        matrix = build_relation_matrix(4, 1)
        for row in matrix.rows:
            assert 0 < len(row) <= 3
            assert all(abs(v) == 1 for v in row.values())

    def test_below_degree_three_rejected(self):
        with pytest.raises(ValueError):
            build_relation_matrix(2, 1)

    def test_integer_rows_give_exact_unit_pivots(self):
        rows = ({0: 2, 1: 3, 2: 1}, {1: -1, 2: 4}, {0: 4, 1: 5, 2: 6}, {2: 7})
        pivots = row_echelon(rows)
        assert sorted(pivots) == [0, 1, 2]
        assert all(piv[lead] == 1 for lead, piv in pivots.items())
        assert all(type(v) is Fraction for piv in pivots.values() for v in piv.values())
        assert pivots[0] == {0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}


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

    def test_f3_rows_never_change_rank(self):
        for m, n in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2)):
            assert quotient_dim(m, n, include_f3=True) == quotient_dim(m, n, include_f3=False)

    def test_two_generators(self):
        assert quotient_dim(3, 2) == dim_closed(3, 2)
        assert quotient_dim(4, 2) == dim_closed(4, 2)


class TestAgainstRewriting:
    def test_reduction_moves_lie_in_row_space(self):
        # normal_form(w) - w must be a relation combination, and dd words
        # must be fixed points; degrees up to 4.
        for n in (1, 2):
            for m in (3, 4):
                matrix = build_relation_matrix(m, n)
                for w in enumerate_normal_lwords(m, n).words:
                    p = Polynomial.monomial(w, n=n)
                    moved = normal_form(p) - p
                    if moved.is_zero:
                        continue
                    vec = coordinates(moved, matrix.index)
                    assert vector_in_row_space(matrix, vec)

    def test_dd_words_are_fixed_points(self):
        for n in (1, 2):
            for m in range(1, 5):
                for w in enumerate_dd_words(m, n):
                    p = Polynomial.monomial(w, n=n)
                    assert normal_form(p) == p
