import pytest

from _strategies import reference_local_confluence, reference_right_mult_sweep
from dendriform import gsbcheck
from dendriform.audit import _collapser, _leaf_sequence
from dendriform.gsbcheck import (
    CompositionReport,
    _report_sort_key,
    check_local_confluence,
    check_named_cases,
    check_right_mult,
    classify_redex_pair,
    named_ambiguity_words,
    right_mult_sweep,
)
from dendriform.poly import AlphabetMismatchError, Polynomial
from dendriform.rewrite import RuleId, find_redexes, normal_form, rewrite_step
from dendriform.terms import compare, generator, l_prec, l_succ, parse_lword

x1, x2, x3, x4, x5 = (generator(i) for i in range(1, 6))


class TestRightMult:
    def test_rule2_by_generator(self):
        report = check_right_mult(RuleId.F2, (x1, x2, x3), x4)
        assert report.ok
        assert report.residual.is_zero
        assert report.kind == "right_mult"

    def test_rule3_by_generator(self):
        report = check_right_mult(RuleId.F3, (x1, x2, x3, x4), x5)
        assert report.ok and report.residual.is_zero

    def test_composite_right_factor(self):
        report = check_right_mult(RuleId.F2, (x1, x2, x3), l_prec(x2, x1))
        assert report.ok and report.residual.is_zero

    def test_rule1_rejected(self):
        with pytest.raises(ValueError):
            check_right_mult(RuleId.F1, (x1, x2, x3), x4)

    def test_intermediate_bound_is_nonstrict(self):
        report = check_right_mult(RuleId.F2, (x1, x2, x3), x4)
        assert report.max_intermediate is not None
        assert compare(report.max_intermediate, report.ambiguity_word) <= 0

    def test_alphabet_beyond_the_bindings_is_refused(self):
        with pytest.raises(AlphabetMismatchError):
            check_right_mult(RuleId.F2, (x1, x2, x3), x1, n=2)
        with pytest.raises(AlphabetMismatchError):
            check_right_mult(RuleId.F2, (x1, x1, x1), x3, n=2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sweep_refuses_a_non_positive_alphabet(self, n):
        with pytest.raises(ValueError, match="alphabet size must be at least 1"):
            right_mult_sweep(6, n)

    def test_sweep_all_trivial(self):
        reports = right_mult_sweep(6, 1)
        assert reports
        assert all(r.ok for r in reports)
        assert {r.rules[0] for r in reports} == {RuleId.F2, RuleId.F3}


class TestLocalConfluence:
    def test_degree_four_single_generator(self):
        reports = check_local_confluence(4, 1)
        assert reports and all(r.ok for r in reports)
        ambiguities = {str(r.ambiguity_word) for r in reports}
        assert "(((x1 < x1) < x1) < x1)" in ambiguities

    def test_degree_three_two_generators_is_vacuous(self):
        assert check_local_confluence(3, 2) == []

    def test_degree_five_single_generator(self):
        reports = check_local_confluence(5, 1)
        assert reports and all(r.ok for r in reports)
        ambiguities = {str(r.ambiguity_word) for r in reports}
        assert "((((x1 < x1) > x1) > x1) > x1)" in ambiguities

    def test_intermediates_stay_strictly_below_ambiguity(self):
        for report in check_local_confluence(5, 1):
            if report.max_intermediate is not None:
                assert compare(report.max_intermediate, report.ambiguity_word) == -1

    def test_reports_deterministic(self):
        a = check_local_confluence(5, 1)
        b = check_local_confluence(5, 1)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_degree_bound_validation(self):
        with pytest.raises(ValueError):
            check_local_confluence(2, 1)

    def test_residuals_hold_int_coefficients(self):
        for report in check_local_confluence(5, 1) + right_mult_sweep(6, 1):
            assert all(type(c) is int for _, c in report.residual.terms())


@pytest.mark.parametrize(
    "sweep,n",
    [
        (lambda: right_mult_sweep(6, 1), 1),
        (lambda: check_local_confluence(6, 1), 1),
        (lambda: check_local_confluence(5, 2), 2),
        (lambda: check_named_cases(3), 3),
    ],
    ids=["right-mult-6-1", "confluence-6-1", "confluence-5-2", "named-3"],
)
def test_passing_reports_share_the_one_zero(sweep, n):
    passing = [r for r in sweep() if r.ok]
    assert passing and all(r.residual is Polynomial.zero(n) for r in passing)


@pytest.mark.parametrize("degree", [2, -5])
@pytest.mark.parametrize("sweep", [right_mult_sweep, gsbcheck.coverage_audit], ids=["right_mult", "coverage"])
def test_sweeps_refuse_a_degree_below_three(sweep, degree):
    # As check_local_confluence does: below degree 3 a sweep finds nothing
    # to check, and an empty report list would read as "every report ok".
    with pytest.raises(ValueError, match="redexes need degree at least 3"):
        sweep(degree, 1)


class TestNamedCases:
    def test_shapes(self):
        words = named_ambiguity_words(6)
        rendered = {name: str(w) for name, w in words.items()}
        assert rendered["prec_prec_under_succ"] == "(((x1 < x2) < x3) > x4)"
        assert rendered["prec_succ_chain"] == "((((x1 < x2) > x3) > x4) > x5)"
        assert rendered["succ_chain_overlap"] == "(((((x1 > x2) > x3) > x4) > x5) > x6)"

    def test_expected_redex_pairs(self):
        words = named_ambiguity_words(6)
        assert [r.rule for r in find_redexes(words["prec_prec_under_succ"])] == [RuleId.F2, RuleId.F1]
        assert [r.rule for r in find_redexes(words["prec_succ_chain"])] == [RuleId.F3, RuleId.F2]
        assert [r.rule for r in find_redexes(words["succ_chain_overlap"])] == [
            RuleId.F3,
            RuleId.F3,
            RuleId.F3,
        ]

    def test_all_named_cases_trivial(self):
        reports = check_named_cases(6)
        assert len(reports) == 5  # one pair, one pair, three pairs
        assert all(r.ok and r.residual.is_zero for r in reports)

    def test_small_alphabet_cycles(self):
        reports = check_named_cases(2)
        assert reports and all(r.ok for r in reports)


class TestCoverage:
    def test_classification(self):
        w = named_ambiguity_words(6)["prec_prec_under_succ"]
        r1, r2 = find_redexes(w)
        assert classify_redex_pair(r1, r2) == "inclusion:F2/F1"
        assert classify_redex_pair(r2, r1) == "inclusion:F2/F1"
        # disjoint pair
        big = l_succ(l_prec(l_prec(x1, x2), x3), l_prec(l_prec(x1, x2), x3))
        redexes = find_redexes(big)
        nested = [r for r in redexes if r.path and r.path[0] == "L"]
        right = [r for r in redexes if r.path and r.path[0] == "R"]
        assert classify_redex_pair(nested[0], right[0]) == "disjoint"


class TestReportSerialization:
    def test_json_dict(self):
        report = check_right_mult(RuleId.F2, (x1, x2, x3), x4)
        payload = report.to_json_dict()
        assert payload["kind"] == "right_mult"
        assert payload["rules"] == ["F2"]
        assert payload["ok"] is True
        assert payload["residual"]["terms"] == []


class TestRelabeling:
    @pytest.mark.parametrize("max_degree,n", [(6, 2), (5, 3)])
    @pytest.mark.parametrize(
        "sweep,reference",
        [(right_mult_sweep, reference_right_mult_sweep), (check_local_confluence, reference_local_confluence)],
        ids=["right_mult", "local_confluence"],
    )
    def test_matches_the_direct_sweep(self, sweep, reference, max_degree, n):
        # The two sweeps find the reports in different orders; the sort key
        # is unique on every report, so sorting pairs them one to one.
        reports = sorted(sweep(max_degree, n), key=_report_sort_key)
        assert len({_report_sort_key(r) for r in reports}) == len(reports)
        relabeled = [r.to_json_dict() for r in reports]
        assert relabeled == [r.to_json_dict() for r in sorted(reference(max_degree, n), key=_report_sort_key)]

    def test_a_failure_over_x1_fails_in_every_block(self, monkeypatch):
        # Leave a residual on one pair of one ambiguity over x1; the sweep
        # over two generators must report it once per leaf sequence, with
        # the residual word relabeled by the ambiguity's sequence.
        ambiguity = parse_lword("(((x1 < x1) < x1) < x1)")
        r1, r2 = find_redexes(ambiguity)[:2]
        target = rewrite_step(ambiguity, r1, n=1) - rewrite_step(ambiguity, r2, n=1)
        witness = parse_lword("(x1 > ((x1 > x1) > x1))")
        real = gsbcheck.normal_form

        def leaky(p):
            out = real(p)
            return out + Polynomial.monomial(witness, n=1) if p == target else out

        monkeypatch.setattr(gsbcheck, "normal_form", leaky)
        collapse = _collapser()
        failing = [r for r in check_local_confluence(4, 2) if not r.ok]
        assert len(failing) == 2**4
        assert len({_leaf_sequence(r.ambiguity_word) for r in failing}) == 2**4
        for r in failing:
            assert collapse(r.ambiguity_word) is ambiguity
            assert r.paths == (r1.path, r2.path)
            assert r.residual.n == 2
            ((word, coeff),) = r.residual.terms()
            assert coeff == 1 and collapse(word) is witness
            assert _leaf_sequence(word) == _leaf_sequence(r.ambiguity_word)
            assert normal_form(Polynomial.monomial(word, n=2)) == r.residual
