import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from dendriform import gsbcheck
from dendriform.cli import EXIT_STDOUT_CLOSED, main
from dendriform.terms import compare, parse_lword


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_entangles(self, capsys):
        code, out, _ = run(capsys, "normalize", "((x1 > x2) < x3)")
        assert code == 0
        assert out == "(x1 > (x2 < x3))\n"

    def test_generator_passthrough(self, capsys):
        code, out, _ = run(capsys, "normalize", "x1")
        assert code == 0 and out == "x1\n"

    def test_normal_word_unchanged(self, capsys):
        # still a normal word of the free algebra; reduction is a different command
        code, out, _ = run(capsys, "normalize", "((x1 < x2) < x3)")
        assert code == 0 and out == "((x1 < x2) < x3)\n"

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run(capsys, "normalize", "(x1 > (x2 >")
        assert code == 2
        assert "parse error" in err

    def test_generator_bound_enforced(self, capsys):
        code, _, err = run(capsys, "normalize", "--generators", "2", "x5")
        assert code == 2 and "exceeds" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "normalize", "--format", "json", "((x1 > x2) < x3)")
        assert code == 0
        assert json.loads(out) == [{"input": "((x1 > x2) < x3)", "normal": "(x1 > (x2 < x3))"}]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x1\n((x1 > x2) < x3)\n\n"))
        code, out, _ = run(capsys, "normalize", "--stdin")
        assert code == 0
        assert out.splitlines() == ["x1", "(x1 > (x2 < x3))"]

    def test_no_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "normalize")
        assert code == 2 and "usage error" in err

    def test_unknown_seed_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "normalize", "--seed", "1", "x1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["normalize", "reduce"])
def test_depth_10000_input_completes(capsys, command):
    # The right > chain is DD-normal, so both commands print it unchanged;
    # the chain < x2 entangles down the whole spine onto (x1 < x2).
    depth = 10_000
    chain = "(x1 > " * depth + "x1" + ")" * depth
    code, out, err = run(capsys, command, chain, f"({chain} < x2)")
    assert code == 0 and err == ""
    assert out == chain + "\n" + "(x1 > " * depth + "(x1 < x2)" + ")" * depth + "\n"


@pytest.mark.parametrize("degree", ["11", "1500"])
def test_oracle_dim_beyond_the_ceiling_exits_2_with_one_line(capsys, monkeypatch, degree):
    from dendriform import oracle

    def no_enumeration(*args):
        raise AssertionError("oracle-dim enumerated before refusing the degree")

    monkeypatch.setattr(oracle, "quotient_dim", no_enumeration)
    code, out, err = run(capsys, "oracle-dim", "--generators", "1", "--degree", degree)
    assert code == 2 and out == ""
    assert err == "usage error: oracle-dim needs --degree at most 10\n"


@pytest.mark.parametrize("argv", [["count", "--max-degree", "0"], ["oracle-dim", "--generators", "1", "--degree", "0"]])
def test_argparse_refusals_print_the_synopsis_then_one_error_line(capsys, argv):
    # The README's refusal contract: argparse's own refusals exit 2 with
    # empty stdout, the usage synopsis and one error line; the refusals
    # written in cli print the error line alone.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: dendriform {argv[0]} ")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].startswith(f"dendriform {argv[0]}: error: argument ")


@pytest.mark.parametrize(
    "command,n,max_degree",
    [
        (("count", "--enumerate"), "2", "8"),
        (("count", "--enumerate"), "3", "7"),
        (("verify-gsb",), "1", "11"),
        (("verify-gsb",), "2", "8"),
        (("verify-gsb",), "3", "7"),
    ],
    ids=["2-8", "3-7", "verify-gsb-1-11", "verify-gsb-2-8", "verify-gsb-3-7"],
)
def test_count_enumerate_beyond_the_ceiling_exits_2_with_one_line(capsys, monkeypatch, command, n, max_degree):
    # 6,005,250, 9,044,913 and 4,868,985 normal words in all, over the
    # 836,970 over x1 through oracle-dim's degree ceiling; (10, 1), (7, 2),
    # (6, 3) and (5, 4) stay below it.
    from dendriform import oracle

    def no_work(*args):
        raise AssertionError(f"{command[0]} started work before refusing the size")

    monkeypatch.setattr(oracle, "enumerate_normal_lwords", no_work)
    for sweep in ("right_mult_sweep", "check_local_confluence", "check_named_cases"):
        monkeypatch.setattr(gsbcheck, sweep, no_work)
    code, out, err = run(capsys, command[0], "--generators", n, "--max-degree", max_degree, *command[1:])
    assert code == 2 and out == ""
    assert err == f"usage error: {' '.join(command)} needs at most 836970 normal words through --max-degree\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit before CPython 3.10.7")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command,boundary",
    [(("count",), 493), (("hilbert", "--method", "closed"), 597)],
    ids=["count", "hilbert"],
)
def test_count_and_hilbert_beyond_the_digit_limit_exit_2_with_one_line(capsys, command, boundary, fmt):
    # Under a 640-digit limit, count's largest value over x1..x3 (the normal
    # words of the top degree) has exactly 640 digits at degree 493 and
    # hilbert's (the top dimension) at 597; one degree more is refused.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = (command[0], "--generators", "3", "--format", fmt, *command[1:])
        code, out, err = run(capsys, *argv, "--max-degree", str(boundary + 1))
        assert code == 2 and out == ""
        assert err == f"usage error: {command[0]} needs values of at most 640 digits (sys.get_int_max_str_digits) through --max-degree\n"
        code, out, err = run(capsys, *argv, "--max-degree", str(boundary))
        assert code == 0 and err == "" and out
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit before CPython 3.10.7")
@pytest.mark.parametrize(
    "command,n,max_degree",
    [("count", 1, 10**7), ("hilbert", 10**4000, 3000)],
    ids=["count-degree-10^7", "hilbert-10^4000-generators"],
)
def test_far_beyond_the_digit_limit_is_refused_without_the_value(capsys, monkeypatch, command, n, max_degree):
    # Both values are at least 2^(m-1) n^m, so these are refused from the
    # bit lengths alone.  Building the exact value took 36 s for count at
    # degree 10^6 and 11 s for these hilbert arguments (2 vCPU, CPython 3.11.7).
    from dendriform import cli, series

    def refusing(value):
        def guarded(m, gens):
            if (m, gens) == (max_degree, n):
                raise AssertionError(f"{command} built the value it refuses")
            return value(m, gens)

        return guarded

    monkeypatch.setattr(cli, "count_normal_lwords", refusing(cli.count_normal_lwords))
    monkeypatch.setattr(series, "dim_closed", refusing(series.dim_closed))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, command, "--generators", str(n), "--max-degree", str(max_degree))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == f"usage error: {command} needs values of at most 4300 digits (sys.get_int_max_str_digits) through --max-degree\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text digit limit before CPython 3.10.7")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_dim_beyond_the_digit_limit_exits_2_before_eliminating(capsys, monkeypatch, fmt):
    # Under a 640-digit limit, 10^320 generators have 321 digits and the
    # 2 * 10^640 normal words of degree 2 have 641: degree 1 passes and
    # degree 2 is refused before quotient_dim runs.
    from dendriform import oracle

    calls = []
    quotient_dim = oracle.quotient_dim

    def recorded(*args):
        calls.append(args)
        return quotient_dim(*args)

    monkeypatch.setattr(oracle, "quotient_dim", recorded)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ("oracle-dim", "--generators", str(10**320), "--format", fmt, "--degree")
        code, out, err = run(capsys, *argv, "2")
        assert code == 2 and out == "" and calls == []
        assert err == "usage error: oracle-dim needs values of at most 640 digits (sys.get_int_max_str_digits) at --generators and --degree\n"
        code, out, err = run(capsys, *argv, "1")
        assert code == 0 and err == "" and str(10**320) in out and calls[0] == (1, 10**320)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("method", ["all", "recursive", "closed", "gf"])
def test_hilbert_beyond_the_degree_ceiling_exits_2_with_one_line(capsys, monkeypatch, method, fmt):
    from dendriform import series

    tables = []

    def no_table(*args):
        tables.append(args)
        return series.DimensionTable(n=args[1], rows=())

    monkeypatch.setattr(series, "dimension_table", no_table)
    argv = ("hilbert", "--generators", "1", "--method", method, "--format", fmt, "--max-degree")
    code, out, err = run(capsys, *argv, "3001")
    assert code == 2 and out == "" and tables == []
    assert err == "usage error: hilbert needs --max-degree at most 3000\n"
    code, out, err = run(capsys, *argv, "3000")
    assert code == 0 and err == "" and tables == [(3000, 1, method)]


@pytest.mark.parametrize("text", ["x1²", "x" + "9" * 5000], ids=["superscript-digit", "5000-digit-index"])
def test_bad_generator_digits_exit_2_with_one_line(capsys, text):
    code, out, err = run(capsys, "normalize", text)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("parse error: ")
    assert "Traceback" not in err


SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # About 280 kB of text and more of JSON, far past a pipe's buffer:
        # the reader stops after one line, in the middle of the output.
        (("count", "--generators", "1", "--max-degree", "600"), 1),
        (("count", "--generators", "1", "--max-degree", "600", "--format", "json"), 1),
        # One short line, left in the buffer until the flush before exit.
        (("normalize", "x1"), 0),
    ],
    ids=["text", "json", "flush"],
)
def test_closed_stdout_exits_quietly(argv, lines_read):
    proc = subprocess.Popen(
        [sys.executable, "-m", "dendriform", *argv], env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_STDOUT_CLOSED
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("--generators", "1", "--degrees", str(10**4294)),
        ("--generators", "7", "--degrees", f"{10**4299},{10**4299 - 1}"),
        ("--generators", "7", "--degrees", f"{10**4299},{10**4299 - 1}", "--format", "json"),
    ],
    ids=["4295-digits", "4300-digits-text", "4300-digits-json"],
)
def test_gk_at_degrees_near_the_digit_limit_exits_0(argv):
    # The enclosure's error bound there has more digits than Python turns
    # into text, so it must be built without a string.
    proc = subprocess.run(
        [sys.executable, "-m", "dendriform", "gk", *argv], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("E+429") == argv[3].count(",") + 1


class TestReduce:
    def test_rule1_head(self, capsys):
        code, out, _ = run(capsys, "reduce", "((x1 < x2) < x3)")
        assert code == 0
        assert out == "(x1 < (x2 < x3)) + (x1 < (x2 > x3))\n"

    def test_rule2_head(self, capsys):
        code, out, _ = run(capsys, "reduce", "((x1 < x2) > x3)")
        assert code == 0
        assert out == "-((x1 > x2) > x3) + (x1 > (x2 > x3))\n"

    def test_dd_word_unchanged(self, capsys):
        code, out, _ = run(capsys, "reduce", "(x1 > x2)")
        assert code == 0 and out == "(x1 > x2)\n"

    def test_json_terms_sorted_descending(self, capsys):
        code, out, _ = run(capsys, "reduce", "--format", "json", "((x1 < x2) < x3)")
        payload = json.loads(out)
        assert payload[0]["normal_form"]["terms"] == [
            {"coeff": "1", "word": "(x1 < (x2 < x3))"},
            {"coeff": "1", "word": "(x1 < (x2 > x3))"},
        ]


    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("bad", ["((x1 < x2) <", "x4"], ids=["unclosed", "generator-bound"])
    def test_a_bad_line_exits_2_with_empty_stdout(self, capsys, monkeypatch, fmt, bad):
        # The good line before the bad one is reduced but never printed.
        monkeypatch.setattr("sys.stdin", io.StringIO(f"((x1 < x2) < x3)\n{bad}\n(x1 > x2)\n"))
        code, out, err = run(capsys, "reduce", "--stdin", "--generators", "3", "--format", fmt)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("parse error: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_keeps_only_what_it_prints(self, capsys, monkeypatch, fmt):
        # While the k-th expression reduces, every word of the expressions
        # before the (k-1)-th, input and normal form, is already dead.  No
        # other test holds words over x7..x9.
        from dendriform import cli

        exprs = ["(((x7 < x8) < x9) < x7)", "((x8 < x9) < (x7 > x8))", "(((x9 < x7) < x8) < x9)", "((x7 < x7) > x9)"]
        expected = run(capsys, "reduce", "--format", fmt, *exprs)
        calls = []
        real = cli.normal_form

        def spy(p):
            assert all(r() is None for refs in calls[:-1] for r in refs)
            result = real(p)
            calls.append([weakref.ref(w) for w in (*p._terms, *result._terms)])
            return result

        monkeypatch.setattr(cli, "normal_form", spy)
        assert run(capsys, "reduce", "--format", fmt, *exprs) == expected
        assert len(calls) == 4 and expected[0] == 0

class TestTables:
    def test_hilbert_all_methods(self, capsys):
        code, out, _ = run(
            capsys, "hilbert", "--generators", "1", "--max-degree", "6", "--method", "all",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["dim"] for row in payload["rows"]] == [1, 2, 5, 14, 42, 132]

    def test_count_with_enumeration(self, capsys):
        code, out, _ = run(
            capsys, "count", "--generators", "2", "--max-degree", "4", "--enumerate",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[-1]["normal_lwords"] == payload[-1]["enumerated_lwords"] == 480
        assert payload[-1]["dd_words"] == payload[-1]["enumerated_dd_words"] == 224

    def test_gk_rows(self, capsys):
        code, out, _ = run(
            capsys, "gk", "--generators", "1", "--degrees", "100,1000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["degree"] for row in payload] == [100, 1000]
        assert float(payload[0]["value"]) > 5

    def test_gk_at_one_billion(self, capsys):
        code, out, _ = run(
            capsys, "gk", "--generators", "3", "--degrees", "1000000000", "--format", "json"
        )
        assert code == 0
        [row] = json.loads(out)
        d = row["degree"]
        ln_dim = math.lgamma(2 * d + 1) - math.lgamma(d + 2) - math.lgamma(d + 1) + d * math.log(3)
        assert abs(float(row["value"]) - ln_dim / math.log(d)) <= 1e-9 * (ln_dim / math.log(d))

    def test_gk_rejects_degree_below_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gk", "--generators", "1", "--degrees", "1,10")
        assert exc.value.code == 2


class TestVerification:
    def test_verify_gsb_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-gsb", "--generators", "1", "--max-degree", "4", "--named-cases"
        )
        assert code == 0
        assert "overall: ok" in out

    def test_verify_gsb_text_lists_both_kinds_when_empty(self, capsys):
        code, out, _ = run(capsys, "verify-gsb", "--generators", "1", "--max-degree", "3")
        assert code == 0
        assert out == "inclusion: 0/0 ok\nright_mult: 0/0 ok\noverall: ok\n"

    def test_verify_gsb_json_reports(self, capsys):
        code, out, _ = run(
            capsys, "verify-gsb", "--generators", "1", "--max-degree", "4", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["ok"] for r in reports)
        assert {r["kind"] for r in reports} == {"right_mult", "inclusion"}

    def test_verify_gsb_json_blocks_print_sorted(self, capsys):
        # Right multiplications, then inclusions, then the named cases: each
        # block in nondecreasing ambiguity word.
        code, out, _ = run(
            capsys, "verify-gsb", "--generators", "2", "--max-degree", "5", "--named-cases", "--format", "json"
        )
        assert code == 0
        words = [parse_lword(r["ambiguity"]) for r in json.loads(out)]
        sizes = [len(gsbcheck.right_mult_sweep(5, 2)), len(gsbcheck.check_local_confluence(5, 2)), 5]
        assert len(words) == sum(sizes)
        for start, size in zip((0, sizes[0], sizes[0] + sizes[1]), sizes):
            block = words[start : start + size]
            assert all(compare(u, v) <= 0 for u, v in zip(block, block[1:]))

    def test_verify_gsb_json_builds_each_report_dict_as_it_prints(self, monkeypatch):
        events = []
        to_json_dict = gsbcheck.CompositionReport.to_json_dict

        def recording(report):
            events.append("dict")
            return to_json_dict(report)

        class RecordingOut(io.StringIO):
            def write(self, text):
                events.append("write")
                return super().write(text)

        monkeypatch.setattr(gsbcheck.CompositionReport, "to_json_dict", recording)
        monkeypatch.setattr(sys, "stdout", RecordingOut())
        assert main(["verify-gsb", "--generators", "2", "--max-degree", "6", "--format", "json"]) == 0
        last_dict = len(events) - 1 - events[::-1].index("dict")
        assert events.index("write") < last_dict

    def test_json_printer_refuses_other_objects(self, capsys):
        from dendriform.cli import _emit_json

        with pytest.raises(TypeError, match="object is not JSON serializable"):
            _emit_json([object()])

    def test_verify_gsb_sorts_only_for_json(self, capsys, monkeypatch):
        def no_sort(report):
            raise AssertionError("reports sorted outside the JSON printer")

        monkeypatch.setattr(gsbcheck, "_report_sort_key", no_sort)
        assert gsbcheck.right_mult_sweep(5, 2) and gsbcheck.check_local_confluence(5, 2)
        assert len(gsbcheck.check_named_cases(2)) == 5
        code, out, err = run(capsys, "verify-gsb", "--generators", "2", "--max-degree", "5", "--named-cases")
        assert code == 0 and err == ""
        assert out == "inclusion: 1093/1093 ok\nright_mult: 304/304 ok\noverall: ok\n"

    def test_oracle_dim(self, capsys):
        code, out, _ = run(
            capsys, "oracle-dim", "--generators", "1", "--degree", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "agree": True,
            "closed_form": 14,
            "degree": 4,
            "n": 1,
            "n_words": 30,
            "quotient_dim": 14,
            "rank": 16,
        }

    def test_oracle_dim_refuses_the_retired_f3_flag(self, capsys):
        # F3 lies in the ideal of F1 and F2, so there are no F3 rows to add.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "oracle-dim", "--generators", "1", "--degree", "4", "--include-f3")
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --include-f3" in err

    def test_oracle_dim_enumerates_only_over_x1(self, capsys, monkeypatch):
        from dendriform import oracle

        enumerate_normal_lwords = oracle.enumerate_normal_lwords

        def x1_only(m, n):
            assert n == 1, "oracle-dim enumerated the words over n generators"
            return enumerate_normal_lwords(m, n)

        monkeypatch.setattr(oracle, "enumerate_normal_lwords", x1_only)
        code, out, _ = run(capsys, "oracle-dim", "--generators", "3", "--degree", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_words"] == 728 * 3**6
        assert payload["quotient_dim"] == payload["closed_form"] == 132 * 3**6


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "((x1 < x2) < x3)", "--format", "json"),
            ("hilbert", "--generators", "2", "--max-degree", "8", "--format", "json"),
            ("verify-gsb", "--generators", "1", "--max-degree", "4", "--format", "json"),
            ("gk", "--generators", "1", "--degrees", "100,1000", "--format", "json"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def _left_comb(degree):
    word = "x1"
    for _ in range(degree - 1):
        word = f"({word} < x1)"
    return word


# SHA-256 of stdout as printed at commit b390d16, where each rewrite step
# still re-normalized the whole spliced word.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("verify-gsb", "--generators", "1", "--max-degree", "6", "--named-cases", "--format", "json"),
            "36a1b3a0bff7b08de3fb7b8589c468946c7e1e05bc2a0632bcc108c314afe15a",
        ),
        (
            ("verify-gsb", "--generators", "2", "--max-degree", "5", "--format", "json"),
            "4a4661cdc00ec4cd75ed6e3daff8e5fc43ca31217ff9a19c87b35c98eb77ecc9",
        ),
        (
            ("reduce", "--format", "json", "((x1 < x2) < x3)", "((x1 > x2) < x3)"),
            "a158717f77c335cca84433dc43bfa772032a8270eb1f07d5d59330698782466c",
        ),
        (
            ("reduce", "--format", "json", _left_comb(10), _left_comb(11), _left_comb(12)),
            "63c3414ada022b15fcfe92b85514cbd4203638317bb20f73056cf354251c6925",
        ),
        # Recorded at commit 8b1f618, where elimination scaled every pivot
        # by Fraction(1, lead) and each context splice was re-normalized whole.
        (
            ("oracle-dim", "--generators", "1", "--degree", "5", "--format", "json"),
            "98e8c2a9f0f8c54c65392259cd128416e99f9f3cfc063664e581f932aacc6b50",
        ),
        (
            ("oracle-dim", "--generators", "2", "--degree", "4", "--format", "json"),
            "47d0edcf11a12af99f6294ab7225b7cf7c2d6e30d547a26e9becc689d68823af",
        ),
        # Recorded at commit 1f937d1, where gk took ln of the exact dimension.
        (
            ("gk", "--generators", "3", "--degrees", "2,10,1000,100000"),
            "cfa0b28eab76eebbcd9d44776cae86f5951af2f14861542ad90b28a6f384d680",
        ),
        (
            ("gk", "--generators", "3", "--degrees", "2,10,1000,100000", "--format", "json"),
            "1d1dc00e864aea0bb0a186a98fd32def069c09b922c80d38680c3fd1e3512574",
        ),
        (
            ("gk", "--generators", "1", "--degrees", "100,1000,10000"),
            "6eb750034b950e73247b6aa46b465884cf85167706258e0d2a5cb862ab733d07",
        ),
        (
            ("gk", "--generators", "1", "--degrees", "100,1000,10000", "--format", "json"),
            "98dbfac6fed7e20b95ed63459720940e9029744d98eaff8158496abc1632e6c2",
        ),
        (
            ("hilbert", "--generators", "3", "--max-degree", "200"),
            "56d9543b371136269bc038699f2a8f04a7f01bf3c5fe9268b80d8a3399af6433",
        ),
        # Recorded at commit aa14d57, where the basis sweeps ran over every
        # generator directly instead of relabeling the sweep over x1.
        (
            ("verify-gsb", "--generators", "3", "--max-degree", "5", "--named-cases", "--format", "json"),
            "3f106739a0b94e3f49f8d4e5fe36cf8914b4c08f47870b7192477adf2e6f85d3",
        ),
        # Recorded at commit 44e0ced, where quotient_dim eliminated over all
        # three generators directly and the word count enumerated them.
        (
            ("oracle-dim", "--generators", "3", "--degree", "5", "--format", "json"),
            "d32808466cfa1f7df6171e87ca182437a385bed509b148e4337e6566b4818879",
        ),
    ],
    ids=[
        "verify-6-1-named", "verify-5-2", "reduce-readme", "reduce-left-combs", "oracle-5-1", "oracle-4-2",
        "gk-3-text", "gk-3-json", "gk-readme-text", "gk-readme-json", "hilbert-3-200", "verify-5-3-named",
        "oracle-5-3",
    ],
)
def test_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAudit:
    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from dendriform import audit

        def always_fails():
            return False, {"reports": 3}

        monkeypatch.setattr(audit, "CHECKS", (always_fails,))
        code, out, _ = run(capsys, "audit")
        assert code == 1
        assert out == "FAIL always_fails  reports=3\n"
        code, out, _ = run(capsys, "audit", "--format", "json")
        assert code == 1
        assert json.loads(out) == [{"counts": {"reports": 3}, "name": "always_fails", "ok": False}]
