"""Command-line front end.

Subcommands: normalize, reduce, count, hilbert, gk, verify-gsb, oracle-dim,
audit.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error (oracle-dim refuses a degree above 10, hilbert one above 3000,
count --enumerate and verify-gsb more normal words in all than the 836,970
over one generator through degree 10, and count, hilbert and oracle-dim a
value with more digits than the interpreter's int-to-text limit,
sys.get_int_max_str_digits), 141 when the reader closes stdout before the
output ends (``dendriform count ... | head -1``), with nothing on stderr.
Output is deterministic: identical arguments produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate, islice

from . import audit, gsbcheck, oracle, series
from .poly import Polynomial
from .rewrite import normal_form
from .terms import ParseError, count_normal_lwords, normalize, parse_lword

EXIT_STDOUT_CLOSED = 141  # what a shell reports for a process killed by SIGPIPE


def _json_default(obj):
    # A composition report becomes its dict only when the encoder reaches
    # it, so verify-gsb never holds the dicts of all its reports at once.
    if isinstance(obj, gsbcheck.CompositionReport):
        return obj.to_json_dict()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(payload) -> None:
    # Written chunk by chunk: the same bytes as printing json.dumps, without
    # holding the whole text (168 MB for verify-gsb at degree 7 over two
    # generators) in memory.
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=_json_default).iterencode(payload)
    while text := "".join(islice(chunks, 1 << 16)):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _read_expressions(args) -> list[str]:
    if args.stdin and args.expressions:
        raise _UsageError("give expressions either as arguments or on stdin, not both")
    if args.stdin:
        lines = [line.strip() for line in sys.stdin]
        exprs = [line for line in lines if line]
    else:
        exprs = list(args.expressions)
    if not exprs:
        raise _UsageError("no input expressions")
    return exprs


class _UsageError(Exception):
    pass


def _cmd_normalize(args) -> int:
    results = []
    for text in _read_expressions(args):
        word = normalize(parse_lword(text, args.generators))
        results.append({"input": text, "normal": str(word)})
    if args.format == "json":
        _emit_json(results)
    else:
        for row in results:
            print(row["normal"])
    return 0


def _cmd_reduce(args) -> int:
    # Nothing prints until every line has reduced, so a bad line exits 2
    # with empty stdout; only the printed form of each result is kept, so
    # its words, and their normal forms, die as the run goes.
    results = []
    for text in _read_expressions(args):
        word = normalize(parse_lword(text, args.generators))
        reduced = normal_form(Polynomial.monomial(word, n=args.generators))
        if args.format == "json":
            results.append({"input": text, "normal_form": reduced.to_json_dict()})
        else:
            results.append(str(reduced))
    if args.format == "json":
        _emit_json(results)
    else:
        for line in results:
            print(line)
    return 0


_ORACLE_MAX_DEGREE = 10  # (10, 1): 690,690 words, 2,368,080 rows; n >= 2 costs what n = 1 does


def _refuse_more_words_than_the_oracle(command: str, args) -> None:
    """Refuse a run over every normal word through --max-degree over n
    generators when there are more of them than oracle-dim's words over x1
    through its ceiling (count --enumerate visits each word; verify-gsb
    makes about one report per word)."""
    ceiling = sum(count_normal_lwords(m, 1) for m in range(1, _ORACLE_MAX_DEGREE + 1))
    sizes = accumulate(count_normal_lwords(m, args.generators) for m in range(1, args.max_degree + 1))
    if any(size > ceiling for size in sizes):
        raise _UsageError(f"{command} needs at most {ceiling} normal words through --max-degree")


def _refuse_more_digits_than_str_allows(command: str, largest, m: int, n: int, flags: str = "through --max-degree") -> None:
    """Refuse, before any work, a run whose largest printed value, largest(m, n),
    has more digits than str() turns into text (a limit of 0, or none before
    CPython 3.10.7, is unlimited).  That value is at least 2^(m-1) n^m >=
    2^bits and log10(2) > 3/10, so 3 bits >= 10 limit refuses it unbuilt."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = m - 1 + m * (n.bit_length() - 1)
    if limit and (3 * bits >= 10 * limit or largest(m, n) >= 10**limit):
        raise _UsageError(f"{command} needs values of at most {limit} digits (sys.get_int_max_str_digits) {flags}")


def _cmd_count(args) -> int:
    if args.enumerate:
        _refuse_more_words_than_the_oracle("count --enumerate", args)
    _refuse_more_digits_than_str_allows("count", count_normal_lwords, args.max_degree, args.generators)
    rows = []
    mismatch = False
    for m in range(1, args.max_degree + 1):
        lwords = count_normal_lwords(m, args.generators)
        dd = series.dim_closed(m, args.generators)
        row = {"degree": m, "normal_lwords": lwords, "dd_words": dd}
        if args.enumerate:
            enum_l = len(oracle.enumerate_normal_lwords(m, args.generators))
            enum_dd = len(oracle.enumerate_dd_words(m, args.generators))
            row["enumerated_lwords"] = enum_l
            row["enumerated_dd_words"] = enum_dd
            if enum_l != lwords or enum_dd != dd:
                mismatch = True
        rows.append(row)
    if args.format == "json":
        _emit_json(rows)
    else:
        for row in rows:
            extra = ""
            if args.enumerate:
                extra = f"  enumerated {row['enumerated_lwords']}/{row['enumerated_dd_words']}"
            print(f"degree {row['degree']:>2}  normal words {row['normal_lwords']:>12}  dd words {row['dd_words']:>12}{extra}")
    if mismatch:
        print("count mismatch between closed form and enumeration", file=sys.stderr)
        return 1
    return 0


# hilbert's default --method all is as slow as its recursive column, whose
# convolution of ever longer integers grows about as the 3.5th power of
# --max-degree.  Measured over x1 (2 vCPU, CPython 3.11.7), the recursive
# column took 0.7, 4.4, 18.9 and 66 s through degree 1000, 2000, 3000 and
# 4000, the closed one 0.2, 0.6, 1.7 and 4.5 s, the gf one at most 0.6 s.
# Through 3000 --method all took 20.5 s over x1 and 24.2 s over x1..x6, the
# largest alphabet whose values at 3000 pass the int-to-text limit.
_HILBERT_MAX_DEGREE = 3000


def _cmd_hilbert(args) -> int:
    if args.max_degree > _HILBERT_MAX_DEGREE:
        raise _UsageError(f"hilbert needs --max-degree at most {_HILBERT_MAX_DEGREE}")
    _refuse_more_digits_than_str_allows("hilbert", series.dim_closed, args.max_degree, args.generators)
    try:
        table = series.dimension_table(args.max_degree, args.generators, args.method)
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = table.to_json_dict()
        payload["method"] = args.method
        _emit_json(payload)
    else:
        for row in table.rows:
            print(f"degree {row.degree:>2}  shapes {row.shapes:>14}  dim {row.dim:>18}")
    return 0


def _cmd_gk(args) -> int:
    rows = [series.gk_statistic(d, args.generators) for d in args.degrees]
    if args.format == "json":
        _emit_json([{"degree": s.degree, "value": str(s.value)} for s in rows])
    else:
        for s in rows:
            print(f"degree {s.degree:>8}  log-dim/log-degree {s.value}")
    return 0


def _cmd_verify_gsb(args) -> int:
    if args.max_degree < 3:
        raise _UsageError("verification needs --max-degree at least 3")
    _refuse_more_words_than_the_oracle("verify-gsb", args)
    blocks = [
        gsbcheck.right_mult_sweep(args.max_degree, args.generators),
        gsbcheck.check_local_confluence(args.max_degree, args.generators),
    ]
    if args.named_cases:
        blocks.append(gsbcheck.check_named_cases(args.generators))
    reports = [r for block in blocks for r in block]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _emit_json([r for block in blocks for r in sorted(block, key=gsbcheck._report_sort_key)])
    else:
        for kind in ("inclusion", "right_mult"):
            group = [r for r in reports if r.kind == kind]
            print(f"{kind}: {sum(r.ok for r in group)}/{len(group)} ok")
        for r in reports:
            if not r.ok:
                print(f"FAIL {r.kind} at {r.ambiguity_word}: residual {r.residual}")
        print(f"overall: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_oracle_dim(args) -> int:
    m, n = args.degree, args.generators
    if m > _ORACLE_MAX_DEGREE:
        raise _UsageError(f"oracle-dim needs --degree at most {_ORACLE_MAX_DEGREE}")
    # The word count bounds every printed value: the rank, the quotient and
    # the closed form are at most it.
    _refuse_more_digits_than_str_allows("oracle-dim", count_normal_lwords, m, n, "at --generators and --degree")
    n_words = count_normal_lwords(m, n)
    quotient = oracle.quotient_dim(m, n)
    rank = n_words - quotient
    closed = series.dim_closed(m, n)
    payload = {
        "degree": m,
        "n": n,
        "n_words": n_words,
        "rank": rank,
        "quotient_dim": quotient,
        "closed_form": closed,
        "agree": quotient == closed,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(
            f"degree {m}  words {n_words}  rank {rank}  quotient {quotient}"
            f"  closed form {closed}  agree {payload['agree']}"
        )
    return 0 if payload["agree"] else 1


def _cmd_audit(args) -> int:
    results = []
    for check in audit.CHECKS:
        ok, counts = check()
        results.append({"name": check.__name__, "ok": ok, "counts": counts})
    if args.format == "json":
        _emit_json(results)
    else:
        for r in results:
            counts = "".join(f"  {key}={value}" for key, value in r["counts"].items())
            print(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}{counts}")
    return 0 if all(r["ok"] for r in results) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _degree_list(text: str) -> list[int]:
    try:
        degrees = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not degrees or any(d < 2 for d in degrees):
        raise argparse.ArgumentTypeError("degrees must be integers >= 2")
    return degrees


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(prog="dendriform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("normalize", _cmd_normalize, "rewrite expressions into the normal-word basis"),
        ("reduce", _cmd_reduce, "reduce expressions to dendriform normal form"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("expressions", nargs="*", help="expressions like '((x1 > x2) < x3)'")
        p.add_argument("--stdin", action="store_true", help="read one expression per line")
        p.add_argument("--generators", type=_positive_int, default=None, help="alphabet size bound")
        p.set_defaults(func=func)

    p = sub.add_parser("count", parents=[common], help="count normal words and dd words per degree")
    p.add_argument("--generators", type=_positive_int, required=True)
    p.add_argument("--max-degree", type=_positive_int, required=True)
    p.add_argument("--enumerate", action="store_true", help="cross-check counts by enumeration")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hilbert", parents=[common], help="graded dimension table")
    p.add_argument("--generators", type=_positive_int, required=True)
    p.add_argument("--max-degree", type=_positive_int, required=True)
    p.add_argument("--method", choices=series._METHODS, default="all")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("gk", parents=[common], help="growth statistic log dim / log degree")
    p.add_argument("--generators", type=_positive_int, required=True)
    p.add_argument("--degrees", type=_degree_list, required=True, help="comma-separated degrees")
    p.set_defaults(func=_cmd_gk)

    p = sub.add_parser("verify-gsb", parents=[common], help="verify the rewriting basis at bounded degree")
    p.add_argument("--generators", type=_positive_int, required=True)
    p.add_argument("--max-degree", type=_positive_int, required=True)
    p.add_argument("--named-cases", action="store_true", help="also check the three named overlap shapes")
    p.set_defaults(func=_cmd_verify_gsb)

    p = sub.add_parser("oracle-dim", parents=[common], help="quotient dimension by exact elimination")
    p.add_argument("--generators", type=_positive_int, required=True)
    p.add_argument("--degree", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_oracle_dim)

    p = sub.add_parser("audit", parents=[common], help="run every acceptance check of the paper's claims")
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``dendriform count ... | head -1``).
        # What is left of the output, the flush at exit included, goes to
        # the null device, so nothing raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
