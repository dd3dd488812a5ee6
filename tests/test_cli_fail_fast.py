"""Every subcommand completes or fails fast, as README "Command line" states.

One property over drawn argument vectors, run in process through
``cli.main``.  Each draw is either accepted, and then cheap, or refused.
An accepted vector must exit 0 with nothing on stderr; a refused one must
exit 2 with empty stdout and the stderr shape of its refuser: one
``usage error:`` or ``parse error:`` line from ``cli``, or argparse's usage
synopsis and then one error line.  Integers are drawn at and around each
documented boundary, and far past a boundary (10^k, up to and past the
int-to-text limit) only where refusal is the expected outcome.
"""

import io
import re
import signal
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dendriform.cli import main

FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"]])
# 10^k, as text; with k >= 4300 it has more digits than int() reads, which argparse refuses.
FAR = st.integers(5, 4301).map(lambda k: "1" + "0" * k)
NOT_POSITIVE = st.one_of(st.integers(-2, 0).map(str), st.sampled_from(["", "x", "1.5", "0x10", "1e3"]))
SWITCH = st.booleans()


def num(lo, hi):
    return st.integers(lo, hi).map(str)


def command(name, *flags):
    """Argument vectors of one subcommand from strategies of its flags' values.

    A value None leaves its flag out, and a bool one is a switch's.
    """

    def argv(values):
        fmt, *values = values
        out = [name, *fmt]
        for flag, value in zip(flags, values):
            if isinstance(value, bool):
                out += [flag] * value
            elif value is not None:
                out += [flag, value]
        return out

    def build(*strategies, refusal):
        return st.tuples(FORMATS, *strategies).map(lambda v: (argv(v), None, refusal))

    return build


def one_of_cases(build, accepted, refused):
    """Accepted and refused draws about equally often.  (A flatmap, since
    st.one_of flattens nested one_ofs and would weight each subcommand by
    its number of branches.)"""
    return st.booleans().flatmap(
        lambda refusal: st.one_of(*(build(*s, refusal=refusal) for s in (refused if refusal else accepted)))
    )


def count_cases():
    build = command("count", "--generators", "--max-degree", "--enumerate")
    enumerate_ = st.just(True)
    return one_of_cases(
        build,
        accepted=[(num(1, 3), num(1, 60), st.just(False)), (num(1, 2), num(1, 5), enumerate_)],
        refused=[
            (NOT_POSITIVE, num(1, 5), SWITCH),
            (num(1, 3), NOT_POSITIVE, SWITCH),
            (num(1, 3), FAR, st.just(False)),
            # Past the enumeration ceiling of 836,970 words.
            (st.just("1"), num(11, 13), enumerate_),
            (st.just("2"), num(8, 9), enumerate_),
            (st.just("3"), num(7, 8), enumerate_),
        ],
    )


def hilbert_cases():
    build = command("hilbert", "--generators", "--max-degree", "--method")
    methods = st.sampled_from([None, "closed", "recursive", "gf", "all"])
    return one_of_cases(
        build,
        accepted=[(num(1, 3), num(1, 100), methods)],
        refused=[
            (num(1, 3), st.one_of(num(3001, 3003), NOT_POSITIVE), methods),
            (num(1, 3), FAR, methods),
            (NOT_POSITIVE, num(1, 10), methods),
            (num(1, 3), num(1, 10), st.just("guess")),
        ],
    )


def gk_cases():
    build = command("gk", "--generators", "--degrees")
    degrees = st.lists(st.integers(2, 10**9), min_size=1, max_size=3).map(lambda ds: ",".join(map(str, ds)))
    bad_degrees = st.one_of(
        st.lists(st.integers(-1, 1), min_size=1, max_size=2).map(lambda ds: ",".join(map(str, ds))),
        st.sampled_from(["", ",", "2,x", "2.5"]),
    )
    return one_of_cases(
        build,
        accepted=[(num(1, 7), degrees)],
        refused=[(NOT_POSITIVE, degrees), (num(1, 7), bad_degrees)],
    )


def verify_gsb_cases():
    build = command("verify-gsb", "--generators", "--max-degree", "--named-cases")
    return one_of_cases(
        build,
        accepted=[(num(1, 2), num(3, 5), SWITCH), (st.just("3"), num(3, 4), SWITCH)],
        refused=[
            (num(1, 3), num(1, 2), SWITCH),
            (num(1, 3), NOT_POSITIVE, SWITCH),
            (num(1, 3), FAR, SWITCH),
            (st.just("1"), num(11, 12), SWITCH),
            (st.just("2"), num(8, 9), SWITCH),
            (NOT_POSITIVE, num(3, 4), SWITCH),
        ],
    )


def oracle_dim_cases():
    build = command("oracle-dim", "--generators", "--degree")
    # With 10^2150 generators the word count at degree 2 has 4,301 digits.
    huge_alphabet = st.integers(2150, 4299).map(lambda k: "1" + "0" * k)
    return one_of_cases(
        build,
        accepted=[(num(1, 3), num(1, 6))],
        refused=[
            (num(1, 3), st.one_of(num(11, 12), NOT_POSITIVE)),
            (num(1, 3), FAR),
            (huge_alphabet, num(2, 6)),
            (NOT_POSITIVE, num(1, 6)),
        ],
    )


@st.composite
def expressions(draw):
    """The text of a word of degree 8 or below over x1..x3, of any shape:
    leaves are pushed in order and the top two joined by drawn operations."""
    stack = []
    leaves = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    for k, i in enumerate(leaves):
        stack.append(f"x{i}")
        while len(stack) > 1 and (k == len(leaves) - 1 or draw(st.booleans())):
            right = stack.pop()
            stack[-1] = f"({stack[-1]} {draw(st.sampled_from('<>'))} {right})"
    return stack[0]


def malformed(text):
    """Texts no parse accepts, each made from a well-formed one; none is blank,
    since --stdin skips blank lines."""
    return st.sampled_from([text[:-1] if text.endswith(")") else text + ">", text + ")", "(" + text, text + " *", "x0"])


@st.composite
def rewrite_cases(draw, name):
    """normalize or reduce, with expressions of degree 8 or below as
    arguments or on stdin."""
    exprs = draw(st.lists(expressions(), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["ok", "malformed", "beyond", "bad bound", "both", "none"]))
    bound = draw(st.sampled_from([None, "3", "4"]))
    stdin = draw(st.booleans())
    if kind == "malformed":
        exprs.insert(draw(st.integers(0, len(exprs))), draw(malformed(exprs[0])))
    elif kind == "beyond":
        exprs.append("x3")
        bound = draw(st.sampled_from(["1", "2"]))
    elif kind == "bad bound":
        bound = draw(NOT_POSITIVE)
    argv = [name, *draw(FORMATS)]
    if bound is not None:
        argv += ["--generators", bound]
    if kind in ("both", "none"):
        stdin = kind == "both"
    if stdin:
        argv.append("--stdin")
    if kind == "both" or not stdin and kind != "none":
        argv += exprs
    return argv, "\n".join(exprs) + "\n" if stdin else None, kind != "ok"


OTHER_REFUSALS = st.sampled_from(
    [[], ["prove"], ["audit", "--format", "xml"], ["count", "--generators", "1"], ["gk", "--degrees", "2"]]
).map(lambda argv: (argv, None, True))

CASES = st.one_of(
    rewrite_cases("normalize"),
    rewrite_cases("reduce"),
    count_cases(),
    hilbert_cases(),
    gk_cases(),
    verify_gsb_cases(),
    oracle_dim_cases(),
    OTHER_REFUSALS,
)


def _too_slow(signum, frame):
    raise TimeoutError(f"no exit within {SECONDS_PER_RUN} s")


SECONDS_PER_RUN = 5  # every accepted draw takes milliseconds; an unbounded run is a failure


def run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(SECONDS_PER_RUN)
    try:
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            mp.setattr("sys.stdin", io.StringIO(stdin or ""))
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(CASES)
# The far ends, always: the largest value int() reads, one digit more, and
# the smallest alphabet whose degree-2 word count passes the digit limit.
@example((["count", "--generators", "1", "--max-degree", "1" + "0" * 4299], None, True))
@example((["hilbert", "--generators", "1", "--max-degree", "1" + "0" * 4300], None, True))
@example((["oracle-dim", "--generators", "1" + "0" * 2150, "--degree", "2"], None, True))
def test_every_vector_completes_or_fails_fast(case):
    argv, stdin, refusal = case
    code, out, err = run(argv, stdin)
    assert code == (2 if refusal else 0), err
    if code == 0:
        assert err == "" and out.endswith("\n")
        return
    assert out == ""
    lines = err.splitlines()
    if lines[0].startswith("usage: dendriform"):
        assert [line for line in lines if ": error: " in line] == [lines[-1]]
        assert re.match(r"dendriform( [a-z-]+)?: error: ", lines[-1])
    else:
        assert len(lines) == 1 and lines[0].startswith(("usage error: ", "parse error: "))
