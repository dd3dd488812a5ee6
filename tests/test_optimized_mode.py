"""Checks that guard results must still fire under ``python -O``.

``-O`` strips ``assert`` statements, so no ``assert`` may appear in the
package, each check below is forced to fail inside an optimized interpreter
and must raise its named exception there, and the full audit must pass there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dendriform import audit

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

PRELUDE = """
import sys
from fractions import Fraction
if not sys.flags.optimize:
    sys.exit("not running under -O")

def expect(exc_type, func, *args):
    try:
        func(*args)
    except exc_type as exc:
        print(type(exc).__name__)
    else:
        print("no exception")
"""

FORCED_FAILURES = {
    "admission": (
        """
from dendriform.gsbcheck import check_right_mult
from dendriform.rewrite import RuleId, find_redexes, rewrite_step, rule_polynomial
from dendriform.terms import PREC, generator, hole, node, parse_lword
x1, x2, x3 = generator(1), generator(2), generator(3)
expect(ValueError, rule_polynomial, RuleId.F1, (hole(), x1, x2))
expect(ValueError, check_right_mult, RuleId.F2, (hole(), x1, x2), x1)
for w in (parse_lword("(((x1 < x2) < x3) > ((x1 > x2) < x3))"), node(PREC, node(PREC, x1, x2), hole())):
    expect(ValueError, rewrite_step, w, find_redexes(w)[0])
""",
        ["ValueError"] * 4,
    ),
    "hole_path_operation": (
        """
from dendriform.poly import Polynomial, apply_context
from dendriform.terms import PREC, generator, l_prec
x1 = generator(1)
for op in (l_prec, "<", None):
    for p in (Polynomial.monomial(x1), Polynomial.zero(1)):
        expect(ValueError, apply_context, ((PREC, True, x1), (op, False, x1)), p)
""",
        ["ValueError"] * 6,
    ),
    "rewrite_descent": (
        """
from dendriform import rewrite
from dendriform.terms import generator, l_prec
x = generator(1)
w = l_prec(l_prec(x, x), x)
rewrite.compare = lambda u, v: 0  # every produced word now ties with w
expect(rewrite.RewriteOrderError, rewrite.rewrite_step, w, rewrite.find_redexes(w)[0])
""",
        ["RewriteOrderError"],
    ),
    "series_checks": (
        """
from dendriform import series
from dendriform.cli import main
expect(RuntimeError, series._as_count, Fraction(1, 2))
expect(RuntimeError, series._as_count, Fraction(-1))
series._sqrt_one_minus_4nt = lambda m, n: [Fraction(2)] * (m + 1)  # does not vanish at t = 0
expect(RuntimeError, series.series_from_gf, 4, 1)
expect(RuntimeError, series.abc_series, 4, 1)
print(main(["hilbert", "--generators", "1", "--max-degree", "4", "--method", "gf"]))
""",
        ["RuntimeError"] * 4 + ["1"],
    ),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_check_raises_under_optimize(case):
    body, expected = FORCED_FAILURES[case]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + body], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def test_no_assert_in_package():
    found = [
        f"{path.name}:{stmt.lineno}"
        for path in sorted((SRC / "dendriform").glob("*.py"))
        for stmt in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(stmt, ast.Assert)
    ]
    assert found == []


def test_audit_passes_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "dendriform", "audit", "--format", "json"],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert all(r["ok"] for r in results)
    assert [r["name"] for r in results] == [check.__name__ for check in audit.CHECKS]
