"""The names the benchmark's tracer rebinds and reads still exist in the package.

``bench/tracing.py`` rebinds each ``(module, name)`` of its ``BOUNDARIES``
in that module's namespace, some of them names the package keeps only for
it, and ``Tracer.summary`` reads the intern tables and ``rewrite._NF_CACHE``.
The file is read, not imported, so nothing is rebound here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def boundaries():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    [value] = [
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["BOUNDARIES"]
    ]
    return ast.literal_eval(value)


def test_every_boundary_name_is_a_callable_of_its_module():
    found = boundaries()
    assert found
    missing = [
        (module, name)
        for module, name, _ in found
        if not callable(getattr(importlib.import_module(f"dendriform.{module}"), name, None))
    ]
    assert missing == []


def test_the_tables_the_summary_reads_exist():
    terms = importlib.import_module("dendriform.terms")
    rewrite = importlib.import_module("dendriform.rewrite")
    for table in (terms._NODE_CACHE, terms._LEAF_CACHE, rewrite._NF_CACHE):
        assert isinstance(table, dict)
