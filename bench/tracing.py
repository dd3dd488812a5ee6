"""Per-layer spans for a traced benchmark pass, recorded from outside the package.

``Tracer.install`` rebinds public names in the namespace of the module that
calls them (``gsbcheck.normal_form``, ``rewrite.normalize``,
``oracle.apply_context``, ...), and the worker wraps its own calls into the
package the same way.  A wrapped call into another layer opens a span; a
call from a layer into itself opens none.  Spans are kept in memory and
reduced when the pass ends: a layer's self time is its spans' duration minus
that of their child spans.  The benchmark's own time (``bench.self_s``) is
timed directly by the worker around its output checks, and what the root
spans and that time leave of the traced wall time is reported as
``trace.unattributed_s``: the worker's loops and the wrappers of its own
calls.  It stays small only if every call into the package is recorded.

The products ``l_prec`` and ``l_succ`` are wrapped where rewrite and poly
call them (about 170,000 of the 594,757 spans of a ``verify`` pass);
their recursion inside terms opens no span.  The tree constructor ``node``,
the order ``compare`` and private helpers stay unwrapped, so their cost
counts in the calling layer's self time: ``compare`` alone would add
325,000 spans to a ``verify`` pass, each costing about as much as the
comparison it times.

Phase times (``oracle.build_s``, ``series.gk_s``, ...) are the inclusive
time of the named functions; a phase call made inside another phase is
counted in the outer one (``dim_closed`` inside ``gk_statistic`` is gk time).
"""

from __future__ import annotations

from array import array
from functools import wraps
from time import perf_counter

LAYERS = ("bench", "terms", "poly", "rewrite", "gsbcheck", "oracle", "series")

# (calling module, public name it imported or defines, layer of the callee)
BOUNDARIES = (
    ("gsbcheck", "enumerate_normal_lwords", "oracle"),
    ("gsbcheck", "leading", "poly"),
    ("gsbcheck", "mul", "poly"),
    ("gsbcheck", "find_redexes", "rewrite"),
    ("gsbcheck", "max_reducible_word", "rewrite"),
    ("gsbcheck", "normal_form", "rewrite"),
    ("gsbcheck", "rewrite_step", "rewrite"),
    ("gsbcheck", "rule_polynomial", "rewrite"),
    ("gsbcheck", "max_generator_index", "terms"),
    ("rewrite", "l_prec", "terms"),
    ("rewrite", "l_succ", "terms"),
    ("rewrite", "normalize", "terms"),
    ("rewrite", "is_normal", "terms"),
    ("rewrite", "max_generator_index", "terms"),
    ("poly", "l_prec", "terms"),
    ("poly", "l_succ", "terms"),
    ("poly", "normalize", "terms"),
    ("poly", "substitute", "terms"),
    ("poly", "format_lword", "terms"),
    ("poly", "is_normal", "terms"),
    ("poly", "count_holes", "terms"),
    ("poly", "max_generator_index", "terms"),
    ("oracle", "apply_context", "poly"),
    ("oracle", "rule_polynomial", "rewrite"),
    ("oracle", "enumerate_normal_lwords", "oracle"),
    ("oracle", "enumerate_contexts", "oracle"),
    ("oracle", "build_relation_matrix", "oracle"),
    ("oracle", "row_echelon", "oracle"),
    ("series", "f_recursive", "series"),
    ("series", "dim_closed", "series"),
    ("series", "series_from_gf", "series"),
)

PHASES = {
    "parse_lword": "terms.parse_s",
    "format_lword": "terms.format_s",
    "enumerate_normal_lwords": "oracle.enumerate_s",
    "enumerate_contexts": "oracle.enumerate_s",
    "build_relation_matrix": "oracle.build_s",
    "row_echelon": "oracle.rank_s",
    "f_recursive": "series.recursive_s",
    "dim_closed": "series.closed_s",
    "series_from_gf": "series.gf_s",
    "gk_statistic": "series.gk_s",
}

CALL_COUNTS = {
    "normalize": "terms.normalize_calls",
    "mul": "poly.mul_calls",
    "apply_context": "poly.apply_context_calls",
    "normal_form": "rewrite.normal_form_calls",
    "rewrite_step": "rewrite.rewrite_step_calls",
}


def _decimal_digits(x: int) -> int:
    x = abs(x)
    digits = max(1, int(x.bit_length() * 0.30102999566398120))  # never above the true count
    return digits + (x >= 10**digits)


def _after_normal_form(tr, result):
    tr.counts["rewrite.nf_terms_out"] += len(result)


def _after_build(tr, matrix):
    tr.counts["oracle.rows"] += len(matrix.rows)
    tr.counts["oracle.row_nonzeros"] += sum(map(len, matrix.rows))


def _after_row_echelon(tr, pivots):
    tr.counts["oracle.pivots"] += len(pivots)


def _after_sweep(tr, reports):
    for r in reports:
        tr.counts["gsbcheck.inclusion_checks" if r.kind == "inclusion" else "gsbcheck.right_mult_checks"] += 1
        tr.counts["gsbcheck.ok"] += r.ok


def _after_dim_closed(tr, dim):
    tr.counts["series.max_digits"] = max(tr.counts["series.max_digits"], _decimal_digits(dim))


AFTER = {
    "normal_form": _after_normal_form,
    "build_relation_matrix": _after_build,
    "row_echelon": _after_row_echelon,
    "right_mult_sweep": _after_sweep,
    "check_local_confluence": _after_sweep,
    "check_named_cases": _after_sweep,
    "dim_closed": _after_dim_closed,
}

COUNTS = (
    "rewrite.nf_terms_out",
    "oracle.rows",
    "oracle.row_nonzeros",
    "oracle.pivots",
    "gsbcheck.inclusion_checks",
    "gsbcheck.right_mult_checks",
    "gsbcheck.ok",
    "series.max_digits",
)


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.layers = array("b")
        self.parents = array("i")
        self.stack = [-1]  # open spans; -1 is the benchmark's own code
        self.layer = 0
        self.in_phase = False
        self.phase_s = dict.fromkeys(PHASES.values(), 0.0)
        self.calls: dict[str, list[int]] = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, layer: str, name: str, fn):
        """``fn`` as a call into ``layer``, timed and counted."""
        layer_id = LAYERS.index(layer)
        phase = PHASES.get(name)
        after = AFTER.get(name)
        calls = self.calls.setdefault(name, [0])

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[0] += 1
            timed = phase is not None and not self.in_phase
            if timed:
                self.in_phase = True
            caller = self.layer
            span = -1
            if layer_id != caller:
                span = len(self.layers)
                self.layers.append(layer_id)
                self.parents.append(self.stack[-1])
                self.starts.append(0.0)
                self.ends.append(0.0)
                self.stack.append(span)
                self.layer = layer_id
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if span >= 0:
                    self.starts[span] = t0
                    self.ends[span] = t1
                    self.stack.pop()
                    self.layer = caller
                if timed:
                    self.phase_s[phase] += t1 - t0
                    self.in_phase = False
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every boundary name in its calling module's namespace."""
        for caller, name, layer in BOUNDARIES:
            module = modules[caller]
            setattr(module, name, self.wrap(layer, name, getattr(module, name)))

    def summary(self, wall_s: float, own_s: float, terms, rewrite) -> dict[str, float]:
        """Per-layer metrics of the pass that took ``wall_s`` seconds, of
        which ``own_s`` were the benchmark's own output checks."""
        self_s = [0.0] * len(LAYERS)
        roots = 0.0
        for start, end, layer, parent in zip(self.starts, self.ends, self.layers, self.parents):
            duration = end - start
            self_s[layer] += duration
            if parent < 0:
                roots += duration
            else:
                self_s[self.layers[parent]] -= duration
        self_s[0] = own_s
        out = {f"{name}.self_s": s for name, s in zip(LAYERS, self_s)}
        out["trace.unattributed_s"] = wall_s - roots - own_s
        out.update(self.phase_s)
        for name, metric in CALL_COUNTS.items():
            out[metric] = self.calls.get(name, [0])[0]
        counts = dict(self.counts)
        checks = counts["gsbcheck.inclusion_checks"] + counts["gsbcheck.right_mult_checks"]
        ok = counts.pop("gsbcheck.ok")
        counts["gsbcheck.ok_share"] = ok / checks if checks else 0.0
        counts["oracle.pivot_share"] = counts["oracle.pivots"] / counts["oracle.rows"] if counts["oracle.rows"] else 0.0
        out.update(counts)
        out["terms.interned_nodes"] = len(terms._NODE_CACHE) + len(terms._LEAF_CACHE)
        out["rewrite.nf_cache_words"] = len(rewrite._NF_CACHE)
        out["trace.spans"] = len(self.starts)
        return out
