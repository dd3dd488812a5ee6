"""One benchmark pass: a fresh interpreter sets up, runs one workload, checks it.

    python3 bench/worker.py --workload verify --seed 1 [--size tiny] [--trace]
                            [--setup-only]

The runner (``run.py``) starts this script once per pass, so every pass pays
interpreter start, ``import dendriform`` and input generation, and sees the
package's global caches empty, as a command-line user does on every call.
It prints one JSON object on stdout: ``first_call`` (the monotonic clock at
the first timed call into the package), ``wall_s`` (from that call until the
last output is checked), ``attempted``/``failed`` output checks, peak RSS,
the values the checks compared, and the per-layer summary of a traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"

# Every size is a fixed list of calls; only the reduce stream depends on the seed.
SIZES = {
    "full": {
        "verify": ((7, 1), (6, 2)),  # (max degree, n), as ``verify-gsb --named-cases``
        "reduce": (20, 10, 300),  # (blocks in the pool, blocks a pass, expressions a block)
        "oracle": ((7, 1), (6, 2)),  # (degree, n) for ``quotient_dim``
        "table_rows": 1000,
        "gk_degrees": (10**3, 10**4, 10**5),
    },
    "tiny": {
        "verify": ((4, 1),),
        "reduce": (4, 2, 10),
        "oracle": ((4, 1),),
        "table_rows": 20,
        "gk_degrees": (10, 100),
    },
}
GENERATORS = 3  # alphabet of the reduce stream and of the series calls

# Composition counts per call; the verify check compares every call with them.
VERIFY_COUNTS = {
    "right_mult_sweep(7,1)": 467,
    "check_local_confluence(7,1)": 3799,
    "check_named_cases(1)": 5,
    "right_mult_sweep(6,2)": 4272,
    "check_local_confluence(6,2)": 24384,
    "check_named_cases(2)": 5,
    "right_mult_sweep(4,1)": 1,
    "check_local_confluence(4,1)": 2,
}

# gk_statistic(d, 3) to its 40 significant digits.
GK_VALUES = {
    10: "8.996418413162526422660765350027733924328",
    100: "52.33234271439613838961553420938462216171",
    10**3: "358.1440609156634887326435585348961632844",
    10**4: "2696.390959170985831524886638380939241829",
    10**5: "21582.07520498806889969868078932702392384",
}


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


# --- reduce: the seeded expression stream ---------------------------------


def _gen(rng: random.Random) -> str:
    return f"x{rng.randint(1, GENERATORS)}"


def _random_tree(rng: random.Random, degree: int) -> str:
    if degree == 1:
        return _gen(rng)
    split = rng.randint(1, degree - 1)
    op = rng.choice("<>")
    return f"({_random_tree(rng, split)} {op} {_random_tree(rng, degree - split)})"


def _left_comb(rng: random.Random, degree: int) -> str:
    text = _gen(rng)
    for _ in range(degree - 1):
        text = f"({text} < {_gen(rng)})"
    return text


def _right_chain(rng: random.Random, depth: int) -> str:
    # x_a op (x_b op (... op x_z)) with generator left factors is DD-normal.
    text = _gen(rng)
    for _ in range(depth):
        text = f"({_gen(rng)} {rng.choice('<>')} {text})"
    return text


def reduce_block(size: str, index: int) -> list[tuple[str, str, int]]:
    """Block ``index`` of the pool: (kind, text, degree) triples in a fixed
    shuffled order.  Of every 100 expressions one is a ``<`` left comb
    (degrees 10, 11, 12 in turn) and two are right chains (depths spread
    evenly over 300-600); the rest are random trees of degree 6-12 in turn.
    Every block has the same mix, so every pass asks for about the same work."""
    count = SIZES[size]["reduce"][2]
    rng = random.Random(index)
    combs = max(1, count // 100)
    chains = max(1, count // 50)
    plan = [("comb", 10 + i % 3) for i in range(combs)]
    plan += [("chain", 300 + 300 * i // max(1, chains - 1)) for i in range(chains)]
    plan += [("tree", 6 + i % 7) for i in range(count - combs - chains)]
    rng.shuffle(plan)
    block = []
    for kind, degree in plan:
        if kind == "comb":
            block.append((kind, _left_comb(rng, degree), degree))
        elif kind == "chain":
            block.append((kind, _right_chain(rng, degree), degree + 1))
        else:
            block.append((kind, _random_tree(rng, degree), degree))
    return block


def reduce_blocks(size: str, seed: int) -> list[tuple[int, list]]:
    """The seed draws which blocks of the fixed pool a pass reduces, and in
    what order.  Every pool block's output digest is recorded, so every
    output is checked whatever the seed."""
    pool, picked, _ = SIZES[size]["reduce"]
    return [(i, reduce_block(size, i)) for i in random.Random(seed).sample(range(pool), picked)]


def reduce_text(api, text: str) -> str:
    """``dendriform reduce``: parse, normalize, normal form, text."""
    word = api.normalize(api.parse_lword(text, GENERATORS))
    return api.to_text(api.normal_form(api.monomial(word, n=GENERATORS)))


def block_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


# --- reduce: checks written from the basis description --------------------

_TOKEN = re.compile(r"x\d+|[<>)]")
_LEAF, _SUCC_OVER_LEAF, _OTHER = 0, 1, 2  # shapes of a parsed subword


def is_dd_basis_word(word: str) -> bool:
    """Basis words are: a generator; x < w or x > w with x a generator and w a
    basis word; or (x > w1) > w2 with x a generator and w1, w2 basis words.
    So every node's left factor is a generator, or the node is ``>`` and its
    left factor is ``x > w1``.  Parsed bottom up with a stack of shapes."""
    stack = []
    for token in _TOKEN.findall(word):
        if token == ")":
            stack.pop()  # the right factor may have any shape
            op = stack.pop()
            left = stack.pop()
            if left != _LEAF and not (op == ">" and left == _SUCC_OVER_LEAF):
                return False
            stack.append(_SUCC_OVER_LEAF if op == ">" and left == _LEAF else _OTHER)
        else:
            stack.append(_LEAF if token[0] == "x" else token)
    return len(stack) == 1


def term_words(output: str) -> list[str]:
    """Word texts of a formatted polynomial.  Words hold no '+' or '-', so
    ' + ' and ' - ' separate terms, and a coefficient ends in '*'."""
    terms = re.split(" [+-] ", output)
    return [t[t.find("*") + 1 :].lstrip("-") for t in terms]


def check_reduced(kind: str, text: str, degree: int, output: str, words: list[str]) -> bool:
    if not all(w.count("x") == degree and is_dd_basis_word(w) for w in words):
        return False
    if kind == "comb":  # the degree-d `<` left comb has 2^(d-2) normal-form terms
        return len(words) == 2 ** (degree - 2)
    if kind == "chain":  # already DD-normal, so it is its own normal form
        return output == text
    return True


# --- workloads ------------------------------------------------------------


class OwnTime:
    """Accumulates the time spent inside ``with`` blocks: the benchmark's own
    output checks, timed directly rather than inferred from the wall time."""

    total = 0.0

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self.t0


def run_verify(size, api, out, own):
    checked = failed = 0
    for max_degree, n in SIZES[size]["verify"]:
        for fn, call_args in (
            (api.right_mult_sweep, (max_degree, n)),
            (api.check_local_confluence, (max_degree, n)),
            (api.check_named_cases, (n,)),
        ):
            reports = fn(*call_args)
            with own:
                name = f"{fn.__name__}({','.join(map(str, call_args))})"
                checked += len(reports) + 1
                failed += sum(1 for r in reports if not r.ok) + (len(reports) != VERIFY_COUNTS[name])
                out["counts"][name] = len(reports)
    return checked, failed


def run_reduce(api, out, own, blocks, recorded):
    latencies = []
    outputs = []
    for _, block in blocks:
        lines = []
        for _, text, _ in block:
            t0 = time.perf_counter()
            lines.append(reduce_text(api, text))
            latencies.append(time.perf_counter() - t0)
        outputs.append(lines)
    with own:
        checked = failed = terms_out = 0
        for (index, block), lines in zip(blocks, outputs):
            for (kind, text, degree), line in zip(block, lines):
                words = term_words(line)
                terms_out += len(words)
                checked += 1
                failed += not check_reduced(kind, text, degree, line, words)
            checked += 1
            failed += index >= len(recorded) or block_digest(lines) != recorded[index]
    out.update(latencies_s=latencies, blocks=[index for index, _ in blocks], output_terms=terms_out)
    return checked, failed


def run_dimensions(size, api, out, own):
    checked = failed = 0
    for m, n in SIZES[size]["oracle"]:
        q = api.quotient_dim(m, n)
        with own:
            out["counts"][f"quotient_dim({m},{n})"] = q
            checked += 1
            failed += q != catalan(m) * n**m
    rows = SIZES[size]["table_rows"]
    table = api.dimension_table(rows, GENERATORS, "all")
    with own:
        checked += 1
        failed += len(table.rows) != rows
        for row in table.rows:
            m = row.degree
            checked += 1
            failed += (row.shapes, row.dim) != (catalan(m), catalan(m) * GENERATORS**m)
    for d in SIZES[size]["gk_degrees"]:
        value = api.gk_statistic(d, GENERATORS).value
        with own:
            # ln C(d) n^d by lgamma: building the exact binomial at d = 10^5
            # would add 0.7 s of benchmark work to the timed region.
            log_dim = math.lgamma(2 * d + 1) - 2 * math.lgamma(d + 1) - math.log(d + 1) + d * math.log(GENERATORS)
            reference = log_dim / math.log(d)
            out["counts"][f"gk_statistic({d},{GENERATORS})"] = str(value)
            checked += 1
            failed += str(value) != GK_VALUES.get(d) or abs(float(value) - reference) > 1e-9 * reference
    return checked, failed


def load_package():
    """The package's modules by layer, and the worker's own calls into the
    package: name -> (callee layer, function)."""
    sys.path.insert(0, str(SRC_DIR))
    from dendriform import gsbcheck, oracle, poly, rewrite, series, terms

    modules = {"terms": terms, "poly": poly, "rewrite": rewrite, "gsbcheck": gsbcheck, "oracle": oracle, "series": series}
    calls = {
        "right_mult_sweep": ("gsbcheck", gsbcheck.right_mult_sweep),
        "check_local_confluence": ("gsbcheck", gsbcheck.check_local_confluence),
        "check_named_cases": ("gsbcheck", gsbcheck.check_named_cases),
        "parse_lword": ("terms", terms.parse_lword),
        "normalize": ("terms", terms.normalize),
        "monomial": ("poly", poly.Polynomial.monomial),
        "to_text": ("poly", poly.Polynomial.__str__),
        "normal_form": ("rewrite", rewrite.normal_form),
        "quotient_dim": ("oracle", oracle.quotient_dim),
        "dimension_table": ("series", series.dimension_table),
        "gk_statistic": ("series", series.gk_statistic),
    }
    return modules, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify", "reduce", "dimensions"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first timed call")
    args = parser.parse_args(argv)

    modules, calls = load_package()
    recorded = blocks = None
    if args.workload == "reduce":
        recorded = json.loads(DIGESTS.read_text())[args.size]
        blocks = reduce_blocks(args.size, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(modules)
        api = SimpleNamespace(**{name: tracer.wrap(layer, name, fn) for name, (layer, fn) in calls.items()})
    else:
        api = SimpleNamespace(**{name: fn for name, (_, fn) in calls.items()})

    out = {"workload": args.workload, "seed": args.seed, "size": args.size, "counts": {}}
    out["first_call"] = time.monotonic()
    if args.setup_only:
        print(json.dumps(out))
        return 0
    own = OwnTime()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if args.workload == "verify":
        checked, failed = run_verify(args.size, api, out, own)
    elif args.workload == "reduce":
        checked, failed = run_reduce(api, out, own, blocks, recorded)
    else:
        checked, failed = run_dimensions(args.size, api, out, own)
    out["wall_s"] = time.perf_counter() - t0
    out["own_s"] = own.total
    out["cpu_s"] = time.process_time() - cpu0
    out["attempted"] = checked
    out["failed"] = failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.summary(out["wall_s"], own.total, modules["terms"], modules["rewrite"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
