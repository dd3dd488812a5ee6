"""Benchmark of the dendriform pipeline, one workload per invocation.

    python3 bench/run.py --workload {verify,reduce,dimensions} --seed N
                         --seconds S --trace {0,1} [--size tiny]

Each pass runs in a fresh ``worker.py`` process, one at a time, so every pass
pays what a command-line user pays on every call: interpreter start,
``import dendriform``, input generation and cold package caches.  Passes
repeat until the next one would end after ``--seconds``, and each metric is
the median over them.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall time, plus the
tracing overhead.  Every output is checked; the last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and
the exit code is 1 when a check failed.  Workloads, metric names and units
come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
PASS_ENV = dict(os.environ, PYTHONHASHSEED="0")
RUN_LIMIT_S = 170  # every run ends within 180 s, whatever --seconds says
SETUP_PROBES = 8  # extra set-ups per untraced run; set-up is short and jittery
MIN_PASSES = 2  # per untraced run, even when a pass outlasts half of --seconds

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


class PassError(RuntimeError):
    pass


def run_pass(args, run_start: float, *, traced=False, setup_only=False) -> dict:
    """One worker process; returns its JSON with ``setup_s`` and ``elapsed_s`` added."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    timeout = run_start + RUN_LIMIT_S - time.monotonic()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1), env=PASS_ENV, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassError(f"a pass did not finish within the {RUN_LIMIT_S} s limit of a run")
    ended = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_call"] - spawned
    result["elapsed_s"] = ended - spawned
    return result


def run_passes(args, run_start: float, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes, until the next would end after the deadline."""
    runs: dict[bool, list[dict]] = {False: [], True: []}
    modes = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    least = 1 if args.trace else MIN_PASSES
    for traced in modes:
        done = runs[traced]
        if len(done) >= least and time.monotonic() + max(r["elapsed_s"] for r in done) > deadline:
            break
        done.append(run_pass(args, run_start, traced=traced))
    return runs[False], runs[True]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    run_start = time.monotonic()
    if not (ROOT / "src" / "dendriform" / "__init__.py").is_file():
        print(f"no dendriform package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = run_start + min(args.seconds, RUN_LIMIT_S)
    try:
        run_pass(args, run_start, setup_only=True)  # byte-compiles the package; not counted
        probes = [] if args.trace else [run_pass(args, run_start, setup_only=True) for _ in range(SETUP_PROBES)]
        untraced, traced = run_passes(args, run_start, deadline)
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 2

    med = statistics.median
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "process_model": "every pass and set-up probe is a cold fresh worker process, one at a time",
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "counts": untraced[0]["counts"],
        # CPU time below wall time means the machine lent the CPU to others.
        "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced], "traced": [p["wall_s"] for p in traced]},
        "pass_cpu_s": {"untraced": [p["cpu_s"] for p in untraced], "traced": [p["cpu_s"] for p in traced]},
    }
    if args.workload == "reduce":
        record.update(blocks=untraced[0]["blocks"], output_terms=untraced[0]["output_terms"])

    walls = [p["wall_s"] for p in untraced]
    printed_only = {}
    if args.trace:
        rep = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(rep["layers"], **{"trace.wall_s": rep["wall_s"], "trace.overhead_s": rep["wall_s"] - med(walls)})
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]}
        record["samples"] = {"per_layer": 1, "untraced_wall_s": len(untraced)}
        record["trace_spans"] = rep["layers"]["trace.spans"]
    else:
        setups = [p["setup_s"] for p in probes + untraced]
        metrics = {
            "setup_s": (med(setups), "s"),
            "wall_s": (med(walls), "s"),
            # every pass checks the same outputs, so this is wall_s as a rate
            "checks_per_s": (untraced[0]["attempted"] / med(walls), "1/s"),
            "peak_rss_mb": (med([p["peak_rss_mb"] for p in untraced]), "MB"),
        }
        record["samples"] = {"setup_s": len(setups), "wall_s": len(walls), "checks_per_s": len(walls), "peak_rss_mb": len(walls)}
        # BENCHMARK.json gates metrics that every workload has and that are
        # never 0; these are printed and recorded only.
        printed_only["fail_share"] = (failed / attempted, "share")
        if args.workload == "reduce":
            lat = [p["latencies_s"] for p in untraced]
            printed_only["exprs_per_s"] = (med([len(x) / p["wall_s"] for x, p in zip(lat, untraced)]), "1/s")
            printed_only["expr_p50_ms"] = (med([1e3 * statistics.median(x) for x in lat]), "ms")
            printed_only["expr_p99_ms"] = (med([1e3 * statistics.quantiles(x, n=100)[98] for x in lat]), "ms")
            for name in ("exprs_per_s", "expr_p50_ms", "expr_p99_ms"):
                record["samples"][name] = f"{len(lat)} passes x {len(lat[0])} expressions"

    for name, (value, unit) in {**metrics, **printed_only}.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
