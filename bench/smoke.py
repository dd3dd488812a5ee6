"""Smoke test of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 bench/smoke.py

Runs each workload at ``--size tiny`` (verify at degree 4 over one
generator, 20 reduce expressions, dimensions at (4, 1) with a 20-row table)
untraced and traced, and checks that every metric of ``BENCHMARK.json`` and
every printed-only metric appears with its unit, that the traced layers'
self times and the benchmark's directly timed own time leave little of the
traced wall time unattributed, that a corrupted recorded digest gives failed
checks and a nonzero exit, and that the benchmark refuses to run without the
package source.  The last two run on a copy of ``bench/`` in a temporary
directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PRINTED = {
    "verify": ("setup_s", "wall_s", "checks_per_s", "peak_rss_mb", "fail_share"),
    "reduce": ("setup_s", "wall_s", "exprs_per_s", "expr_p50_ms", "expr_p99_ms", "peak_rss_mb", "fail_share"),
    "dimensions": ("setup_s", "wall_s", "checks_per_s", "peak_rss_mb", "fail_share"),
}

# The worker's loops and the wrappers of its own calls are the only
# untimed code of a traced pass.
UNATTRIBUTED_SHARE = 0.01
UNATTRIBUTED_S = 0.002

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def metrics_match(result: dict, declared: list[dict]) -> bool:
    metrics = result.get("metrics", {})
    return set(metrics) == {m["name"] for m in declared} and all(
        metrics[m["name"]]["unit"] == m["unit"] and isinstance(metrics[m["name"]]["value"], (int, float))
        for m in declared
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in PRINTED:
        proc = bench(workload, 0)
        result = result_of(proc)
        check(proc.returncode == 0 and result.get("correct") is True and result.get("failed") == 0,
              f"{workload}: every output checks, exit 0")
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result has exactly its four keys")
        check(metrics_match(result, spec["end_to_end"]), f"{workload}: every end-to-end metric with its unit")
        printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()[:-2] if len(line.split()) == 3}
        check(all(name in printed for name in PRINTED[workload]), f"{workload}: prints {', '.join(PRINTED[workload])}")

        proc = bench(workload, 1)
        result = result_of(proc)
        check(proc.returncode == 0 and result.get("correct") is True, f"{workload} traced: every output checks, exit 0")
        check(metrics_match(result, spec["per_layer"]), f"{workload} traced: every per-layer metric with its unit")
        values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        wall = values.get("trace.wall_s", 0.0)
        unattributed = values.get("trace.unattributed_s", -1.0)
        check(0 <= unattributed <= UNATTRIBUTED_SHARE * wall + UNATTRIBUTED_S,
              f"{workload} traced: {unattributed:.6f} s of the traced {wall:.6f} s unattributed")

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(BENCH_DIR, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        (copy / "src").symlink_to(ROOT / "src", target_is_directory=True)
        digests = json.loads((copy / "bench" / "digests.json").read_text())
        digests["tiny"] = ["0" * 64] * len(digests["tiny"])
        (copy / "bench" / "digests.json").write_text(json.dumps(digests))
        proc = bench("reduce", 0, cwd=copy)
        result = result_of(proc)
        check(proc.returncode != 0 and result.get("correct") is False and result.get("failed", 0) > 0,
              "reduce: a corrupted recorded digest fails a check and exits nonzero")
        share = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("fail_share")]
        check(bool(share) and float(share[0]) > 0, "reduce: fail_share > 0 with a corrupted digest")

        (copy / "src").unlink()
        proc = bench("verify", 0, cwd=copy)
        check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ the benchmark exits nonzero and prints no result")

    print("smoke test passed" if not failures else f"smoke test FAILED: {len(failures)} checks")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
