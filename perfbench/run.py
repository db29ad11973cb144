"""The repository benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload serve-query --seed 1 --seconds 10 --trace 0

Run from a checkout root that holds ``src/repro``.  Each workload runs in
fresh processes.  ``--trace 0`` measures the end-to-end metrics and sets up
:data:`SETUP_RUNS` times to report the median set-up time.  ``--trace 1``
makes one untraced and one traced measurement, each half of ``--seconds``
long, and reports the per-layer metrics, ``trace.coverage`` and ``trace.overhead``.

Earlier lines of standard output carry the stamp (commit, Python, CPUs,
seed, op count), the layer table and the reconciliation checks.  The last
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import report
from tracing import CLOCK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve-query", "chase-tc", "paper")
#: Set-ups per ``--trace 0`` invocation; ``setup_s`` is their median.
SETUP_RUNS = 5


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for *trace*."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def source_commit() -> dict:
    """The git commit when there is one, and a digest of the sources always."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def stamp(args, attempted: int) -> dict:
    return {
        **source_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
    }


def run_worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """One in-process workload run in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), *flags,
    ]
    spawned_at = CLOCK()
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker failed ({completed.returncode}): {completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("first_op_at") - spawned_at
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool = False,
            setup_only: bool = False) -> dict:
    if workload == "serve-query":
        from serve import run_serve  # imports repro: needs SRC on sys.path

        return run_serve(seed, seconds, traced=traced, setup_only=setup_only)
    flags = (["--trace"] if traced else []) + (["--setup-only"] if setup_only else [])
    return run_worker(workload, seed, seconds, *flags)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )

    if args.trace:
        # Untraced then traced, half the time each: trace.overhead compares them.
        result = measure(args.workload, args.seed, args.seconds / 2)
        traced = measure(args.workload, args.seed, args.seconds / 2, traced=True)
        metrics = report.per_layer(traced, result)
        for line in report.layer_table(traced["trace"]["ops"]):
            print(line)
        checks = report.reconcile(args.workload, traced, metrics)
        print("reconcile " + json.dumps(checks))
        attempted = result["attempted"] + traced["attempted"]
        failed = result["failed"] + traced["failed"]
    else:
        result = measure(args.workload, args.seed, args.seconds)
        setups = [result["setup_s"]] + [
            measure(args.workload, args.seed, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        metrics = report.end_to_end(result, setups)
        attempted, failed = result["attempted"], result["failed"]
        info = {
            "error_rate": failed / attempted,
            "setup_samples_s": setups,
        }
        if attempted >= 200:
            info["latency_p95_ms"] = report.latency_p95_ms(result)
        print("info " + json.dumps(info))
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )
    print("stamp " + json.dumps(stamp(args, attempted)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
