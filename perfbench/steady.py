"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workload W ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs), one run at a time,
and for every end-to-end metric prints the median and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  ``--out`` writes the raw values, spreads
and stamps as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    lines = completed.stdout.strip().splitlines()
    stamp = next(json.loads(l[6:]) for l in lines if l.startswith("stamp "))
    return {"stamp": stamp, "result": json.loads(lines[-1])}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workload or WORKLOADS:
        runs = [
            one_run(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        names = list(runs[0]["result"]["metrics"])
        summary = {}
        for name in names:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            summary[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
            print(f"{workload:12s} {name:16s} median={summary[name]['median']:10.4f} "
                  f"spread={summary[name]['spread']:.4f}", flush=True)
        report[workload] = {
            "metrics": summary,
            "all_correct": all(run["result"]["correct"] for run in runs),
            "stamps": [run["stamp"] for run in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
