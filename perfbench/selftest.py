"""Self-test: every output check can fail, and the traced runs reconcile.

    python3 perfbench/selftest.py

For each workload, each expected value is corrupted on its own and then all
of them together; a short run follows each corruption.  A corruption must
make some ops fail, and corrupting everything must drive ``error_rate`` to
1.0.  Then ``run.py --trace 1`` runs briefly on each workload and every
reconciliation check it prints must hold.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])

from run import WORKLOADS  # noqa: E402
from serve import run_serve  # noqa: E402
from worker import measure  # noqa: E402

#: How each expected value is made wrong.
CORRUPTIONS = {
    "serve-query": {
        "digest": lambda expected: expected.update(digest="0" * 64),
        "added": lambda expected: expected.update(added=2),
    },
    "chase-tc": {
        "S": lambda expected: expected["S"].pop(),
    },
    "paper": {
        "consistent_with_theorem": lambda expected: expected.update(
            consistent_with_theorem=False
        ),
        "sizes": lambda expected: expected["sizes"].update(views=108),
        "supports_lemma24": lambda expected: expected.update(supports_lemma24=False),
    },
}


def corrupted_error_rate(workload: str, corrupt) -> float:
    if workload == "serve-query":
        result = run_serve(1, 0.5, corrupt=corrupt)
    else:
        result = measure(workload, 1, 0, trace=False, corrupt=corrupt)
    return result["failed"] / result["attempted"]


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        corruptions = CORRUPTIONS[workload]

        def corrupt_all(expected, corruptions=corruptions):
            for corrupt in corruptions.values():
                corrupt(expected)

        cases = dict(corruptions, all=corrupt_all)
        for key, corrupt in cases.items():
            rate = corrupted_error_rate(workload, corrupt)
            ok = rate == 1.0 if key == "all" else rate > 0
            print(f"{workload:12s} corrupt {key:24s} error_rate={rate:.3f} "
                  f"{'ok' if ok else 'FAIL'}", flush=True)
            if not ok:
                failures.append(f"{workload}: corrupting {key}")

    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "4", "--trace", "1"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = completed.stdout.splitlines()
        checks = next(
            (json.loads(l[len("reconcile "):]) for l in lines
             if l.startswith("reconcile ")),
            {"reconcile line printed": False},
        )
        correct = completed.returncode == 0 and json.loads(lines[-1])["correct"]
        checks["outputs correct"] = correct
        for name, ok in checks.items():
            print(f"{workload:12s} reconcile {name:24s} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{workload}: {name}")

    print("selftest " + ("passed" if not failures else "FAILED: " + "; ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
