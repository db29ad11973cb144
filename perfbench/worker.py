"""Run one in-process workload in this (fresh) process; print a JSON result.

    python3 perfbench/worker.py --workload chase-tc --seed 1 --seconds 10 [--trace] [--setup-only]

Set-up is imports, input generation and one warm-up op.  ``--setup-only``
stops there and reports when the first timed op would have started.
Otherwise ops run back to back until ``--seconds`` have passed, each output
checked after its op's clock stops.  ``--trace`` installs the span wrappers
of :mod:`tracing` before the warm-up and records every timed op.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from tracing import CLOCK, Recorder, install_query_and_engine
from workloads import IN_PROCESS


def _checked(state, output) -> bool:
    try:
        return bool(state.check(output))
    except Exception:  # a check that cannot even read the output fails it
        return False


def _fire_seconds(output) -> float:
    """Summed ``fire_seconds`` of a ChaseResult's stages (0 for other outputs)."""
    stats = getattr(output, "stats", None)
    if stats is None:
        return 0.0
    return sum(stage.fire_seconds for stage in stats.stages)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_only: bool = False, corrupt=None) -> dict:
    state = IN_PROCESS[workload](seed)
    if corrupt is not None:
        corrupt(state.expected)
    recorder = None
    if trace:
        recorder = Recorder()
        install_query_and_engine(recorder)
    state.op()  # warm-up: lazy imports, module caches
    first_op_at = CLOCK()
    if setup_only:
        return {"first_op_at": first_op_at}

    latencies = []
    failed = 0
    fire_seconds = 0.0
    cpu_start = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        began = time.perf_counter()
        frame = recorder.begin_op() if recorder is not None else None
        try:
            output = state.op()
            ok = True
        except Exception:
            output, ok = None, False
        finally:
            if frame is not None:
                recorder.end_op(frame)
        ended = time.perf_counter()
        latencies.append(ended - began)
        if not (ok and _checked(state, output)):
            failed += 1
        fire_seconds += _fire_seconds(output)
        if ended >= deadline:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    result = {
        "first_op_at": first_op_at,
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "wall": wall,
        "cpu": cpu,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result["trace"] = {
            "ops": [record.as_dict() for record in recorder.ops],
            "fire_seconds": fire_seconds,
            "context_plans_compiled": sum(
                context.plans_compiled - first
                for context, first in recorder.contexts.values()
            ),
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IN_PROCESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = measure(
        args.workload, args.seed, args.seconds, args.trace, args.setup_only
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
