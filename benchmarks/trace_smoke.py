"""Instrumented chase smoke: trace a chain chase, then audit the trace.

Run directly (CI's bench-smoke job does, uploading the traces as artifacts):

    PYTHONPATH=src python benchmarks/trace_smoke.py [trace.jsonl]

The script enables tracing and metrics, chases the transitive closure of a
chain, then closes the trace and checks it from the *outside* — the
summarizer's per-stage counts folded out of the JSONL file must equal both
the :class:`~repro.obs.report.ChaseRunStats` attached to the result and the
chase report itself (``len(result.provenance)`` fired triggers).  A span
left unclosed, a stage line dropped, or a count drifting between the three
ledgers fails the job.

A second traced run repeats the same chase with ``workers=2`` and audits
the shared-memory transport: the parallel trace (written next to the first,
``<stem>-parallel.jsonl``) must carry ``parallel.shm.attach`` events whose
byte total is positive — the posting columns were mapped in place, not
pickled — while the per-stage ``parallel.worker`` control messages stay
small, and the parallel result must be atom-for-atom identical to the
serial one.

A third traced run arms the fault injector (one worker crash mid-stage)
under supervision and audits the fault ledger: the run must stay
bit-identical to serial, and the ``parallel.fault.*`` / ``parallel.retry``
/ ``parallel.degrade`` event counts folded out of the trace must equal the
``ChaseRunStats.faults`` ledger — the two accountings are incremented by
the same code paths and must never drift.
"""

import os
import sys

from repro.chase import parse_tgds
from repro.core.builders import structure_from_text
from repro.engine import ResilienceConfig, run_chase
from repro.testing.faults import Fault, FaultPlan, clear_fault_plan, install_fault_plan
from repro.obs import (
    disable,
    disable_tracing,
    enable,
    enable_tracing,
    snapshot,
    summarize_trace,
)

CHAIN_LENGTH = 40
RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")


def _audit_serial(trace_path: str):
    tgds = parse_tgds(*RULES)
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(CHAIN_LENGTH))
    )
    enable()
    enable_tracing(trace_path)
    try:
        result = run_chase(tgds, instance, 200, 500_000)
        metrics = snapshot()
    finally:
        disable_tracing()
        disable()

    assert result.reached_fixpoint
    stats = result.stats
    assert stats is not None, "instrumented run must attach ChaseRunStats"
    summary = summarize_trace(trace_path)

    fired = len(result.provenance)
    checks = {
        "summarizer fired": (summary.fired, fired),
        "stats fired": (stats.fired, fired),
        "metrics fired": (metrics["engine.triggers_fired"], fired),
        "summarizer stages": (summary.stages, stats.stages_run),
        "summarizer new_atoms": (summary.new_atoms, stats.new_atoms),
        "summarizer candidates": (summary.candidates, stats.candidates),
        "summarizer nulls": (summary.nulls_created, stats.nulls_created),
        "trace well-formed": (summary.malformed, 0),
    }
    print(summary.render())
    print()
    print(stats.render())
    return result, checks


def _audit_parallel(trace_path: str, serial_result):
    """Trace a ``workers=2`` run and audit the shared-memory ledger."""
    tgds = parse_tgds(*RULES)
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(CHAIN_LENGTH))
    )
    enable_tracing(trace_path)
    try:
        result = run_chase(tgds, instance, 200, 500_000, workers=2)
    finally:
        disable_tracing()

    summary = summarize_trace(trace_path)
    checks = {
        "parallel bit-identity": (
            result.structure.atoms() == serial_result.structure.atoms(),
            True,
        ),
        "parallel trace well-formed": (summary.malformed, 0),
        "parallel.worker events traced": (
            summary.events.get("parallel.worker", 0) > 0,
            True,
        ),
        # The zero-copy ledger: segments were allocated and columns attached
        # in place (positive shm bytes).  The per-stage byte *reduction*
        # claim lives in E18, which measures it against a pickled baseline;
        # here the audit only pins that the ledger events actually flow.
        "parallel.shm.attach events traced": (
            summary.events.get("parallel.shm.attach", 0) > 0,
            True,
        ),
        "shm bytes attached in place": (summary.shm_attached_bytes > 0, True),
        "shm segments allocated": (summary.shm_grown_bytes > 0, True),
    }
    print()
    print(summary.render())
    return checks


def _audit_faulted(trace_path: str, serial_result):
    """Trace a supervised run with an injected crash; reconcile the ledgers."""
    tgds = parse_tgds(*RULES)
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(CHAIN_LENGTH))
    )
    install_fault_plan(
        FaultPlan(faults=[Fault(kind="crash", stage=2, worker=0, task=0)])
    )
    enable_tracing(trace_path)
    try:
        result = run_chase(
            tgds, instance, 200, 500_000, workers=2,
            resilience=ResilienceConfig(stage_deadline=10.0, max_retries=2),
        )
    finally:
        disable_tracing()
        clear_fault_plan()

    summary = summarize_trace(trace_path)
    checks = {
        "faulted bit-identity": (
            result.structure.atoms() == serial_result.structure.atoms(),
            True,
        ),
        "faulted trace well-formed": (summary.malformed, 0),
        "fault injected": (result.stats.faults.get("injected", 0), 1),
        "fault detected": (result.stats.faults.get("detected", 0), 1),
        # The reconciliation claim itself: trace events == run-stats ledger.
        "trace ledger == stats ledger": (summary.faults, result.stats.faults),
    }
    print()
    print(summary.render())
    print()
    print(result.stats.render())
    return checks


def main(trace_path: str = "chase-trace.jsonl") -> int:
    serial_result, checks = _audit_serial(trace_path)

    stem, extension = os.path.splitext(trace_path)
    parallel_trace_path = f"{stem}-parallel{extension or '.jsonl'}"
    checks.update(_audit_parallel(parallel_trace_path, serial_result))

    faulted_trace_path = f"{stem}-faulted{extension or '.jsonl'}"
    checks.update(_audit_faulted(faulted_trace_path, serial_result))

    failures = [
        f"{label}: {got!r} != {want!r}"
        for label, (got, want) in checks.items()
        if got != want
    ]
    if failures:
        print("\nTRACE AUDIT FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    fired = len(serial_result.provenance)
    print(
        f"\ntrace audit OK: {fired} fired triggers, the workers=2 shm "
        f"ledger and the fault ledger accounted for -> {trace_path}, "
        f"{parallel_trace_path}, {faulted_trace_path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
