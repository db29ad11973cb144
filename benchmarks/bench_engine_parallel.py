"""E18: parallel batch trigger discovery vs serial — perf trajectory as JSON.

Each row printed here is a single JSON object (like E16/E17), collected
across commits into ``benchmarks/trajectory/``:

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_parallel.py \
        --benchmark-disable -q -s | grep '"experiment": "E18"'

Workloads come from :mod:`workloads` — wide rule sets (many independent
TGDs) in four join shapes (chain / hub / clique / skewed-mix), the shape
the ROADMAP (c) pool exists for: discovery dominates and the serial
merge/decode tail stays small.  Three things are asserted:

* **divergence fails the job** — on every machine, the parallel candidate
  multisets must equal the serial ones, per TGD, before any timing row is
  reported;
* **the speedup bar** — on machines with ≥ 2 usable cores, ``workers=2``
  must beat serial discovery by ≥ 1.5× on the asserted config.  A
  single-core box (some CI sandboxes) cannot run two workers
  simultaneously, so there the rows are still emitted (speedup ≈ 0.9–1.0,
  measuring pure pool overhead) but the bar is not enforced;
* **the shipped-bytes bar** — machine-independent: for one simulated stage
  of derived heads, the pickled shared-memory control message must be
  ≥ 10× smaller than a pickled per-fact sync of the same stage — the
  ``(stamp, predicate ID, row)`` triples it appended plus the symbol-table
  suffix.  This is the zero-copy claim in byte form — facts travel through
  shared segments, only watermarks/directories/symbol suffixes cross the
  pipe.

The last config (~200k atoms) sizes the columnar store: its row records
``peak_rss_kb`` so the trajectory catches memory regressions, not just
time ones.
"""

import json
import os
import pickle

import pytest

from repro.core.atoms import Atom
from repro.engine import AtomIndex, ParallelDiscovery
from repro.engine.delta import compiled_delta_matches
from repro.engine.shm import SharedColumnStore
from repro.obs import CLOCK, peak_rss_kb

from workloads import build

#: (workload, params, worker counts, timed reps).  The clique config is the
#: asserted one (speedup + shipped-bytes bars); the big chain config
#: (~200k atoms) exists to put a memory number in the trajectory.
CONFIGS = (
    ("chain", dict(rules=8, nodes=150, edges=1200), (2, 4), 3),
    ("hub", dict(rules=8, nodes=150, edges=1200), (2, 4), 3),
    ("skewed-mix", dict(rules=8, nodes=300, edges=800), (2, 4), 3),
    ("clique", dict(rules=16, nodes=300, edges=3000), (2, 4), 3),
    ("chain", dict(rules=8, nodes=40000, edges=25000), (2,), 1),
)

#: The (workload, params) pair both acceptance bars are enforced on.
ASSERTED = ("clique", dict(rules=16, nodes=300, edges=3000))

#: ≥ 2-core machines must reach this at workers=2 on the asserted config.
MIN_SPEEDUP = 1.5

#: Per-stage pickled-bytes ratio (per-fact rows / shm control message).
MIN_SHIPPED_REDUCTION = 10.0


def _best_of(reps, thunk):
    best = None
    for _ in range(reps):
        started = CLOCK()
        result = thunk()
        elapsed = CLOCK() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial_discover(tgds, index, stage_start):
    return [list(compiled_delta_matches(tgd, index, 0, stage_start)) for tgd in tgds]


def _canonical(assignments):
    return sorted(
        tuple(sorted(((repr(k), repr(v)) for k, v in a.items()))) for a in assignments
    )


def _fire_heads(structure, tgds, serial):
    """Materialise every discovered head (the workloads are existential-free)."""
    added = 0
    for tgd, matches in zip(tgds, serial):
        for head in tgd.head:
            for assignment in matches:
                added += structure.add_atom(
                    Atom(head.predicate, tuple(assignment[v] for v in head.args))
                )
    return added


def _stage_shipped_bytes(tgds, instance, serial):
    """Pickled per-stage sync bytes: per-fact rows vs the shm control message.

    Builds a fresh index over *instance* and performs the initial sync (a
    one-off cost either way), then fires the serial candidates as an
    oblivious stage and measures the *incremental* sync — the payload that
    recurs every stage of a real chase.  The baseline is what shipping the
    facts themselves would pickle onto the pipe: the ``(stamp, predicate
    ID, row)`` triples the stage appended, read from the index's posting
    columns, plus the symbol-table suffix.
    """
    index = AtomIndex(instance)
    interner = index.interner
    store = SharedColumnStore()
    store.sync(index)
    watermark = index.watermark()
    terms, predicates = interner.term_count(), interner.predicate_count()
    try:
        _fire_heads(index.structure, tgds, serial)
        facts = sorted(
            (posting.stamps[offset], pid, posting.row(offset))
            for pid, posting in index.tables()[0].items()
            for offset in range(posting.cut(watermark), posting.length)
        )
        rows = (
            facts,
            interner.terms_since(terms),
            interner.predicates_since(predicates),
        )
        sync = store.sync(index)
        return len(pickle.dumps(rows)), len(pickle.dumps(sync))
    finally:
        store.close()


@pytest.mark.experiment("E18")
@pytest.mark.parametrize("workload,params,worker_counts,reps", CONFIGS)
def test_parallel_discovery_trajectory(
    benchmark, workload, params, worker_counts, reps, report_lines
):
    tgds, instance = build(workload, **params)
    index = AtomIndex(instance)
    stage_start = index.watermark()
    # Warm the plan/executor caches once — production stages run warm (plans
    # are compiled once per chase), so the steady state is what E18 tracks.
    serial = _serial_discover(tgds, index, stage_start)
    benchmark(lambda: _serial_discover(tgds, index, stage_start))
    serial_seconds, serial = _best_of(
        reps, lambda: _serial_discover(tgds, index, stage_start)
    )
    candidates = sum(len(part) for part in serial)
    cpus = _usable_cpus()
    # Honest multicore accounting (ROADMAP k): the affinity mask above is
    # what the pool can actually use, but record the machine's nominal count
    # too so a trajectory row can never masquerade a 1-CPU sandbox as a
    # parallel result.  The bar below requires BOTH to be ≥ 2.
    os_cpus = os.cpu_count() or 1
    asserted = (workload, params) == ASSERTED
    wire_stage_bytes, shm_stage_bytes = _stage_shipped_bytes(
        tgds, build(workload, **params)[1], serial
    )
    speedups = {}
    for workers in worker_counts:
        with ParallelDiscovery(tgds, workers=workers) as pool:
            pool.discover(index, 0, stage_start)  # warm sync + plans
            parallel_seconds, parallel = _best_of(
                reps, lambda: pool.discover(index, 0, stage_start)
            )
        # Divergence is a correctness failure wherever the benchmark runs:
        # the parallel candidate multisets must equal the serial ones per TGD.
        assert len(parallel) == len(serial)
        for serial_part, parallel_part in zip(serial, parallel):
            assert _canonical(parallel_part) == _canonical(serial_part)
        speedup = serial_seconds / max(parallel_seconds, 1e-9)
        speedups[workers] = speedup
        report_lines(
            json.dumps(
                {
                    "experiment": "E18",
                    "workload": workload,
                    **{k: v for k, v in params.items()},
                    "atoms": len(instance),
                    "candidates": candidates,
                    "workers": workers,
                    "transport": "shm",
                    "cpus": cpus,
                    "os_cpu_count": os_cpus,
                    "serial_seconds": round(serial_seconds, 6),
                    "parallel_seconds": round(parallel_seconds, 6),
                    "speedup": round(speedup, 2),
                    "wire_stage_bytes": wire_stage_bytes,
                    "shm_stage_bytes": shm_stage_bytes,
                    "peak_rss_kb": peak_rss_kb(),
                }
            )
        )
    if asserted:
        reduction = wire_stage_bytes / max(shm_stage_bytes, 1)
        assert reduction >= MIN_SHIPPED_REDUCTION, (
            f"shm control message only {reduction:.1f}x smaller than the "
            f"pickled fact rows (bar: {MIN_SHIPPED_REDUCTION}x, "
            f"wire={wire_stage_bytes}B, shm={shm_stage_bytes}B)"
        )
    if asserted and cpus >= 2 and os_cpus >= 2:
        best = speedups[2]
        assert best >= MIN_SPEEDUP, (
            f"parallel discovery reached only {best:.2f}x over serial at "
            f"workers=2 (bar: {MIN_SPEEDUP}x, cpus={cpus}, "
            f"os_cpu_count={os_cpus}, speedups={speedups})"
        )
