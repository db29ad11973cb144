"""E16: semi-naive engine vs reference chase — perf trajectory as JSON.

Each row printed by this module is a single JSON object, so the output can be
collected across commits into a perf trajectory:

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_seminaive.py \
        --benchmark-disable -q -s | grep '"experiment": "E16"'

The speedup rows also assert the acceptance bar of the engine subsystem: the
semi-naive engine must be at least 3× faster than the reference on the
largest compared configuration (in practice it is two orders of magnitude).
"""

import json

import pytest

from repro.chase import chase, parse_tgds
from repro.core.builders import structure_from_text
from repro.engine import run_chase
from repro.engine.seminaive import SemiNaiveChaseEngine
from repro.obs import peak_rss_kb, stopwatch
from repro.separating.t_infinity import t_infinity_rules
from repro.greengraph.graph import initial_graph


def _chain_instance(length: int):
    facts = ", ".join(f"R({i},{i + 1})" for i in range(length))
    return structure_from_text(facts)


_TC_RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")

#: (chain length, whether the reference engine is also timed).  The reference
#: is O(stages × |D|²) on this workload and becomes unreasonably slow beyond
#: length 40, so the trajectory keeps growing on the semi-naive engine alone.
TRAJECTORY = ((10, True), (20, True), (40, True), (80, False), (120, False))

#: The speedup bar asserted on the largest configuration both engines run.
MIN_SPEEDUP = 3.0


@pytest.mark.experiment("E16")
@pytest.mark.parametrize("length,compare", TRAJECTORY)
def test_engine_trajectory_on_chains(benchmark, length, compare, report_lines):
    tgds = parse_tgds(*_TC_RULES)
    instance = _chain_instance(length)
    result = benchmark(run_chase, tgds, instance, 200, 500_000)
    assert result.reached_fixpoint
    with stopwatch() as sw:
        seminaive_result = run_chase(tgds, instance, 200, 500_000)
    seminaive_seconds = sw.seconds
    row = {
        "experiment": "E16",
        "workload": "transitive-closure-chain",
        "length": length,
        "stages": seminaive_result.stages_run,
        "atoms": len(seminaive_result.structure.atoms()),
        "seminaive_seconds": round(seminaive_seconds, 6),
        "peak_rss_kb": peak_rss_kb(),
    }
    if compare:
        with stopwatch() as sw:
            reference_result = chase(tgds, instance, 200, 500_000)
        reference_seconds = sw.seconds
        assert (
            reference_result.structure.atoms()
            == seminaive_result.structure.atoms()
        )
        row["reference_seconds"] = round(reference_seconds, 6)
        speedup = reference_seconds / max(seminaive_seconds, 1e-9)
        row["speedup"] = round(speedup, 2)
        if length == max(n for n, c in TRAJECTORY if c):
            assert speedup >= MIN_SPEEDUP
    report_lines(json.dumps(row))


@pytest.mark.experiment("E16")
def test_engine_trajectory_on_figure1(benchmark, report_lines):
    """The paper's own workload: chasing T∞ from DI (Figure 1)."""
    tgds = t_infinity_rules().tgds()
    instance = initial_graph().structure()
    stages = 60
    result = benchmark(run_chase, tgds, instance, stages, 100_000)
    with stopwatch() as sw:
        seminaive_result = run_chase(tgds, instance, stages, 100_000)
    seminaive_seconds = sw.seconds
    with stopwatch() as sw:
        reference_result = chase(tgds, instance, stages, 100_000)
    reference_seconds = sw.seconds
    assert reference_result.structure.atoms() == seminaive_result.structure.atoms()
    report_lines(
        json.dumps(
            {
                "experiment": "E16",
                "workload": "figure1-t-infinity",
                "stages": stages,
                "atoms": len(seminaive_result.structure.atoms()),
                "seminaive_seconds": round(seminaive_seconds, 6),
                "reference_seconds": round(reference_seconds, 6),
                "speedup": round(
                    reference_seconds / max(seminaive_seconds, 1e-9), 2
                ),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )


#: The telemetry-overhead acceptance bar (ISSUE 6): with instrumentation
#: disabled (no tracer, no metrics registry — the process default), default
#: per-run stats collection must cost at most 5% over the bare
#: ``collect_stats=False`` path on the chain-40 chase, plus a small absolute
#: epsilon so a sub-10ms workload cannot fail on scheduler noise alone.
OVERHEAD_FACTOR = 1.05
OVERHEAD_EPSILON_SECONDS = 0.005
OVERHEAD_PAIRS = 7


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@pytest.mark.experiment("E16")
def test_stats_collection_overhead_on_chain40(report_lines):
    """Chain-40 chase, stats on vs off — asserts the ≤5% bar.

    Measured as interleaved, paired rounds: each pair times one run per mode,
    alternating which mode goes first, and the statistic is the median of
    the per-pair ratios (the method of E20's telemetry-overhead bar).  Heap
    state left behind by earlier benchmarks, or drift within this one, then
    lands on both sides alike instead of on whichever mode was timed last.
    """
    tgds = parse_tgds(*_TC_RULES)
    instance = _chain_instance(40)

    def timed_run(collect_stats: bool) -> float:
        engine = SemiNaiveChaseEngine(
            tgds, max_stages=200, max_atoms=500_000,
            collect_stats=collect_stats,
        )
        with stopwatch() as sw:
            result = engine.run(instance)
        assert result.reached_fixpoint
        return sw.seconds

    timed_run(False)  # warm-up, untimed: module imports and caches
    timed_run(True)
    baselines, instrumented_runs, ratios = [], [], []
    for pair in range(OVERHEAD_PAIRS):
        # False = the pre-telemetry hot path; True = the default (stats on,
        # obs disabled).
        modes = (False, True) if pair % 2 == 0 else (True, False)
        seconds = {mode: timed_run(mode) for mode in modes}
        baselines.append(seconds[False])
        instrumented_runs.append(seconds[True])
        ratios.append(seconds[True] / max(seconds[False], 1e-9))
    baseline = _median(baselines)
    instrumented = _median(instrumented_runs)
    ratio = _median(ratios)
    report_lines(
        json.dumps(
            {
                "experiment": "E16",
                "workload": "stats-overhead-chain-40",
                "baseline_seconds": round(baseline, 6),
                "instrumented_seconds": round(instrumented, 6),
                "overhead_ratio": round(ratio, 4),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    )
    # ``instrumented <= baseline × FACTOR + EPSILON``, stated on the paired
    # ratio.
    assert ratio <= OVERHEAD_FACTOR + OVERHEAD_EPSILON_SECONDS / max(baseline, 1e-9)
