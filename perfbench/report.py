"""Metrics from raw run results: end-to-end, per layer, and reconciliation.

Per-layer times are milliseconds per op: inclusive of child spans unless the
name says ``self`` or is one of the self-time layers the README lists
(``dispatch_self``, ``answers``, ``decode``, ``other``).  Counts are per op.
A layer the workload never enters reads 0, and so does a ratio whose base
is 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import ROOT, SERVICE_ROOT

#: (metric, aggregate, span or counter).  ``incl``/``self`` are span times,
#: ``calls`` counts span entries, ``counts`` reads a work counter.
SPANS = [
    ("service.dispatch_self_ms", "self", SERVICE_ROOT),
    ("service.lock_wait_ms", "incl", "service.lock_wait"),
    ("service.parse_ms", "incl", "service.parse"),
    ("service.answers_ms", "self", "service.answers"),
    ("service.serialize_ms", "incl", "service.serialize"),
    ("service.write_ms", "incl", "service.write"),
    ("query.evaluate_ms", "incl", "query.evaluate"),
    ("query.index_ms", "incl", "query.index"),
    ("query.index_builds", "counts", "query.index_builds"),
    ("query.plan_ms", "incl", "query.plan"),
    ("query.plans_compiled", "counts", "query.plans_compiled"),
    ("query.join_ms", "incl", "query.join"),
    ("query.decode_ms", "self", "query.evaluate"),
    ("engine.run_ms", "incl", "engine.run"),
    ("engine.discover_ms", "incl", "engine.discover"),
    ("engine.head_check_ms", "incl", "engine.head_check"),
    ("engine.head_checks", "calls", "engine.head_check"),
    ("engine.apply_ms", "incl", "engine.apply"),
    ("engine.triggers_applied", "calls", "engine.apply"),
    ("engine.snapshot_ms", "incl", "engine.snapshot"),
    ("engine.snapshot_atoms", "counts", "engine.snapshot_atoms"),
    ("engine.other_ms", "self", "engine.run"),
    ("spiders.compile_ms", "incl", "spiders.compile"),
    ("rainworm.countermodel_ms", "incl", "rainworm.countermodel"),
    ("core.atoms_built", "counts", "core.atoms_built"),
    ("greengraph.chase_self_ms", "self", "greengraph.chase"),
    ("separating.grid_self_ms", "self", "separating.grid"),
]
RATIOS = [
    "service.http_ms",
    "service.shape_cache_hit_ratio",
    "query.plan_reuse_ratio",
    "query.rows_per_answer",
    "engine.fire_ratio",
    "trace.coverage",
    "trace.overhead",
]
PER_LAYER = [name for name, _, _ in SPANS] + RATIOS

#: Reconciliation tolerances.
COVERAGE_RANGE = (0.9, 1.1)
FIRE_SHARE_RANGE = (0.8, 1.0)


def end_to_end(result: dict, setup_samples: List[float]) -> Dict[str, float]:
    ops = result["attempted"]
    latencies = result["latencies"]
    return {
        "ops_per_s": ops / result["wall"],
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "cpu_ms_per_op": result["cpu"] / ops * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def latency_p95_ms(result: dict) -> float:
    return statistics.quantiles(result["latencies"], n=20)[-1] * 1000


def _total(ops: List[dict], aggregate: str, key: str) -> float:
    return sum(op[aggregate].get(key, 0) for op in ops)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: dict, untraced: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run, plus ``trace.overhead``."""
    trace = traced["trace"]
    ops = trace["ops"]
    n = len(ops)
    metrics: Dict[str, float] = {}
    for name, aggregate, key in SPANS:
        total = _total(ops, aggregate, key)
        scale = 1000 if aggregate in ("incl", "self") else 1
        metrics[name] = _ratio(total * scale, n)

    plan_calls = _total(ops, "calls", "query.plan")
    metrics["query.plan_reuse_ratio"] = _ratio(
        plan_calls - _total(ops, "counts", "query.plans_compiled"), plan_calls
    )
    metrics["query.rows_per_answer"] = _ratio(
        _total(ops, "counts", "query.evaluate_rows"),
        _total(ops, "counts", "query.answers"),
    )
    metrics["engine.fire_ratio"] = _ratio(
        _total(ops, "counts", "engine.fired"), _total(ops, "calls", "engine.head_check")
    )

    # The root's self time is what no layer span accounts for, so it is left
    # out of trace.coverage.
    attributed = sum(
        value
        for op in ops
        for name, value in op["self"].items()
        if name not in (ROOT, SERVICE_ROOT)
    )
    if "client_seconds" in trace:  # serve-query: the op is the client round trip
        http = trace["client_seconds"] - _total(ops, "incl", SERVICE_ROOT)
        metrics["service.http_ms"] = _ratio(http * 1000, n)
        shape_lookups = trace["shape_hits"] + trace["shape_misses"]
        metrics["service.shape_cache_hit_ratio"] = _ratio(
            trace["shape_hits"], shape_lookups
        )
        metrics["trace.coverage"] = _ratio(attributed + http, trace["client_seconds"])
    else:
        metrics["service.http_ms"] = 0.0
        metrics["service.shape_cache_hit_ratio"] = 0.0
        metrics["trace.coverage"] = _ratio(attributed, _total(ops, "incl", ROOT))
    metrics["trace.overhead"] = _ratio(
        traced["attempted"] / traced["wall"], untraced["attempted"] / untraced["wall"]
    )
    return {name: metrics[name] for name in PER_LAYER}


def layer_table(ops: List[dict]) -> List[str]:
    """Self time, calls and p50 of per-op self time, for every span name."""
    names = sorted({name for op in ops for name in op["self"]})
    n = len(ops) or 1
    lines = []
    for name in names:
        per_op = [op["self"].get(name, 0.0) * 1000 for op in ops]
        lines.append(
            f"layer {name:24s} self_ms/op={sum(per_op) / n:10.3f} "
            f"calls/op={_total(ops, 'calls', name) / n:10.1f} "
            f"p50_self_ms={statistics.median(per_op):10.3f}"
        )
    return lines


def reconcile(workload: str, traced: dict, metrics: Dict[str, float]) -> Dict[str, bool]:
    """The traced run's consistency checks; every value should be True."""
    trace = traced["trace"]
    ops = trace["ops"]
    low, high = COVERAGE_RANGE
    checks = {
        "coverage": low <= metrics["trace.coverage"] <= high,
        "self_times_non_negative": all(
            value >= -1e-6 for op in ops for value in op["self"].values()
        ),
        "ops_recorded": len(ops) == traced["attempted"],
    }
    in_context = _total(ops, "counts", "query.plans_compiled_in_context")
    if workload == "serve-query":
        # Every compile in the window goes through the session's context.
        in_context = _total(ops, "counts", "query.plans_compiled")
    checks["plans_compiled"] = in_context == trace["context_plans_compiled"]
    if workload == "chase-tc":
        fire = trace["fire_seconds"]
        head_and_apply = _total(ops, "incl", "engine.head_check") + _total(
            ops, "incl", "engine.apply"
        )
        low, high = FIRE_SHARE_RANGE
        checks["fire_share"] = fire > 0 and low <= head_and_apply / fire <= high
    return checks
