"""Deterministic fault injection for the parallel chase engine.

The resilience layer (:mod:`repro.engine.resilience`) claims that a chase
survives worker crashes, hangs, shared-memory attach failures, truncated
control messages and generation-mismatched syncs.  This module is how those
faults are *manufactured on demand*, deterministically, at chosen
stage/worker/task coordinates — the differential suite arms a seeded
schedule, runs the chase, and asserts bit-identity (or a typed
:class:`~repro.chase.chase.ChaseExecutionError`) plus a clean process/segment
audit.

Design constraints:

* **Engine-side injection.**  Every fault is armed in the *engine* process:
  crash/hang faults travel to the victim worker as explicit directives
  inside the stage message (the worker executes ``os._exit`` / ``sleep`` at
  the given task ordinal), and sync-level faults (attach / truncate /
  generation) are applied by tampering the victim's sync payload before it
  is sent.  The engine therefore knows exactly what it injected — which is
  what lets the trace carry honest ``parallel.fault.injected`` events and
  the run stats reconcile with them, and what makes the injector work under
  both ``fork`` and ``spawn`` start methods.
* **Consume-once.**  A fault fires at its coordinates and is then spent;
  retries of the same stage do not re-inject it, so a recovering run
  converges instead of looping against a permanently hostile schedule.
  (Exhaustion scenarios arm several faults at the same coordinates.)
* **Disarmed is free.**  :func:`active_plan` is one module-global read; no
  plan, no overhead.

Arming: :func:`install_fault_plan` from test code, or the ``REPRO_FAULTS``
environment variable (``"seed=7,stages=4,count=3"`` → a
:func:`random_fault_plan`), checked lazily on first use so subprocess-based
tests can arm the injector without touching code.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

#: Fault kinds the engine knows how to inject.  ``crash`` and ``hang`` are
#: worker-side directives; ``attach`` / ``truncate`` / ``generation``
#: tamper the victim's sync payload engine-side.
FAULT_KINDS = ("crash", "hang", "attach", "truncate", "generation")

#: How long an injected hang sleeps.  Long enough that only a deadline can
#: end it, short enough that a test with a broken supervisor still finishes.
DEFAULT_HANG_SECONDS = 30.0


@dataclass(frozen=True)
class Fault:
    """One armed fault at explicit coordinates.

    ``worker`` and ``task`` are taken modulo the live worker count / the
    victim's task-list length at injection time, so a schedule drawn from a
    seeded RNG always lands on a real coordinate.
    """

    kind: str
    stage: int
    worker: int = 0
    task: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, consumed as the chase runs."""

    faults: List[Fault] = field(default_factory=list)
    #: Faults actually injected so far (directives sent / payloads tampered).
    injected: int = 0
    _spent: set = field(default_factory=set, repr=False)

    def pending_for(self, stage: int) -> List[Fault]:
        """The not-yet-consumed faults armed at *stage* (schedule order)."""
        return [
            fault
            for position, fault in enumerate(self.faults)
            if fault.stage == stage and position not in self._spent
        ]

    def consume(self, fault: Fault) -> None:
        """Mark *fault* spent (first unspent schedule entry equal to it)."""
        for position, candidate in enumerate(self.faults):
            if candidate == fault and position not in self._spent:
                self._spent.add(position)
                self.injected += 1
                return

    @property
    def exhausted(self) -> bool:
        return len(self._spent) >= len(self.faults)


def random_fault_plan(
    seed: int,
    stages: int,
    count: int = 3,
    kinds: Sequence[str] = FAULT_KINDS,
    workers: int = 2,
    tasks: int = 4,
    hang_seconds: float = DEFAULT_HANG_SECONDS,
) -> FaultPlan:
    """A seeded schedule of *count* faults over stages ``1..stages``.

    The coordinates are drawn from ``random.Random(seed)`` only — two
    processes building the plan from the same arguments get the same
    schedule, which is what the differential suite and the ``REPRO_FAULTS``
    environment knob rely on.
    """
    rng = random.Random(seed)
    faults = [
        Fault(
            kind=rng.choice(list(kinds)),
            stage=rng.randint(1, max(1, stages)),
            worker=rng.randrange(max(1, workers)),
            task=rng.randrange(max(1, tasks)),
            hang_seconds=hang_seconds,
        )
        for _ in range(count)
    ]
    return FaultPlan(faults=faults)


# ----------------------------------------------------------------------
# The armed plan (module global + environment knob)
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False

#: Environment knob: ``REPRO_FAULTS="seed=7,stages=4,count=3"`` (missing
#: keys default like :func:`random_fault_plan`).  Parsed once, lazily.
ENV_VAR = "REPRO_FAULTS"


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Arm *plan* (or disarm with ``None``); returns the installed plan."""
    global _PLAN, _ENV_CHECKED
    _PLAN = plan
    _ENV_CHECKED = True  # an explicit install wins over the environment
    return _PLAN


def clear_fault_plan() -> None:
    """Disarm the injector (and forget any environment-provided plan)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = True


def _plan_from_env(spec: str) -> FaultPlan:
    settings: Dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        settings[key.strip()] = value.strip()
    return random_fault_plan(
        seed=int(settings.get("seed", "0")),
        stages=int(settings.get("stages", "4")),
        count=int(settings.get("count", "3")),
        workers=int(settings.get("workers", "2")),
        tasks=int(settings.get("tasks", "4")),
        hang_seconds=float(settings.get("hang_seconds", DEFAULT_HANG_SECONDS)),
    )


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``.  Checks ``REPRO_FAULTS`` once, lazily."""
    global _PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get(ENV_VAR)
        if spec:
            _PLAN = _plan_from_env(spec)
    return _PLAN


# ----------------------------------------------------------------------
# Payload tampering (engine-side sync faults)
# ----------------------------------------------------------------------
def tamper_payload(kind: str, sync):
    """The tampered :class:`~repro.engine.shm.ShmSync` for an armed
    sync-level fault, or ``None``.

    ``None`` means the fault is not injectable here (no sync this stage,
    nothing left to drop) — the caller leaves the fault armed for a later
    opportunity instead of counting a phantom injection.  The tampering is
    chosen so the *worker-side* validation in :mod:`repro.engine.parallel`
    provably detects it:

    * ``truncate`` drops the last directory entry, so the replica's atom
      total falls short of the engine's declared count;
    * ``generation`` rewrites the sync's rebuild generation on a non-reset
      message, tripping the replica's generation check;
    * ``attach`` renames a directory entry to a segment that was never
      created, so the worker's attach raises ``FileNotFoundError``.
    """
    if sync is None:
        return None
    if kind == "truncate":
        if not sync.directory:
            return None
        return replace(sync, directory=sync.directory[:-1])
    if kind == "generation":
        return replace(sync, reset=False, rebuilds=sync.rebuilds + 7)
    if kind == "attach":
        if not sync.directory:
            return None
        victim = sync.directory[-1]
        return replace(
            sync,
            directory=sync.directory[:-1]
            + (replace(victim, name=victim.name + "-missing"),),
        )
    raise ValueError(f"not a sync-level fault kind: {kind!r}")


#: Directive tuple kinds a worker executes mid-task (see
#: ``repro.engine.parallel._worker_main``).
__all__ = [
    "DEFAULT_HANG_SECONDS",
    "ENV_VAR",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "active_plan",
    "clear_fault_plan",
    "install_fault_plan",
    "random_fault_plan",
    "tamper_payload",
]
