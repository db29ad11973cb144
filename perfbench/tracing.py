"""In-memory span recording around the public entry points of each layer.

The benchmark's traced runs install these wrappers; nothing inside ``src/``
is changed.  A span is opened around each wrapped call, and spans nest on a
per-thread stack.  Spans are aggregated per *op* (the root span: one
benchmark op in-process, one ``_Handler._dispatch`` in the server), so a run
keeps one small record per op instead of one entry per span:

* ``incl[name]`` — summed duration of the span ``name`` within the op;
* ``self[name]`` — the same minus the time its child spans cover;
* ``calls[name]`` and ``counts[key]`` — call counts and work counters.

Calls made outside any op (set-up, warm-up requests) pass straight through
and are not recorded.  Times use ``time.monotonic``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so spans of the server process line up with
the client's measurement window.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

CLOCK = time.monotonic
#: Root span of an in-process op, and of one request in the server.
ROOT = "op"
SERVICE_ROOT = "service.dispatch"


class OpRecord:
    """The aggregated spans of one op."""

    __slots__ = ("start", "wall", "incl", "self", "calls", "counts")

    def __init__(self, start: float) -> None:
        self.start = start
        self.wall = 0.0
        self.incl: Dict[str, float] = defaultdict(float)
        self.self: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)

    def as_dict(self) -> dict:
        return {
            "start": self.start,
            "wall": self.wall,
            "incl": dict(self.incl),
            "self": dict(self.self),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


class Recorder:
    """Per-thread span stacks; finished ops are appended to :attr:`ops`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.ops: List[OpRecord] = []
        #: Evaluation contexts seen by ``compiled_for``, with their
        #: ``plans_compiled`` counter as first seen (reconciliation input).
        self.contexts: Dict[int, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- ops -----------------------------------------------------------
    def begin_op(self, name: str = ROOT) -> list:
        stack = self._stack()
        if stack:
            raise RuntimeError(f"op {name!r} opened inside span {stack[-1][0]!r}")
        now = CLOCK()
        frame = [name, now, 0.0, OpRecord(now)]
        stack.append(frame)
        return frame

    def end_op(self, frame: list) -> OpRecord:
        name, start, children, record = frame
        now = CLOCK()
        self._stack().pop()
        record.wall = now - start
        record.incl[name] += record.wall
        record.self[name] += record.wall - children
        record.calls[name] += 1
        self.ops.append(record)
        return record

    # -- spans ---------------------------------------------------------
    def push(self, name: str) -> Optional[list]:
        """Open span *name* under the current op; ``None`` outside any op."""
        stack = self._stack()
        if not stack:
            return None
        frame = [name, CLOCK(), 0.0, stack[0][3]]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        name, start, children, record = frame
        duration = CLOCK() - start
        stack = self._local.stack
        stack.pop()
        stack[-1][2] += duration
        record.incl[name] += duration
        record.self[name] += duration - children
        record.calls[name] += 1

    def innermost(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, key: str, amount: int = 1) -> None:
        """Add *amount* to counter *key* of the current op (if any)."""
        stack = self._stack()
        if stack:
            stack[0][3].counts[key] += amount

    # -- wrapping helpers ----------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.push(name)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.pop(frame)

        return wrapper

    def timed_iter(self, name: str, iterator, count_key: Optional[str] = None):
        """Yield from *iterator*, timing each ``next()`` as span *name*."""
        iterator = iter(iterator)
        try:
            while True:
                frame = self.push(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        self.pop(frame)
                if count_key is not None:
                    self.count(count_key)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def rebind(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to *original* at *replacement*.

    Covers ``from x import f`` bindings as well as the defining module, so a
    call routed through any module-level name reaches the wrapper.
    """
    bound = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"no module binds {original!r}")
    return bound


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def install_query_and_engine(recorder: Recorder) -> None:
    """Wrap the query, engine, paper-construction and ``core`` entry points."""
    import repro.chase.trigger as trigger_module
    import repro.engine.delta as delta_module
    import repro.query.compile as compile_module
    import repro.query.evaluator as evaluator_module
    from repro.core.atoms import Atom
    from repro.core.structure import Structure
    from repro.engine.seminaive import SemiNaiveChaseEngine
    from repro.engine.strategies import FiringStrategy
    from repro.greengraph.rules import GreenGraphRuleSet
    from repro.query.context import EvalContext
    from repro.rainworm.countermodel import build_countermodel
    from repro.separating.grid import build_grid_on_merged_paths
    from repro.swarm.compile import compile_rules
    import repro.reduction.theorem1  # noqa: F401 - binds build_countermodel
    import repro.separating.theorem14  # noqa: F401 - binds the grid builder

    # repro.query: evaluate (self time = decode), index, plan, join.
    original_evaluate = evaluator_module.evaluate

    def evaluate(query, instance, context=None):
        frame = recorder.push("query.evaluate")
        if frame is None:
            return original_evaluate(query, instance, context)
        counts = frame[3].counts
        rows = counts["query.rows"]
        try:
            answers = original_evaluate(query, instance, context)
        finally:
            recorder.pop(frame)
        counts["query.evaluate_rows"] += counts["query.rows"] - rows
        counts["query.answers"] += len(answers)
        return answers

    rebind(original_evaluate, evaluate)

    original_index_for = EvalContext.index_for

    def index_for(context, structure):
        frame = recorder.push("query.index")
        if frame is None:
            return original_index_for(context, structure)
        built = context.indexes_built
        try:
            return original_index_for(context, structure)
        finally:
            recorder.pop(frame)
            recorder.count("query.index_builds", context.indexes_built - built)

    EvalContext.index_for = index_for

    # Per thread, so that one server thread's compile is never counted
    # under another thread's compiled_for call.
    compiles = threading.local()
    original_compile_query = compile_module.compile_query

    def compile_query(*args, **kwargs):
        compiles.count = getattr(compiles, "count", 0) + 1
        return original_compile_query(*args, **kwargs)

    rebind(original_compile_query, compile_query)

    original_compiled_for = compile_module.compiled_for

    def compiled_for(index, atoms, bound_terms, context=None, seed=None):
        frame = recorder.push("query.plan")
        if frame is None:
            return original_compiled_for(index, atoms, bound_terms, context, seed)
        before = getattr(compiles, "count", 0)
        if context is not None:
            recorder.contexts.setdefault(id(context), (context, context.plans_compiled))
        try:
            return original_compiled_for(index, atoms, bound_terms, context, seed)
        finally:
            recorder.pop(frame)
            made = getattr(compiles, "count", 0) - before
            recorder.count("query.plans_compiled", made)
            if context is not None:
                recorder.count("query.plans_compiled_in_context", made)

    rebind(original_compiled_for, compiled_for)

    original_execute = compile_module.execute

    def execute(*args, **kwargs):
        rows = original_execute(*args, **kwargs)
        if recorder.innermost() is None:
            return rows
        return recorder.timed_iter("query.join", rows, count_key="query.rows")

    rebind(original_execute, execute)

    # repro.engine / repro.chase: run, discover, head check, apply, snapshots.
    SemiNaiveChaseEngine.run = recorder.timed("engine.run", SemiNaiveChaseEngine.run)

    original_matches = delta_module.compiled_delta_matches

    def compiled_delta_matches(*args, **kwargs):
        matches = original_matches(*args, **kwargs)
        if recorder.innermost() is None:
            return matches
        return recorder.timed_iter("engine.discover", matches)

    rebind(original_matches, compiled_delta_matches)

    FiringStrategy.should_fire = recorder.timed(
        "engine.head_check", FiringStrategy.should_fire
    )

    original_apply = trigger_module.apply_trigger

    def apply_trigger(trigger, structure, null_factory):
        frame = recorder.push("engine.apply")
        if frame is None:
            return original_apply(trigger, structure, null_factory)
        try:
            outcome = original_apply(trigger, structure, null_factory)
        finally:
            recorder.pop(frame)
        if outcome.new_atoms:
            recorder.count("engine.fired")
        return outcome

    rebind(original_apply, apply_trigger)

    original_copy = Structure.copy

    def copy(structure, *args, **kwargs):
        if recorder.innermost() != "engine.run":
            return original_copy(structure, *args, **kwargs)
        frame = recorder.push("engine.snapshot")
        try:
            duplicate = original_copy(structure, *args, **kwargs)
        finally:
            recorder.pop(frame)
        recorder.count("engine.snapshot_atoms", len(duplicate))
        return duplicate

    Structure.copy = copy

    # Paper constructions and core.
    rebind(compile_rules, recorder.timed("spiders.compile", compile_rules))
    rebind(
        build_countermodel,
        recorder.timed("rainworm.countermodel", build_countermodel),
    )
    GreenGraphRuleSet.chase = recorder.timed(
        "greengraph.chase", GreenGraphRuleSet.chase
    )
    rebind(
        build_grid_on_merged_paths,
        recorder.timed("separating.grid", build_grid_on_merged_paths),
    )

    original_atom_init = Atom.__init__

    def atom_init(atom, predicate, args):
        original_atom_init(atom, predicate, args)
        recorder.count("core.atoms_built")

    Atom.__init__ = atom_init


def install_service(recorder: Recorder) -> None:
    """Wrap the session server's entry points; ``_dispatch`` is the op root."""
    from repro.service.server import _Handler
    from repro.service.sessions import Session, ShapeCache
    from repro.service.telemetry import ServiceTelemetry

    original_dispatch = _Handler._dispatch

    def dispatch(handler, method):
        frame = recorder.begin_op(SERVICE_ROOT)
        try:
            return original_dispatch(handler, method)
        finally:
            recorder.end_op(frame)

    _Handler._dispatch = dispatch
    _Handler._reply = recorder.timed("service.serialize", _Handler._reply)
    # Request body read and JSON decode, and the access-log/histogram
    # bookkeeping after the reply: no metric of their own, but their time
    # counts towards trace.coverage instead of the dispatch root's self time.
    _Handler._payload = recorder.timed("service.read_body", _Handler._payload)
    ServiceTelemetry.observe_request = recorder.timed(
        "service.telemetry", ServiceTelemetry.observe_request
    )
    ShapeCache.query = recorder.timed("service.parse", ShapeCache.query)
    Session.query = recorder.timed("service.answers", Session.query)
    Session.load_structure = recorder.timed("service.write", Session.load_structure)
    # The lock is taken by touch() and by _locked(); both waits are queueing
    # on the session lock.
    Session.touch = recorder.timed("service.lock_wait", Session.touch)

    original_locked = Session._locked

    class _TimedEnter:
        __slots__ = ("manager",)

        def __init__(self, manager) -> None:
            self.manager = manager

        def __enter__(self):
            frame = recorder.push("service.lock_wait")
            try:
                return self.manager.__enter__()
            finally:
                if frame is not None:
                    recorder.pop(frame)

        def __exit__(self, *exc_info):
            return self.manager.__exit__(*exc_info)

    Session._locked = lambda session: _TimedEnter(original_locked(session))
