"""Structured span tracing as JSON lines (the chase/query flight recorder).

A :class:`Tracer` records a tree of **spans** (begin/end pairs with wall
durations) and instant **events**, one JSON object per line, to any sink — a
file path, an open file object, or a callable.  The instrumented layers emit
a fixed vocabulary (see the README glossary):

* ``chase.run`` → ``chase.stage`` → ``chase.discover`` / ``chase.fire``
  spans with per-stage delta-window sizes, candidate and fired-trigger
  counts, and nulls created;
* ``query.plan.{hit,stale_hit,miss,invalidate}`` and ``query.execute``
  events from the compiled-plan cache and executor dispatch;
* ``parallel.discover`` spans plus per-worker ``parallel.worker`` events
  tagged with the worker id, task count and sync-message byte size;
* fault-tolerance events from the supervised pool
  (:mod:`repro.engine.resilience`): ``parallel.fault.injected`` when the
  fault harness arms a fault, ``parallel.fault.{crash,hang,attach,truncate,
  generation,desync,error}`` when the supervisor detects one,
  ``parallel.retry`` per backoff-and-retry round, and ``parallel.degrade``
  when a stage falls back to serial discovery;
* ``trie.{build,extend,invalidate}`` events from the WCOJ trie cache and
  ``index.rebuild`` events from the atom index.

**Determinism.**  Span ids are small consecutive integers assigned in
emission order by the tracer itself, and every timestamp comes from the
tracer's *injected* clock (:data:`repro.obs.metrics.CLOCK` by default, a
fake in tests) — the tracer reads the world, it never writes it, so a
traced chase is bit-identical to an untraced one (pinned by
``tests/test_obs.py``).  Two traced runs of the same workload produce the
same span tree with the same ids; only the timestamps differ.

The wire schema (all lines share ``type``/``name``/``t``; ``B``/``E`` lines
carry ``id`` and ``E`` adds ``dur``; all carry the parent span id as ``in``):

    {"type": "B", "id": 1, "in": 0, "name": "chase.run", "t": 0.0, ...}
    {"type": "I", "in": 1, "name": "query.plan.miss", "t": 0.1, ...}
    {"type": "E", "id": 1, "in": 0, "name": "chase.run", "t": 2.0,
     "dur": 2.0, ...}

``in`` is 0 for top-level lines.  Extra keyword attributes are flattened
into the object (reserved keys are prefixed with ``attr_`` on collision).
``python -m repro.obs summarize trace.jsonl`` renders any such file.
"""

from __future__ import annotations

import itertools
import json
import threading
from typing import Callable, IO, List, Optional, Union

from .metrics import CLOCK

#: Keys every trace line owns; attribute names colliding with them are
#: emitted with an ``attr_`` prefix instead of corrupting the envelope.
#: ``trace`` is reserved for the request-scoped trace id (see
#: :meth:`Tracer.set_trace_id`).
_RESERVED = frozenset({"type", "id", "in", "name", "t", "dur", "trace"})

Sink = Union[str, IO[str], Callable[[str], None]]

#: One shared encoder: ``json.dumps(..., default=repr)`` would construct a
#: fresh ``JSONEncoder`` per line (the kwargs defeat the cached default
#: encoder), which dominates emission cost on hot request paths.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=repr)


def render_line(
    kind: str,
    name: str,
    now: float,
    attrs: dict,
    span_id: Optional[int],
    parent_id: int,
    duration: Optional[float],
    trace_id: Optional[str],
) -> str:
    """Serialize one trace record to its wire line (without the newline).

    Shared by :meth:`Tracer._emit` and by sinks that defer serialization
    (the service's trace ring keeps raw records and renders them only when
    the ring is downloaded), so both paths produce byte-identical lines.
    """
    line = {"type": kind, "name": name}
    if span_id is not None:
        line["id"] = span_id
    line["in"] = parent_id
    line["t"] = round(now, 9)
    if duration is not None:
        line["dur"] = round(duration, 9)
    if trace_id is not None:
        line["trace"] = trace_id
    for key, value in attrs.items():
        line[f"attr_{key}" if key in _RESERVED else key] = value
    return _ENCODER.encode(line)


class Span:
    """An open span: a context manager that emits ``B`` on entry, ``E`` on exit.

    Attributes added through :meth:`note` (or by mutating :attr:`attrs`)
    between entry and exit travel on the ``E`` line — the idiom for values
    only known at the end of the section (counts, outcome flags).
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs", "_started")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self._started = 0.0

    def note(self, **attrs) -> None:
        """Attach *attrs* to this span's end line."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer._new_id()
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else 0
        self._started = tracer.clock()
        tracer._emit(
            "B", self.name, self._started, self.attrs,
            span_id=self.span_id, parent_id=self.parent_id,
        )
        tracer._stack.append(self.span_id)
        # End attributes start from a fresh dict: begin-time attributes were
        # already emitted, so only later notes travel on the E line.
        self.attrs = {}
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        now = tracer.clock()
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        tracer._emit(
            "E", self.name, now, self.attrs,
            span_id=self.span_id, parent_id=self.parent_id,
            duration=now - self._started,
        )


class _NullSpan:
    """The disabled span: enter/exit/note are all no-ops.

    Instrument sites write ``span = tracer.span(...) if tracer else
    NULL_SPAN`` and then use the one object unconditionally — the same
    shared-singleton discipline as the null metric handles.
    """

    __slots__ = ()

    def note(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Emits one JSON object per line to a sink, tracking the span stack.

    **Thread discipline.**  The open-span stack and the current trace id are
    *thread-local*, so concurrent request threads (the service) each grow
    their own connected span tree without interleaving parents; span ids
    stay globally consecutive under a lock, and each emitted line is one
    atomic ``write`` call.  Single-threaded use is unchanged — ids and
    parentage are exactly as deterministic as before.
    """

    __slots__ = ("clock", "_write", "_owned", "_local", "_ids")

    def __init__(
        self, sink: Sink, clock: Callable[[], float] = CLOCK
    ) -> None:
        self.clock = clock
        self._owned: Optional[IO[str]] = None
        if isinstance(sink, str):
            # Line-buffered on purpose: every emitted line reaches the OS
            # before returning, so a forked discovery worker never inherits
            # unflushed trace bytes it could duplicate at interpreter exit
            # (workers additionally null their telemetry globals on startup).
            self._owned = open(sink, "w", encoding="utf-8", buffering=1)
            self._write = self._owned.write
        elif hasattr(sink, "write"):
            self._write = sink.write  # type: ignore[union-attr]
        else:
            self._write = sink  # type: ignore[assignment]
        self._local = threading.local()
        # itertools.count.__next__ is atomic under the GIL, so ids stay
        # globally consecutive across threads without a lock on the hot path.
        self._ids = itertools.count(1)

    @property
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return next(self._ids)

    # ------------------------------------------------------------------
    def set_trace_id(self, trace_id: Optional[str]) -> None:
        """Stamp every line this *thread* emits with ``"trace": trace_id``.

        ``None`` clears the stamp.  The id is thread-local on purpose: the
        service sets it at request entry and clears it at exit, so engine
        spans emitted anywhere down the call stack inherit the request's id
        while concurrent requests keep theirs.
        """
        self._local.trace_id = trace_id

    def trace_id(self) -> Optional[str]:
        """The calling thread's current trace id, or ``None``."""
        return getattr(self._local, "trace_id", None)

    def span(self, name: str, **attrs) -> Span:
        """A new child span of the current one; use as a context manager."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """An instant event under the current span."""
        self._emit("I", name, self.clock(), attrs)

    def close(self) -> None:
        """Flush and close a file sink the tracer opened itself."""
        if self._owned is not None:
            self._owned.close()
            self._owned = None

    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: str,
        name: str,
        now: float,
        attrs: dict,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> None:
        if parent_id is None:
            stack = self._stack
            parent_id = stack[-1] if stack else 0
        self._write(
            render_line(
                kind, name, now, attrs, span_id, parent_id, duration,
                getattr(self._local, "trace_id", None),
            )
            + "\n"
        )


#: The active tracer (``None`` = tracing disabled, the default).
_TRACER: Optional[Tracer] = None


def enable_tracing(
    sink: Sink, clock: Optional[Callable[[], float]] = None
) -> Tracer:
    """Activate tracing to *sink* (path, file object or callable)."""
    global _TRACER
    previous, _TRACER = _TRACER, Tracer(sink, clock if clock else CLOCK)
    if previous is not None:
        previous.close()
    return _TRACER


def disable_tracing() -> None:
    """Deactivate tracing, closing any tracer-owned file sink."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` — instrument sites branch on this.

    The disabled path is one module-global read and a ``None`` test, which
    is what keeps tracing free when off; sites inside loops should hoist the
    call out of the loop (the engine fetches once per run/stage).
    """
    return _TRACER


def install_tracer(tracer: Tracer) -> Optional[Tracer]:
    """Make *tracer* the active tracer **without closing** the previous one.

    The service uses this to mount its ring-buffer tracer while respecting a
    tracer a test or embedding application already enabled; the previous
    tracer is returned so the caller can decide what to do with it (the
    service simply declines to install over one).
    """
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def uninstall_tracer(tracer: Tracer) -> bool:
    """Deactivate *tracer* iff it is still the active one (never closes it).

    Returns whether it was active.  A no-op when someone else's tracer took
    over in the meantime — the uninstaller must not clobber it.
    """
    global _TRACER
    if _TRACER is tracer:
        _TRACER = None
        return True
    return False
