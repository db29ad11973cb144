"""Shared-memory segment management for zero-copy replica synchronisation.

Pickling every fact added since the last stage through a pipe would cost
serialisation rent proportional to the whole delta window, paid once per
worker.  This module is the discovery pool's zero-copy replica sync
instead: the engine mirrors its columnar posting arrays (``array('q')``
stamp/argument columns, see :mod:`repro.engine.indexes`) into
``multiprocessing.shared_memory`` segments, and workers *attach* the
segments by name instead of replaying row slices.  Per stage, the only
bytes that still travel by message are a :class:`ShmSync` control record —
the ``(watermark, segment directory, symbol-table suffix)`` triple — which
is independent of the delta size.

Layout and growth
-----------------

Each interned predicate gets **one segment** holding its stamp column plus
one argument column per position, all with the same element *capacity*::

    [ stamps: capacity × 8 bytes | col 0: capacity × 8 | ... | col n-1 ]

Segments grow by doubling: when a posting list outgrows its capacity, a
fresh segment with the next power-of-two capacity is allocated, the full
columns are copied across, and the old segment is retired (unlinked
immediately — attached workers keep their mappings valid until they
re-attach off the next directory).  The :class:`ShmSync` directory is
therefore *generation-stamped* by construction: every entry names the
segment currently backing a predicate, and a worker re-attaches exactly the
entries whose name changed since its last sync.

Lifecycle
---------

A :class:`SharedColumnStore` is owned by the discovery pool
(:class:`~repro.engine.parallel.ParallelDiscovery`), reused across runs via
:meth:`reset` (segments are recycled for the next run's columns), and torn
down by :meth:`close`, which unlinks every segment.  ``close`` is
idempotent and additionally registered with :mod:`atexit`, so interpreter
exit — even without an explicit pool shutdown — leaves no leaked segments
and no ``resource_tracker`` warnings.  On the worker side,
:class:`SegmentCache` attaches without registering with the resource
tracker (attachments are views, not owners: the engine side must stay
authoritative over unlink time) and releases stale attachments as the
directory moves on.
"""

from __future__ import annotations

import atexit
import os
import signal
import uuid
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory as _shared_memory
from typing import Dict, List, Optional, Tuple

from ..obs.trace import get_tracer

#: Smallest per-column element capacity of a fresh segment.  Kept modest so
#: rule-heavy schemas with many tiny predicates do not over-allocate; tests
#: shrink it further to force mid-run growth.
DEFAULT_INITIAL_CAPACITY = 1024

_ITEM = 8  # bytes per 'q' element


@dataclass(frozen=True)
class SegmentEntry:
    """One predicate's columns inside a shared-memory segment."""

    pid: int
    arity: int
    name: str
    capacity: int
    length: int


@dataclass(frozen=True)
class ShmSync:
    """The per-stage control message of the shared-memory sync protocol.

    Instead of fact rows it carries the *segment directory* (where each
    predicate's columns live and how far they are valid) plus the suffix of
    the interner's symbol tables — the only payload whose size scales with
    the delta is the symbol suffix, and only when genuinely new terms
    appeared.  ``reset`` means the source index rebuilt itself (or this is
    the replica's first sync after a pool re-bind), so the replica must
    drop its fact tables and rescan every directory entry from offset zero.
    """

    reset: bool
    term_base: int
    terms: Tuple[object, ...]
    predicate_base: int
    predicates: Tuple[str, ...]
    directory: Tuple[SegmentEntry, ...]
    watermark: int
    rebuilds: int


def _attach_segment(name: str):
    """Attach an existing segment by name, as a *view* (non-owning).

    Python < 3.13 has no ``track=`` parameter: an attach registers the
    segment with the resource tracker, whose exit-time cleanup would unlink
    (destroy) segments the engine still owns and print "leaked
    shared_memory" warnings.  Worse, forked workers share the parent's
    tracker process, so a worker-side ``unregister`` after the fact would
    erase the *creator's* registration and make the engine's own unlink
    print a tracker ``KeyError``.  The only clean pre-3.13 move is to stop
    the registration from happening at all: ``register`` is swapped for a
    no-op for the duration of the attach.  On 3.13+ ``track=False`` does it
    natively.
    """
    try:
        return _shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


#: Live stores in this process, so the SIGTERM handler can tear them down
#: even when the signal arrives mid-stage (weak: a collected store has
#: already unlinked via its own finaliser path or leaked irrecoverably).
_STORES: "weakref.WeakSet[SharedColumnStore]" = weakref.WeakSet()
_SIGTERM_INSTALLED = False


def _sigterm_teardown(signum, frame):  # pragma: no cover - exercised via subprocess
    for store in list(_STORES):
        try:
            store.close()
        except Exception:
            pass
    # Raising SystemExit lets the interpreter unwind normally (finally
    # blocks, atexit) instead of dying with segments still linked.
    raise SystemExit(128 + signum)


def _install_sigterm_chain() -> None:
    """Install segment teardown on SIGTERM, once, only over the default.

    A process killed with SIGTERM while a stage is in flight would otherwise
    leave its ``/dev/shm`` segments linked (the default handler exits
    without unwinding).  We never displace a handler the application chose —
    only ``SIG_DFL`` is replaced — and the installed handler is pid-safe via
    :meth:`SharedColumnStore.close`'s owner check, so a forked worker that
    inherits it cannot unlink the engine's live segments.
    """
    global _SIGTERM_INSTALLED
    if _SIGTERM_INSTALLED:
        return
    _SIGTERM_INSTALLED = True
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_teardown)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


class _Retired:
    """Segments whose buffers may still be referenced (exported views).

    ``SharedMemory.close`` raises :class:`BufferError` while any cast
    memoryview of the buffer is alive — cached executor preambles can hold
    such views across a grow.  Retired segments are re-offered to ``close``
    on every subsequent sync and force-drained at teardown; an entry that
    stays pinned simply lives until its last view dies (the mapping is
    already unlinked, so nothing leaks past process exit either way).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[object] = []

    def add(self, segment, views) -> None:
        for view in views:
            try:
                view.release()
            except BufferError:
                pass
        self._entries.append(segment)

    def drain(self) -> None:
        still_pinned = []
        for segment in self._entries:
            try:
                segment.close()
            except BufferError:
                still_pinned.append(segment)
        self._entries = still_pinned


class SharedColumnStore:
    """Engine-side mirror of an index's posting columns in shm segments.

    One store per discovery pool.  :meth:`sync` brings the segments up to
    date with the given :class:`~repro.engine.indexes.AtomIndex` — copying
    only the column suffixes appended since the previous sync — and returns
    the :class:`ShmSync` control message the workers need, or ``None`` in
    the steady state (nothing changed; the cheap answer, decided from the
    generation counters alone).
    """

    def __init__(self, initial_capacity: int = DEFAULT_INITIAL_CAPACITY) -> None:
        self._initial_capacity = max(2, initial_capacity)
        #: pid -> (segment, cast view, capacity, arity)
        self._segments: Dict[int, Tuple[object, object, int, int]] = {}
        self._synced: Dict[int, int] = {}  # pid -> rows mirrored so far
        self._retired = _Retired()
        self._uid = uuid.uuid4().hex[:12]
        self._counter = 0
        self._rebuilds: Optional[int] = None
        self._watermark = 0
        self._terms = 0
        self._predicates = 0
        self._first_sync = True
        self._closed = False
        #: The directory of the most recent sync — what a *full-state*
        #: :meth:`snapshot` for a respawned worker re-ships.
        self._directory: Tuple[SegmentEntry, ...] = ()
        #: Unlinking is the owner's job alone: a forked child that inherits
        #: this object (atexit entry, SIGTERM handler) must never destroy
        #: segments the engine is still serving to other workers.
        self._owner_pid = os.getpid()
        #: Total segment bytes currently allocated (the grow telemetry).
        self.allocated_bytes = 0
        _STORES.add(self)
        _install_sigterm_chain()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> Tuple[str, ...]:
        """Names of every live segment (tests assert emptiness after close)."""
        return tuple(seg.name for seg, _, _, _ in self._segments.values())

    def reset(self) -> None:
        """Forget the mirrored index; keep segments for the next run.

        The keep-alive handshake of the pool: a new run builds a fresh
        engine index whose stamps and interner start over, so the mirrored
        lengths and symbol counters must start over with it.  Allocated
        segments are recycled — the next :meth:`sync` overwrites them from
        offset zero (with ``reset=True``, so replicas rescan).
        """
        self._synced = {}
        self._rebuilds = None
        self._watermark = 0
        self._terms = 0
        self._predicates = 0
        self._first_sync = True
        self._directory = ()

    def close(self) -> None:
        """Unlink every segment; idempotent, also runs at interpreter exit.

        Signal-safe: only the creating process unlinks (forked children that
        inherit the atexit entry or the SIGTERM handler are no-ops here),
        each segment is drained one at a time, and an interruption mid-drain
        (``KeyboardInterrupt``, a re-raised ``SystemExit`` from the SIGTERM
        chain) re-opens the store so a later ``close`` — e.g. the atexit
        pass — finishes unlinking the remainder instead of leaking it.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        try:
            while self._segments:
                _, (segment, view, _, _) = self._segments.popitem()
                try:
                    view.release()
                except BufferError:  # pragma: no cover - pinned by a stray view
                    pass
                try:
                    segment.close()
                except BufferError:  # pragma: no cover
                    self._retired._entries.append(segment)
                try:
                    segment.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
            self._retired.drain()
        except BaseException:  # pragma: no cover - interrupted teardown
            self._closed = False
            atexit.register(self.close)
            raise
        self._synced = {}
        self._directory = ()
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    def _allocate(self, pid: int, arity: int, capacity: int):
        """A fresh segment sized for ``(1 + arity)`` columns of *capacity*."""
        self._counter += 1
        name = f"repro-{os.getpid()}-{self._uid}-{self._counter}"
        nbytes = max(1, (1 + arity) * capacity) * _ITEM
        segment = _shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        view = segment.buf.cast("q")
        self.allocated_bytes += nbytes
        return segment, view, nbytes

    def _ensure_segment(self, pid: int, arity: int, needed: int, tracer):
        """The (segment, view, capacity) able to hold *needed* rows.

        Grow-by-doubling: an undersized or wrong-arity segment is replaced
        by one with the next power-of-two capacity and retired (unlinked
        right away — the name is free, attached workers keep their pages).
        Returns ``(entry, grew)``.
        """
        entry = self._segments.get(pid)
        if entry is not None and entry[3] == arity and entry[2] >= needed:
            return entry, False
        capacity = self._initial_capacity
        if entry is not None and entry[3] == arity:
            capacity = max(capacity, entry[2])
        while capacity < needed:
            capacity *= 2
        segment, view, nbytes = self._allocate(pid, arity, capacity)
        replaced = entry is not None
        if replaced:
            old_segment, old_view, old_capacity, old_arity = entry
            self.allocated_bytes -= max(1, (1 + old_arity) * old_capacity) * _ITEM
            self._retired.add(old_segment, (old_view,))
            try:
                old_segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        entry = (segment, view, capacity, arity)
        self._segments[pid] = entry
        if tracer is not None:
            tracer.event(
                "parallel.shm.grow",
                segment=segment.name,
                pid=pid,
                bytes=nbytes,
                capacity=capacity,
                grown=replaced,
            )
        return entry, True

    # ------------------------------------------------------------------
    def sync(self, index) -> Optional[ShmSync]:
        """Mirror *index* into the segments; the control message, or ``None``.

        Only the column suffixes appended since the last sync are copied
        (one ``memoryview`` slice assignment per column); a rebuild (or the
        first sync after :meth:`reset`) re-mirrors everything with
        ``reset=True``.  Emits ``parallel.shm.grow`` / ``parallel.shm.attach``
        trace events for segment allocations and directory changes — the
        engine-side ledger of what the workers are about to map.
        """
        if self._closed:
            raise RuntimeError("shared-memory store is closed")
        interner = index.interner
        watermark = index.watermark()
        term_count = interner.term_count()
        predicate_count = interner.predicate_count()
        reset = self._first_sync or self._rebuilds != index.rebuilds
        if (
            not reset
            and watermark == self._watermark
            and term_count == self._terms
            and predicate_count == self._predicates
        ):
            return None
        tracer = get_tracer()
        if reset:
            self._synced = {}
        term_base = self._terms
        predicate_base = self._predicates
        directory: List[SegmentEntry] = []
        by_predicate, _ = index.tables()
        for pid in sorted(by_predicate):
            posting = by_predicate[pid]
            length = posting.length
            arity = len(posting.cols)
            entry, grew = self._ensure_segment(pid, arity, max(length, 1), tracer)
            segment, view, capacity, _ = entry
            synced = 0 if grew else self._synced.get(pid, 0)
            if synced > length:  # pragma: no cover - defensive
                synced = 0
            if synced < length:
                view[synced:length] = memoryview(posting.stamps)[synced:length]
                for position, column in enumerate(posting.cols):
                    base = (1 + position) * capacity
                    view[base + synced : base + length] = memoryview(column)[
                        synced:length
                    ]
            self._synced[pid] = length
            if tracer is not None and (grew or reset):
                tracer.event(
                    "parallel.shm.attach",
                    segment=segment.name,
                    pid=pid,
                    bytes=(1 + arity) * length * _ITEM,
                    rows=length,
                )
            directory.append(
                SegmentEntry(
                    pid=pid,
                    arity=arity,
                    name=segment.name,
                    capacity=capacity,
                    length=length,
                )
            )
        self._retired.drain()
        self._rebuilds = index.rebuilds
        self._watermark = watermark
        self._terms = term_count
        self._predicates = predicate_count
        self._directory = tuple(directory)
        first = self._first_sync
        self._first_sync = False
        return ShmSync(
            reset=reset,
            term_base=0 if first else term_base,
            terms=tuple(interner.terms_since(0 if first else term_base)),
            predicate_base=0 if first else predicate_base,
            predicates=tuple(
                interner.predicates_since(0 if first else predicate_base)
            ),
            directory=tuple(directory),
            watermark=watermark,
            rebuilds=index.rebuilds,
        )

    # ------------------------------------------------------------------
    def snapshot(self, index) -> ShmSync:
        """A *full-state* sync message for a replica that knows nothing.

        The respawn path of the resilient pool: a worker brought up
        mid-run must install the complete symbol tables and rescan every
        directory entry from offset zero, against the *current* shm
        generation — incremental suffixes would silently desync it.  Brings
        the mirror current first if the index moved since the last
        :meth:`sync`, then re-ships the whole directory with ``reset=True``.
        """
        if self._closed:
            raise RuntimeError("shared-memory store is closed")
        if (
            self._first_sync
            or self._rebuilds != index.rebuilds
            or self._watermark != index.watermark()
            or self._terms != index.interner.term_count()
            or self._predicates != index.interner.predicate_count()
        ):
            self.sync(index)
        interner = index.interner
        return ShmSync(
            reset=True,
            term_base=0,
            terms=tuple(interner.terms_since(0)),
            predicate_base=0,
            predicates=tuple(interner.predicates_since(0)),
            directory=self._directory,
            watermark=self._watermark,
            rebuilds=self._rebuilds if self._rebuilds is not None else 0,
        )


class SegmentCache:
    """Worker-side attachments, keyed by segment name.

    Attachments are non-owning views (see :func:`_attach_segment`); stale
    ones — segments no longer named by the current directory — are released
    as soon as the replica has re-bound its posting lists off the new
    directory.  A released segment whose buffer is still pinned by a cached
    executor preamble is retired and re-offered later, exactly like the
    engine side.
    """

    __slots__ = ("_attached", "_retired")

    def __init__(self) -> None:
        #: name -> (segment, cast 'q' view)
        self._attached: Dict[str, Tuple[object, object]] = {}
        self._retired = _Retired()

    def view(self, name: str):
        """The cast ``'q'`` view of segment *name*, attaching on first use."""
        entry = self._attached.get(name)
        if entry is None:
            segment = _attach_segment(name)
            entry = self._attached[name] = (segment, segment.buf.cast("q"))
        return entry[1]

    def release_except(self, live_names) -> None:
        """Release attachments the current directory no longer references."""
        stale = [name for name in self._attached if name not in live_names]
        for name in stale:
            segment, view = self._attached.pop(name)
            self._retired.add(segment, (view,))
        self._retired.drain()

    def close(self) -> None:
        """Release every attachment (worker shutdown)."""
        attached, self._attached = self._attached, {}
        for segment, view in attached.values():
            self._retired.add(segment, (view,))
        self._retired.drain()
