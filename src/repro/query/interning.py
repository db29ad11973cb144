"""Dense-integer interning of terms and predicates (the symbol tables).

Everything the compiled query runtime touches per tuple — posting-list rows,
register files, hash-join keys — is encoded as small Python ints instead of
the original term objects.  The mapping is owned by an :class:`Interner`,
one per structure (it lives inside the structure's
:class:`~repro.engine.indexes.AtomIndex`, which is maintained through the
:class:`~repro.core.structure.StructureListener` protocol and registered in
the :class:`~repro.query.context.EvalContext`).

Why ints: the object tuples the PR-2 evaluator matched on pay a full
``__eq__``/``__hash__`` dispatch per comparison (dataclass ``Variable`` /
``Constant`` / ``LabeledNull`` equality walks fields), while the interned
encoding compares with pointer-fast small-int equality and hashes for free.
The ID space is *dense* (``0..len-1``), so decoding is a list lookup.

Invariants:

* interning is **append-only** — an ID, once handed out, never changes and
  never dangles, even across index rebuilds (atom removal rebuilds posting
  lists but keeps the symbol tables), so compiled query plans that embed IDs
  stay valid for the lifetime of the structure;
* terms and predicates are interned by **equality** (the same ``Variable``
  or ``Constant`` value always gets the same ID), which is exactly the
  equality the reference homomorphism search matches on;
* the tables are **wire-stable**: because IDs are dense and append-only, a
  remote replica (see :mod:`repro.engine.parallel`) can be kept in sync by
  shipping only the suffix of each table added since the last sync
  (:meth:`Interner.terms_since` / :meth:`Interner.install_terms`), and an
  encoded fact row means the same atom on both sides of the process
  boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom


class Interner:
    """Append-only symbol tables: terms and predicate names ↔ dense ints."""

    __slots__ = ("_term_ids", "_terms", "_predicate_ids", "_predicates")

    def __init__(self) -> None:
        self._term_ids: Dict[object, int] = {}
        self._terms: List[object] = []
        self._predicate_ids: Dict[str, int] = {}
        self._predicates: List[str] = []

    # ------------------------------------------------------------------
    # Terms
    # ------------------------------------------------------------------
    def intern_term(self, term: object) -> int:
        """The ID of *term*, allocating the next dense ID on first sight."""
        tid = self._term_ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._term_ids[term] = tid
            self._terms.append(term)
        return tid

    def term_id(self, term: object) -> Optional[int]:
        """The ID of *term*, or ``None`` when it was never interned."""
        return self._term_ids.get(term)

    def term(self, tid: int) -> object:
        """The term behind *tid* (IDs are dense, so this is a list lookup)."""
        return self._terms[tid]

    def term_count(self) -> int:
        return len(self._terms)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def intern_predicate(self, name: str) -> int:
        """The ID of predicate *name*, allocating on first sight."""
        pid = self._predicate_ids.get(name)
        if pid is None:
            pid = len(self._predicates)
            self._predicate_ids[name] = pid
            self._predicates.append(name)
        return pid

    def predicate_id(self, name: str) -> Optional[int]:
        """The ID of predicate *name*, or ``None`` when never interned."""
        return self._predicate_ids.get(name)

    def predicate(self, pid: int) -> str:
        return self._predicates[pid]

    def predicate_count(self) -> int:
        return len(self._predicates)

    # ------------------------------------------------------------------
    # Replica synchronisation (cross-process replicas)
    # ------------------------------------------------------------------
    def terms_since(self, start: int) -> List[object]:
        """The terms with IDs ``start, start+1, …`` (empty when up to date)."""
        return self._terms[start:]

    def predicates_since(self, start: int) -> List[str]:
        """The predicate names with IDs ``start, start+1, …``."""
        return self._predicates[start:]

    def install_terms(self, terms: Sequence[object], base: int) -> None:
        """Append *terms* with IDs ``base, base+1, …`` (replica side).

        The replica must be exactly *base* terms long: IDs are positional,
        so installing against a diverged table would silently remap facts.
        The parallel discovery protocol guarantees alignment by pre-interning
        everything a worker could ever intern on its own (rule constants and
        predicates) before the first sync.
        """
        if base != len(self._terms):
            raise ValueError(
                f"interner replica out of sync: has {len(self._terms)} terms, "
                f"sync expects {base}"
            )
        for term in terms:
            self._term_ids[term] = len(self._terms)
            self._terms.append(term)

    def install_predicates(self, names: Sequence[str], base: int) -> None:
        """Append predicate *names* with IDs ``base, base+1, …`` (replica side)."""
        if base != len(self._predicates):
            raise ValueError(
                f"interner replica out of sync: has {len(self._predicates)} "
                f"predicates, sync expects {base}"
            )
        for name in names:
            self._predicate_ids[name] = len(self._predicates)
            self._predicates.append(name)

    # ------------------------------------------------------------------
    # Fact encoding
    # ------------------------------------------------------------------
    def encode_atom(self, atom: Atom) -> Tuple[int, Tuple[int, ...]]:
        """``(predicate ID, argument-ID row)`` of a ground atom, interning."""
        return (
            self.intern_predicate(atom.predicate),
            tuple(self.intern_term(arg) for arg in atom.args),
        )

    def decode_atom(self, pid: int, row: Tuple[int, ...]) -> Atom:
        """Rebuild the :class:`Atom` behind an encoded ``(pid, row)`` fact."""
        terms = self._terms
        return Atom(self._predicates[pid], tuple(terms[tid] for tid in row))
