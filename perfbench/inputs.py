"""Seeded inputs of the three workloads, and the values their outputs must match.

Only this module looks at the workload name.  The program under test
receives the generated inputs and nothing else: fact text over HTTP for
``serve-query``, a structure and two TGDs for ``chase-tc``.

* ``serve-query`` and ``chase-tc`` relabel their chain nodes with a
  permutation drawn from the seed, and ``serve-query`` also draws the
  position and the node names of each write from it.
* ``paper`` runs the paper's own constructions.
  Its inputs are fixed by the paper (the separating example of Theorem 14,
  the machines of the Theorem 1 reduction); the seed is recorded with the
  result but changes nothing.
"""

from __future__ import annotations

import random
from typing import List, Tuple

SERVE_CHAIN = 800
SERVE_RULE = "R(x,y), R(y,z) -> S(x,z)"
SERVE_QUERY = "q(x,y) :- R(x,z), S(z,y)"
#: One request in WRITE_EVERY is an ``extend`` write.
WRITE_EVERY = 10

TC_CHAIN = 100
TC_RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")

#: ``reduce_machine(halting_after_two_cycles_machine()).sizes()`` as recorded
#: from the reduction; ``views == level1_rules`` is checked separately.
THM1_SIZES = {
    "instructions": 11,
    "machine_rules": 12,
    "green_graph_rules": 53,
    "level1_rules": 109,
    "views": 109,
    "view_atoms": 127972,
    "query_atoms": 589,
    "universe_legs": 147,
}


def chain_labels(seed: int, nodes: int, prefix: str = "n") -> List[str]:
    """Node names of a chain, position ``i`` labelled by a seeded permutation."""
    names = [f"{prefix}{k}" for k in range(nodes)]
    random.Random(seed).shuffle(names)
    return names


def chain_edges(labels: List[str]) -> List[Tuple[str, str]]:
    return list(zip(labels, labels[1:]))


def facts_text(predicate: str, edges) -> str:
    return "\n".join(f"{predicate}({a}, {b})" for a, b in edges)


class ServeInputs:
    """The ``serve-query`` chain, its query, and a seeded stream of ops.

    Each block of :data:`WRITE_EVERY` ops holds one write at a seeded
    position.  A write adds ``R(a, b)`` on two fresh nodes: its component
    is disjoint from the chain, so the answer set never changes, but every
    write bumps the structure's generation.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        labels = chain_labels(seed, SERVE_CHAIN + 1)
        self.facts = facts_text("R", chain_edges(labels))
        self.rule = SERVE_RULE
        self.query = SERVE_QUERY
        self._rng = random.Random(seed ^ 0x5EED)
        self._used: set = set()
        self._block: List[bool] = []

    def next_op(self) -> Tuple[str, str]:
        """``("query", text)`` or ``("write", fact)``; not thread-safe."""
        if not self._block:
            self._block = [False] * WRITE_EVERY
            self._block[self._rng.randrange(WRITE_EVERY)] = True
        if not self._block.pop():
            return "query", self.query
        while True:
            a, b = self._rng.randrange(10**9), self._rng.randrange(10**9)
            if (a, b) not in self._used:
                self._used.add((a, b))
                return "write", f"R(w{a}, w{b})"


class ChaseInputs:
    """The ``chase-tc`` chain: the TGDs, and the closed form of ``S``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.labels = chain_labels(seed, TC_CHAIN + 1)
        self.rules = TC_RULES
        self.edges = chain_edges(self.labels)
        #: Every pair of chain nodes at distance two or more.
        self.closure = {
            (self.labels[i], self.labels[j])
            for i in range(len(self.labels))
            for j in range(i + 2, len(self.labels))
        }
