"""Theorem 2 (outline): finite determinacy without FO-rewritability.

The paper's Theorem 2 exhibits ``Q`` (the separating example's query set)
and ``Q0`` such that ``Q`` finitely determines ``Q0`` but the function
``h^{Q0}_Q`` is not FO-definable.  The proof outline (Section IX) produces,
for every quantifier rank ``l``, two structures ``Dy`` and ``Dn`` over ``Σ``
such that

* ``Dy ⊨ Q0`` and ``Dn ⊭ Q0`` (so any rewriting must tell them apart), yet
* the view images ``Q(Dy)`` and ``Q(Dn)`` are indistinguishable by FO
  sentences of quantifier rank ``l``.

This module gathers the bounded empirical counterpart of that outline for
the simpler query set ``Q∞``: it builds ``Dy`` / ``Dn`` for a given size
parameter, evaluates ``Q0`` on both, and runs the Ehrenfeucht–Fraïssé solver
on the two *view images* for small numbers of rounds.  The full paper
construction replaces ``Q∞`` by ``Q = Compile(Precompile(T∞ ∪ T□))`` and
takes ``i`` genuinely large; the report records exactly which parameters
were explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.query import ConjunctiveQuery
from ..separating.theorem14 import full_green_spider_query
from .ef_games import duplicator_wins
from .q_infinity import q_infinity_universe
from .views_pair import ViewsPair, build_views_pair


@dataclass
class Theorem2Report:
    """The outcome of the bounded Theorem 2 experiment."""

    pair: ViewsPair
    query: ConjunctiveQuery
    q0_on_dy: bool
    q0_on_dn: bool
    ef_rounds_checked: Dict[int, bool]

    @property
    def q0_separates(self) -> bool:
        """``Dy ⊨ Q0`` while ``Dn ⊭ Q0`` — the rewriting would have to notice."""
        return self.q0_on_dy and not self.q0_on_dn

    def views_indistinguishable_up_to(self) -> Optional[int]:
        """The largest checked number of EF rounds the Duplicator survives."""
        winning = [rounds for rounds, won in self.ef_rounds_checked.items() if won]
        return max(winning) if winning else None

    @property
    def consistent_with_theorem(self) -> bool:
        """Q0 separates the structures while the checked view images do not."""
        return self.q0_separates and all(self.ef_rounds_checked.values())


def run_theorem2_experiment(
    i: int = 3,
    copies: int = 2,
    max_rounds: int = 1,
    max_atoms: int = 60_000,
) -> Theorem2Report:
    """Build ``Dy``/``Dn`` and check the two halves of the Theorem 2 outline.

    ``max_rounds`` bounds the EF games played on the view images (the game
    solver is exponential in the number of rounds; rank 1–2 is what a laptop
    affords on these structures, and already rank 1 requires the two images
    to realise exactly the same atom types — the qualitative content of the
    outline's "the ends are too far apart for FO to relate them").
    """
    pair = build_views_pair(i, copies=copies, max_atoms=max_atoms)
    query = full_green_spider_query(q_infinity_universe(), name="Q0")
    q0_dy = query.holds(pair.dy)
    q0_dn = query.holds(pair.dn)
    image_dy, image_dn = pair.view_images()
    rounds_results: Dict[int, bool] = {}
    for rounds in range(1, max_rounds + 1):
        rounds_results[rounds] = duplicator_wins(image_dy, image_dn, rounds)
    return Theorem2Report(
        pair=pair,
        query=query,
        q0_on_dy=q0_dy,
        q0_on_dn=q0_dn,
        ef_rounds_checked=rounds_results,
    )
