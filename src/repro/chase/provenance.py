"""Chase provenance: which rule created which atom, and when.

The paper repeatedly reasons about *stages* of the chase (``chase_i``), about
atoms "added at some stage j with i ≤ j ≤ 2i" (the late chase of Section
IX.B), and about which rule applications produced which edges (the grid
constructions).  Recording provenance during the chase makes all of those
notions first-class values rather than pencil-and-paper bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..core.atoms import Atom
from .trigger import Trigger


class ChaseStep(NamedTuple):
    """A single trigger firing.

    A named tuple rather than a frozen dataclass: the engines build one per
    fired trigger, and a tuple is about half the construction cost.
    """

    stage: int
    trigger: Trigger
    new_atoms: Tuple[Atom, ...]
    new_elements: Tuple[object, ...]

    @property
    def rule_name(self) -> str:
        """Name of the TGD that fired."""
        return self.trigger.tgd.name


@dataclass
class ChaseProvenance:
    """The full record of a chase run."""

    steps: List[ChaseStep] = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(self, step: ChaseStep) -> None:
        """Append a step to the record."""
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    # ------------------------------------------------------------------
    def atoms_created_at_stage(self, stage: int) -> FrozenSet[Atom]:
        """All atoms first created during *stage*."""
        atoms = set()
        for step in self.steps:
            if step.stage == stage:
                atoms.update(step.new_atoms)
        return frozenset(atoms)

    def atoms_created_in_stages(self, stages: Iterable[int]) -> FrozenSet[Atom]:
        """All atoms first created during any of *stages*."""
        wanted = set(stages)
        atoms = set()
        for step in self.steps:
            if step.stage in wanted:
                atoms.update(step.new_atoms)
        return frozenset(atoms)

    def creation_stage(self) -> Dict[Atom, int]:
        """Map each created atom to the stage at which it first appeared."""
        result: Dict[Atom, int] = {}
        for step in self.steps:
            for atom in step.new_atoms:
                result.setdefault(atom, step.stage)
        return result

    def creating_rule(self) -> Dict[Atom, str]:
        """Map each created atom to the name of the rule that created it."""
        result: Dict[Atom, str] = {}
        for step in self.steps:
            for atom in step.new_atoms:
                result.setdefault(atom, step.rule_name)
        return result

    def rule_firing_counts(self) -> Dict[str, int]:
        """How many times each rule fired."""
        counts: Dict[str, int] = {}
        for step in self.steps:
            counts[step.rule_name] = counts.get(step.rule_name, 0) + 1
        return counts

    def elements_created_at_stage(self, stage: int) -> FrozenSet[object]:
        """All fresh elements (labelled nulls) created during *stage*."""
        elements = set()
        for step in self.steps:
            if step.stage == stage:
                elements.update(step.new_elements)
        return frozenset(elements)

    def last_stage(self) -> Optional[int]:
        """The largest stage number that fired anything, or ``None``."""
        if not self.steps:
            return None
        return max(step.stage for step in self.steps)
