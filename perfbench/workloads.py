"""The two in-process workloads: one op, and the check of its output.

Each class is built once per process (its set-up), then :meth:`op` runs one
timed operation and :meth:`check` decides whether that op's output is
correct.  ``expected`` holds everything a check compares against, so the
self-test can corrupt it.
"""

from __future__ import annotations

from repro.chase.tgd import parse_tgds
from repro.core.builders import structure_from_text
from repro.engine import run_chase
from repro.rainworm.examples import (
    forever_creeping_machine,
    halting_after_two_cycles_machine,
)
from repro.reduction.pipeline import reduce_machine
from repro.reduction.theorem1 import (
    creeping_direction_evidence,
    halting_direction_evidence,
)
from repro.separating.theorem14 import gather_theorem14_evidence

from inputs import THM1_SIZES, ChaseInputs, facts_text


class ChaseTC:
    """``run_chase`` of the two-rule transitive closure on a seeded chain."""

    name = "chase-tc"

    def __init__(self, seed: int) -> None:
        inputs = ChaseInputs(seed)
        self.tgds = parse_tgds(*inputs.rules)
        self.instance = structure_from_text(facts_text("R", inputs.edges))
        self.expected = {"S": inputs.closure}

    def op(self):
        return run_chase(self.tgds, self.instance)

    def check(self, result) -> bool:
        produced = {
            (str(atom.args[0]), str(atom.args[1]))
            for atom in result.structure.atoms_with_predicate("S")
        }
        return result.reached_fixpoint and produced == self.expected["S"]


class Paper:
    """The paper's two constructions, one after the other, as one op.

    The separating example of Theorem 14, bounded as in experiment E5, then
    the Theorem 1 reduction: its sizes, then both directions of Lemma 24.
    """

    name = "paper"

    def __init__(self, seed: int) -> None:
        self.seed = seed  # recorded only: the inputs are fixed by the paper
        self.expected = {
            "consistent_with_theorem": True,
            "sizes": dict(THM1_SIZES),
            "supports_lemma24": True,
        }

    def op(self):
        # Only the verdict is kept, so that the Theorem 14 structures are
        # freed before the Theorem 1 half runs, as they would be in separate
        # calls.
        consistent = gather_theorem14_evidence(
            prefix_stages=7, merged_lengths=((3, 2), (4, 3))
        ).consistent_with_theorem
        sizes = reduce_machine(halting_after_two_cycles_machine()).sizes()
        halting = halting_direction_evidence(halting_after_two_cycles_machine())
        creeping = creeping_direction_evidence(
            forever_creeping_machine(), simulate_steps=7, chase_stages=9
        )
        return consistent, sizes, halting, creeping

    def check(self, output) -> bool:
        consistent, sizes, halting, creeping = output
        wanted = self.expected["supports_lemma24"]
        return (
            consistent == self.expected["consistent_with_theorem"]
            and sizes == self.expected["sizes"]
            and sizes["views"] == sizes["level1_rules"]
            and halting.supports_lemma24 == wanted
            and creeping.supports_lemma24 == wanted
        )


IN_PROCESS = {cls.name: cls for cls in (ChaseTC, Paper)}
