"""The grid rule set ``T□`` (Section VII, Step 2): 41 green graph rules.

The rules detect two αβ-paths that share their endpoints and build a grid
between them; if the two paths have different lengths, the north-western
corner of the grid is off the diagonal and the labels appearing there are
``⟨n, α, d̄, b̄⟩`` and ``⟨w, α, d̄, b̄⟩`` — which the paper identifies with the
designated labels ``1`` and ``2``, i.e. a 1-2 pattern.

The 32 "inner" labels are ``⟨n|e|s|w, α|β, d|d̄, b|b̄⟩``:

* the first parameter is the direction the edge heads;
* the second is inherited from the respective element of the original
  αβ-paths;
* ``d`` / ``d̄`` records whether one of the ends of the edge is on the grid
  diagonal;
* ``b`` / ``b̄`` records whether the edge shares a vertex with one of the
  original αβ-paths.

The rule list below is transcribed from the paper: the grid-triggering rule,
four southern-strip rules, four eastern-strip rules and the two 16-rule
schemes for the interior.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..greengraph.labels import Label, ONE, Parity, TWO
from ..greengraph.rules import GreenGraphRule, GreenGraphRuleSet, and_rule, div_rule
from .t_infinity import ALPHA, BETA0, BETA1

#: Directions, in the paper's order.
DIRECTIONS = ("n", "e", "s", "w")
#: The Θ/Ω parameter.
THETAS = ("α", "β")


def grid_label(direction: str, theta: str, on_diagonal: bool, on_border: bool) -> Label:
    """The label ``⟨direction, theta, d|d̄, b|b̄⟩``.

    The two labels that the paper declares to *be* ``1`` and ``2`` —
    ``⟨n, α, d̄, b̄⟩`` and ``⟨w, α, d̄, b̄⟩`` — are returned as the designated
    :data:`~repro.greengraph.labels.ONE` and :data:`~repro.greengraph.labels.TWO`
    so that the generic 1-2 pattern detector applies unchanged.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if theta not in THETAS:
        raise ValueError(f"unknown Θ parameter {theta!r}")
    if not on_diagonal and not on_border and theta == "α":
        if direction == "n":
            return ONE
        if direction == "w":
            return TWO
    diag = "d" if on_diagonal else "d̄"
    border = "b" if on_border else "b̄"
    return Label(f"⟨{direction},{theta},{diag},{border}⟩", Parity.NONE)


def all_grid_labels() -> List[Label]:
    """All 32 inner-edge labels (including the two designated as 1 and 2)."""
    result: List[Label] = []
    for direction in DIRECTIONS:
        for theta in THETAS:
            for on_diagonal in (True, False):
                for on_border in (True, False):
                    result.append(grid_label(direction, theta, on_diagonal, on_border))
    return result


def grid_triggering_rule() -> GreenGraphRule:
    """``β0 &·· β0 ] ⟨n,β,d,b⟩ &·· ⟨w,β,d,b⟩`` — creates the south-eastern tile."""
    return and_rule(
        BETA0,
        BETA0,
        grid_label("n", "β", True, True),
        grid_label("w", "β", True, True),
        name="T□::trigger",
    )


def southern_strip_rules() -> List[GreenGraphRule]:
    """The four rules building the strip adjacent to the southern border."""
    return [
        div_rule(
            BETA1,
            grid_label("n", "β", True, True),
            grid_label("s", "β", False, True),
            grid_label("e", "β", True, False),
            name="T□::south-1",
        ),
        and_rule(
            BETA0,
            grid_label("s", "β", False, True),
            grid_label("n", "β", False, True),
            grid_label("w", "β", False, False),
            name="T□::south-2",
        ),
        div_rule(
            BETA1,
            grid_label("n", "β", False, True),
            grid_label("s", "β", False, True),
            grid_label("e", "β", False, False),
            name="T□::south-3",
        ),
        and_rule(
            ALPHA,
            grid_label("s", "β", False, True),
            grid_label("n", "β", False, True),
            grid_label("w", "α", False, False),
            name="T□::south-4",
        ),
    ]


def eastern_strip_rules() -> List[GreenGraphRule]:
    """The four rules building the strip adjacent to the eastern border.

    Note on the fourth rule: the paper prints it as
    ``α &·· ⟨w,β,d̄,b⟩ ] ⟨w,β,d̄,b⟩ &·· ⟨n,α,d̄,b̄⟩``, but edges labelled
    ``⟨w,·,·,·⟩`` always point to freshly created grid corners and therefore
    can never share a target with the border's ``α`` edge — with the printed
    rule the label ``⟨n,α,d̄,b̄⟩`` (that is, ``1``) is never produced and the
    whole construction cannot reach a 1-2 pattern.  The mirror image of the
    southern-strip terminal rule (which keys on the ``⟨s,·,·,·⟩`` edge that
    *does* reach the border) is ``α &·· ⟨e,β,d̄,b⟩``; we implement that
    reading, and this note is the record of the substitution.
    """
    return [
        div_rule(
            BETA1,
            grid_label("w", "β", True, True),
            grid_label("e", "β", False, True),
            grid_label("s", "β", True, False),
            name="T□::east-1",
        ),
        and_rule(
            BETA0,
            grid_label("e", "β", False, True),
            grid_label("w", "β", False, True),
            grid_label("n", "β", False, False),
            name="T□::east-2",
        ),
        div_rule(
            BETA1,
            grid_label("w", "β", False, True),
            grid_label("e", "β", False, True),
            grid_label("s", "β", False, False),
            name="T□::east-3",
        ),
        and_rule(
            ALPHA,
            grid_label("e", "β", False, True),
            grid_label("w", "β", False, True),
            grid_label("n", "α", False, False),
            name="T□::east-4",
        ),
    ]


def interior_rules() -> List[GreenGraphRule]:
    """The 32 interior rules (two schemes of 16 rules each)."""
    result: List[GreenGraphRule] = []
    for theta in THETAS:
        for omega in THETAS:
            for x_diag in (True, False):
                for y_diag in (True, False):
                    suffix = f"{theta}{omega}{'d' if x_diag else 'D'}{'d' if y_diag else 'D'}"
                    result.append(
                        and_rule(
                            grid_label("e", theta, x_diag, False),
                            grid_label("s", omega, y_diag, False),
                            grid_label("n", omega, x_diag, False),
                            grid_label("w", theta, y_diag, False),
                            name=f"T□::inner-and-{suffix}",
                        )
                    )
                    result.append(
                        div_rule(
                            grid_label("w", theta, x_diag, False),
                            grid_label("n", omega, y_diag, False),
                            grid_label("s", omega, x_diag, False),
                            grid_label("e", theta, y_diag, False),
                            name=f"T□::inner-div-{suffix}",
                        )
                    )
    return result


def grid_rules() -> GreenGraphRuleSet:
    """The full rule set ``T□`` (41 rules)."""
    rules: List[GreenGraphRule] = [grid_triggering_rule()]
    rules.extend(southern_strip_rules())
    rules.extend(eastern_strip_rules())
    rules.extend(interior_rules())
    return GreenGraphRuleSet(rules, name="T□")


def separating_rules() -> GreenGraphRuleSet:
    """``T = T∞ ∪ T□`` — the separating rule set of Theorem 14."""
    from .t_infinity import t_infinity_rules

    return GreenGraphRuleSet(
        list(t_infinity_rules().rules) + list(grid_rules().rules),
        name="T∞∪T□",
    )
