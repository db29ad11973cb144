"""Unit tests for TGDs, triggers and the lazy chase."""

import dataclasses
import pickle

import pytest

from repro.chase import (
    TGD,
    TGDError,
    chase,
    chase_fixpoint,
    chase_i,
    find_triggers,
    fire_trigger,
    head_satisfied,
    is_satisfied,
    is_weakly_acyclic,
    parse_tgds,
    terminates_within,
    violated_tgds,
)
from repro.chase.chase import ChaseBudgetExceeded
from repro.core.builders import structure_from_text
from repro.core.terms import FreshNullFactory, LabeledNull, Variable


def test_tgd_parsing_and_variable_classification():
    tgd = TGD.parse("R(x,y), S(y,z) -> T(y,w)", "t")
    assert tgd.frontier() == {Variable("y")}
    assert tgd.existential_variables() == {Variable("w")}
    assert not tgd.is_full()


#: Full and existential rules, repeated and rigid head terms, variables
#: whose names sort differently from their order of appearance.
_MIXED_RULES = (
    "R(x,y), S(y,z) -> T(y,w)",
    "E(x,y) -> S(x,y)",
    "S(x,y), E(y,z) -> S(x,z)",
    "R(b,a) -> T(a,a), U(b,#c)",
    "R(x,y) -> T(y,w), T(w,v), U(x,#c)",
    "P(z), P(a), Q(y) -> Q(z), Q(a)",
    "R(x,x) -> S(x,u), S(u,x)",
    "P(x) -> Q(#c)",
)


def _variables(atoms):
    return {var for atom in atoms for var in atom.variables()}


def test_tgd_variable_orders_match_the_set_definitions():
    for text in _MIXED_RULES:
        tgd = TGD.parse(text, "t")
        body, head = _variables(tgd.body), _variables(tgd.head)
        assert tgd.frontier() == body & head, text
        assert tgd.existential_variables() == head - body, text
        assert tgd.is_full() == (not head - body), text
        by_name = lambda variables: tuple(sorted(variables, key=lambda v: v.name))
        assert tgd.frontier_order == by_name(body & head), text
        assert tgd.existential_order == by_name(head - body), text
        assert tgd.body_query().free_variables == tgd.frontier_order, text
        assert tgd.head_query().free_variables == tgd.frontier_order, text


def test_tgd_equality_and_hash_ignore_the_cached_orders():
    assert [field.name for field in dataclasses.fields(TGD)] == ["name", "body", "head"]
    tgd = TGD.parse(_MIXED_RULES[4], "t")
    twin = TGD.parse(_MIXED_RULES[4], "t")
    object.__setattr__(twin, "_frontier_order", ())
    object.__setattr__(twin, "_existential_order", ())
    assert tgd == twin
    assert hash(tgd) == hash(twin)
    assert len({tgd, twin}) == 1


def test_tgd_pickle_round_trip_keeps_the_cached_orders():
    for text in _MIXED_RULES:
        tgd = TGD.parse(text, "t")
        clone = pickle.loads(pickle.dumps(tgd))
        assert clone == tgd and hash(clone) == hash(tgd)
        assert vars(clone)["_frontier_order"] == tgd.frontier_order
        assert vars(clone)["_existential_order"] == tgd.existential_order


def test_tgd_requires_body_and_head():
    with pytest.raises(TGDError):
        TGD("bad", [], [])


def test_trigger_detection_and_laziness():
    tgd = TGD.parse("R(x,y) -> S(y,z)", "t")
    data = structure_from_text("R(1,2), S(2,3)")
    # The head is already satisfied at y=2, so no active trigger exists.
    assert list(find_triggers(tgd, data)) == []
    assert is_satisfied(tgd, data)


def test_trigger_fires_and_creates_nulls():
    tgd = TGD.parse("R(x,y) -> S(y,z)", "t")
    data = structure_from_text("R(1,2)")
    triggers = list(find_triggers(tgd, data))
    assert len(triggers) == 1
    new_atoms, fresh = fire_trigger(triggers[0], data, FreshNullFactory())
    assert len(new_atoms) == 1
    assert all(isinstance(n, LabeledNull) for n in fresh.values())
    assert is_satisfied(tgd, data)


def test_head_satisfied_respects_frontier_binding():
    tgd = TGD.parse("R(x,y) -> S(y,z)", "t")
    data = structure_from_text("R(1,2), S(9,9)")
    assert not head_satisfied(tgd, data, {Variable("y"): "2"})
    assert head_satisfied(tgd, data, {Variable("y"): "9"})


def test_chase_reaches_fixpoint_on_terminating_set():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    result = chase(tgds, structure_from_text("R(1,2), R(3,4)"), max_stages=10)
    assert result.reached_fixpoint
    assert len(result.structure.atoms_with_predicate("S")) == 2


def test_chase_respects_stage_bound_on_nonterminating_set():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    result = chase(tgds, structure_from_text("R(1,2)"), max_stages=4)
    assert not result.reached_fixpoint
    assert result.stages_run == 4
    # The lazy chase adds exactly one atom per stage on this input.
    assert len(result.structure.atoms()) == 5


def test_chase_snapshots_are_monotone():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    result = chase(tgds, structure_from_text("R(1,2)"), max_stages=4)
    sizes = [len(s.atoms()) for s in result.stage_snapshots]
    assert sizes == sorted(sizes)
    for earlier, later in zip(result.stage_snapshots, result.stage_snapshots[1:]):
        assert earlier.is_substructure_of(later)


def test_chase_i_returns_requested_stage():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    third = chase_i(tgds, structure_from_text("R(1,2)"), 3)
    assert len(third.atoms()) == 4


def test_chase_provenance_records_rules_and_stages():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    result = chase(tgds, structure_from_text("R(1,2)"), max_stages=3)
    counts = result.provenance.rule_firing_counts()
    assert counts == {"tgd0": 3}
    assert result.provenance.last_stage() == 3


def test_chase_atom_budget_stops_run():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    result = chase(tgds, structure_from_text("R(1,2)"), max_stages=500, max_atoms=20)
    assert not result.reached_fixpoint
    assert result.stages_run < 500
    assert len(result.structure.atoms()) <= 25


def test_chase_fixpoint_raises_when_bound_hit():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    with pytest.raises(ChaseBudgetExceeded):
        chase_fixpoint(tgds, structure_from_text("R(1,2)"), max_stages=3)


def test_violated_tgds_lists_unsatisfied_rules():
    tgds = parse_tgds("R(x,y) -> S(x,y)", "S(x,y) -> R(x,y)")
    data = structure_from_text("R(1,2)")
    assert [t.name for t in violated_tgds(tgds, data)] == ["tgd0"]


def test_weak_acyclicity_classification():
    assert is_weakly_acyclic(parse_tgds("R(x,y) -> S(y,x)"))
    assert not is_weakly_acyclic(parse_tgds("R(x,y) -> R(y,z)"))


def test_terminates_within_matches_weak_acyclicity_on_examples():
    data = structure_from_text("R(1,2)")
    assert terminates_within(parse_tgds("R(x,y) -> S(y,x)"), data, 5)
    assert not terminates_within(parse_tgds("R(x,y) -> R(y,z)"), data, 5)


def test_full_tgd_adds_no_nulls():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    result = chase(tgds, structure_from_text("R(1,2)"), max_stages=5)
    assert not any(isinstance(e, LabeledNull) for e in result.structure.domain())
