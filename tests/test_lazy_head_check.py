"""The lazy strategy's head check against its two query-based oracles.

:meth:`repro.engine.strategies.FiringStrategy.should_fire` decides the
paper's condition (­), ``D ⊭ ∃z̄ Ψ(z̄, b̄)``.  For a full TGD the head is
ground at the frontier image, so the strategy answers by atom membership
in the structure the index follows and runs no query.  These tests hold
that branch against both query-based answers: the compiled
:func:`~repro.engine.delta.head_satisfied_indexed` and the reference
:func:`~repro.chase.trigger.head_satisfied`.  Cases are seeded random full
TGDs with rigid constants and repeated variables in the head, two-atom
heads with exactly one ground atom already present, and frontier images
that occur nowhere in the structure.
"""

import random

import pytest

from repro import obs
from repro.chase import parse_tgds
from repro.chase.tgd import TGD
from repro.chase.trigger import head_satisfied
from repro.core.atoms import Atom
from repro.core.structure import Structure
from repro.core.terms import Constant, Variable
from repro.engine import AtomIndex, head_satisfied_indexed, lazy_strategy, run_chase
from repro.obs.metrics import MetricsRegistry

_SEEDS = list(range(12))
_CONSTANT = Constant("c")


def _plan_lookups(index):
    cache = index.plan_cache
    if cache is None:
        return 0
    return cache.hits + cache.stale_hits + cache.misses


def random_full_case(seed):
    """Seeded full TGDs, a structure, and frontier images to check.

    Heads draw from the body variables and the rigid constant ``c`` over a
    small pool, so repeated variables occur often; the images mix
    structure elements with ``ghost`` elements that occur nowhere in it.
    For every two-atom head whose ground atoms differ, one image gets
    exactly its first ground atom added to the structure.
    """
    rng = random.Random(seed)
    predicates = [f"P{i}" for i in range(rng.randint(2, 3))]
    arity = {p: rng.randint(1, 3) for p in predicates}

    def atom(pool):
        predicate = rng.choice(predicates)
        return Atom(predicate, tuple(rng.choice(pool) for _ in range(arity[predicate])))

    body_pool = [Variable(n) for n in ("x", "y", "z")]
    rules = []
    for i in range(rng.randint(3, 6)):
        body = [atom(body_pool) for _ in range(rng.randint(1, 2))]
        head_pool = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        ) + [_CONSTANT]
        rules.append(TGD(f"f{i}", body, [atom(head_pool) for _ in range(rng.randint(1, 2))]))
    elements = [str(e) for e in range(4)] + [_CONSTANT]
    facts = {atom(elements) for _ in range(rng.randint(6, 16))}
    structure = Structure(sorted(facts, key=repr))
    cases = []
    for tgd in rules:
        for _ in range(6):
            pool = elements + ["ghost", "ghost2"] if rng.random() < 0.3 else elements
            cases.append(
                (tgd, tuple((var, rng.choice(pool)) for var in tgd.frontier_order))
            )
        if len(tgd.head) == 2:
            frontier = tuple((var, rng.choice(elements)) for var in tgd.frontier_order)
            first, second = (a.substitute(dict(frontier)) for a in tgd.head)
            if first != second:
                structure.remove_atom(second)
                structure.add_atom(first)
                cases.append((tgd, frontier))
    return rules, structure, cases


@pytest.mark.parametrize("seed", _SEEDS)
def test_full_head_membership_matches_both_query_oracles(seed):
    rules, structure, cases = random_full_case(seed)
    assert all(tgd.is_full() for tgd in rules)
    index = AtomIndex(structure)
    strategy = lazy_strategy()
    verdicts = [
        strategy.should_fire(tgd, frontier, frontier, index) for tgd, frontier in cases
    ]
    # The membership branch ran no query: no compiled plan was looked up.
    assert _plan_lookups(index) == 0
    for (tgd, frontier), fires in zip(cases, verdicts):
        binding = dict(frontier)
        label = (seed, tgd, frontier)
        assert fires == (not head_satisfied_indexed(tgd, index, binding)), label
        assert fires == (not head_satisfied(tgd, structure, binding)), label


def test_the_generator_covers_every_case_shape():
    half_present = absent_images = repeated = rigid = satisfied = 0
    for seed in _SEEDS:
        rules, structure, cases = random_full_case(seed)
        domain = structure.domain()
        for tgd, frontier in cases:
            ground = [a.substitute(dict(frontier)) for a in tgd.head]
            present = [a in structure for a in ground]
            half_present += len(ground) == 2 and present[0] and not present[1]
            absent_images += any(value not in domain for _, value in frontier)
            satisfied += all(present)
        for tgd in rules:
            for a in tgd.head:
                repeated += len(set(a.variables())) < sum(
                    isinstance(arg, Variable) for arg in a.args
                )
                rigid += _CONSTANT in a.args
    assert min(half_present, absent_images, repeated, rigid, satisfied) >= 3


def test_existential_heads_and_detached_indexes_keep_the_compiled_query():
    tgd = parse_tgds("R(x,y) -> S(y,z), S(z,x)")[0]
    full = parse_tgds("R(x,y) -> S(y,x)")[0]
    structure = Structure([Atom("R", ("1", "2")), Atom("S", ("2", "3")), Atom("S", ("3", "1"))])
    index = AtomIndex(structure)
    strategy = lazy_strategy()
    x, y = tgd.frontier_order
    assert not strategy.should_fire(tgd, None, ((x, "1"), (y, "2")), index)
    assert strategy.should_fire(tgd, None, ((x, "2"), (y, "1")), index)
    assert _plan_lookups(index) == 2
    index.detach()
    assert strategy.should_fire(full, None, ((x, "1"), (y, "2")), index)
    assert _plan_lookups(index) == 3


def test_lazy_transitive_closure_looks_up_plans_only_for_discovery():
    tgds = parse_tgds("E(x,y) -> S(x,y)", "S(x,y), E(y,z) -> S(x,z)")
    chain = Structure(Atom("E", (str(i), str(i + 1))) for i in range(24))
    registry = obs.enable(MetricsRegistry())
    try:
        result = run_chase(tgds, chain)
    finally:
        obs.disable()
    assert result.reached_fixpoint
    assert len(result.provenance) == 24 * 25 // 2
    cache = result.stats.plan_cache
    lookups = cache["hits"] + cache["stale_hits"] + cache["misses"]
    # One compiled-plan lookup per enumerated (TGD, seed position) pair;
    # none of the 300 head checks adds one.
    assert lookups == registry.counters["delta.seeds_enumerated"].value
    assert lookups < len(result.provenance) // 4
