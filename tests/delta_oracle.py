"""Reference oracle for semi-naive delta body matching.

:func:`repro.engine.delta.compiled_delta_matches` claims to enumerate every
body match in the stage-start prefix that uses at least one delta atom.
This helper computes the same set from first principles with the
authoritative :class:`~repro.core.homomorphism.HomomorphismProblem` search,
so the delta-discovery tests compare the compiled executors against the
definition rather than against another engine path:

1. find every homomorphism of the body into the stage-start prefix, read
   through ``index.atoms(predicate, None, stage_start)``;
2. keep those where the image of some body atom has a stamp in
   ``[delta_lo, stage_start)``;
3. project each onto :func:`~repro.engine.delta.assignment_layout`.
"""

from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.engine.delta import assignment_layout


def oracle_delta_matches(tgd, index, delta_lo, stage_start):
    """Distinct delta body matches of *tgd*, as layout-keyed dictionaries."""
    predicates = sorted({atom.predicate for atom in tgd.body})
    prefix = Structure(
        atom
        for predicate in predicates
        for atom in index.atoms(predicate, None, stage_start)
    )
    delta = {
        atom
        for predicate in predicates
        for atom in index.atoms(predicate, delta_lo, stage_start)
    }
    layout = assignment_layout(tgd)
    rows = set()
    for solution in HomomorphismProblem(list(tgd.body), prefix).solutions():
        if any(atom.substitute(solution) in delta for atom in tgd.body):
            rows.add(tuple(solution[term] for term in layout))
    return [dict(zip(layout, row)) for row in sorted(rows, key=repr)]
