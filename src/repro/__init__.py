"""repro — a reproduction of Gogacz & Marcinkowski, PODS 2016.

"Red Spider Meets a Rainworm: Conjunctive Query Finite Determinacy Is
Undecidable" proves that it is undecidable whether a set of conjunctive-query
views finitely determines another conjunctive query.  This library implements
every construction the paper uses:

* a relational / conjunctive-query substrate with homomorphisms and views
  (:mod:`repro.core`);
* tuple-generating dependencies and the lazy chase (:mod:`repro.chase`);
* a semi-naive, delta-driven, indexed chase engine (:mod:`repro.engine`)
  that every chase-heavy construction runs on by default;
* a planned, index-backed conjunctive-query evaluator (:mod:`repro.query`)
  that every query-shaped hot path (CQ evaluation, containment, determinacy
  certificates, trigger satisfaction, spider matching) routes through,
  sharing its per-structure indexes with the chase engine;
* the green-red reformulation of determinacy (:mod:`repro.greenred`);
* the spider machinery of [GM15] reconstructed at Abstraction Level 0
  (:mod:`repro.spiders`), swarms at Level 1 (:mod:`repro.swarm`) and green
  graphs at Level 2 (:mod:`repro.greengraph`), together with the
  ``Compile`` / ``Precompile`` translations of Lemma 12;
* the separating example of Section VII (:mod:`repro.separating`);
* rainworm machines and the reduction of Section VIII (:mod:`repro.rainworm`,
  :mod:`repro.reduction`);
* the FO non-rewritability construction of Section IX (:mod:`repro.fo`).

See ``README.md`` for the system overview; the ``benchmarks/bench_*.py``
modules print the paper-versus-measured record of every reproduced
construction.
"""

__version__ = "1.0.0"

from . import core  # noqa: F401  (re-exported for convenience)

__all__ = ["core", "__version__"]
