"""The paper's primary contribution.

``repro.core`` implements the S²BDD-based approximate network-reliability
estimator:

* :mod:`repro.core.frontier` — edge orderings and frontier bookkeeping for
  the frontier-based diagram construction,
* :mod:`repro.core.state` — canonical node states (frontier partition +
  per-component terminal information) and the exact layer transition,
* :mod:`repro.core.stratified` — the sample-count reduction of Theorems 1
  and 2,
* :mod:`repro.core.estimators` — Monte Carlo and Horvitz–Thompson
  estimators,
* :mod:`repro.core.s2bdd` — the scalable-and-sampling BDD construction
  (generating, merging, deleting, and sampling procedures),
* :mod:`repro.core.reliability` — the uniform result type and the exact
  reliability helper.
"""

from repro.core.bounds import ReliabilityBounds
from repro.core.estimators import (
    EstimatorKind,
    horvitz_thompson_estimate,
    monte_carlo_estimate,
)
from repro.core.frontier import EdgeOrdering, FrontierPlan, order_edges
from repro.core.reliability import ReliabilityResult, exact_reliability
from repro.core.s2bdd import S2BDD, S2BDDResult
from repro.core.stratified import reduced_sample_count

__all__ = [
    "EdgeOrdering",
    "EstimatorKind",
    "FrontierPlan",
    "ReliabilityBounds",
    "ReliabilityResult",
    "S2BDD",
    "S2BDDResult",
    "exact_reliability",
    "horvitz_thompson_estimate",
    "monte_carlo_estimate",
    "order_edges",
    "reduced_sample_count",
]
