"""Baseline reliability algorithms the paper compares against.

* :mod:`repro.baselines.brute_force` — exact enumeration of all possible
  worlds; only feasible for tiny graphs, used as the ground-truth oracle in
  the test suite.
* :mod:`repro.baselines.sampling` — the classic sampling approach
  (``Sampling(MC)`` and ``Sampling(HT)`` in the paper's figures): draw
  possible worlds and aggregate the connectivity indicator.
* :mod:`repro.baselines.exact_bdd` — the exact frontier-based BDD
  (TdZDD-style).  It runs the S²BDD's construction loop with no deletions
  and no priority sort.  It is exact but its layer width grows
  exponentially, so it raises :class:`repro.exceptions.BDDLimitExceededError`
  once its node budget is passed on large graphs — the paper's "DNF"
  outcome.
"""

from repro.baselines.brute_force import brute_force_reliability, brute_force_reliability_exact
from repro.baselines.exact_bdd import ExactBDD, exact_bdd_reliability
from repro.baselines.sampling import SamplingEstimator, SamplingResult

__all__ = [
    "ExactBDD",
    "SamplingEstimator",
    "SamplingResult",
    "brute_force_reliability",
    "brute_force_reliability_exact",
    "exact_bdd_reliability",
]
