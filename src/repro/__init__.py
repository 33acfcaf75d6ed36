"""repro — Efficient network reliability computation in uncertain graphs.

A from-scratch Python implementation of the EDBT 2019 paper *"Efficient
Network Reliability Computation in Uncertain Graphs"* (Sasaki, Fujiwara,
Onizuka): the S²BDD estimator with stratified sample reduction, the
extension technique based on 2-edge-connected components, the sampling and
exact-BDD baselines, and the full experiment harness reproducing the
paper's tables and figures.

Quickstart
----------
The session API is :class:`ReliabilityEngine`: configure once, ``prepare``
a graph once (building the 2-edge-connected decomposition index the paper
precomputes), then answer many queries with amortized preprocessing.

>>> from repro import EstimatorConfig, ReliabilityEngine, UncertainGraph
>>> g = UncertainGraph.from_edge_list(
...     [("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.7), ("c", "d", 0.95)]
... )
>>> engine = ReliabilityEngine(EstimatorConfig(samples=1000, rng=0))
>>> result = engine.prepare(g).estimate(["a", "d"])
>>> result.exact  # small graphs are solved exactly
True
>>> batch = engine.estimate_many([["a", "c"], ["b", "d"]])
>>> engine.stats.decompositions_computed  # the index is reused
1

Beyond plain estimation, every analysis workload is a *typed query*
answered by the same session — ``KTerminalQuery``, ``ThresholdQuery``,
``ReliabilitySearchQuery``, ``TopKReliableVerticesQuery``,
``ReliableSubgraphQuery``, and ``ClusteringQuery`` — and sampling-driven
queries share one pool of sampled possible worlds per prepared graph:

>>> from repro import ReliabilitySearchQuery, ThresholdQuery
>>> hit = engine.query(ThresholdQuery(terminals=("a", "d"), threshold=0.5))
>>> reachable = engine.query(ReliabilitySearchQuery(sources=("a",), threshold=0.5))
>>> engine.stats.world_pools_built  # search sampled the shared pool once
1

Every reliability method is a named *backend* (``"s2bdd"`` — the paper's
approach — ``"sampling"``, ``"exact-bdd"``, ``"brute"``) selected through
``EstimatorConfig(backend=...)``; see :func:`available_backends` and
:func:`register_backend` for the registry.  The one-shot helpers
:func:`estimate_reliability` / :class:`ReliabilityEstimator` remain as
deprecated shims over the engine (they emit ``DeprecationWarning``), and
the :mod:`repro.analysis` functions are thin wrappers over the typed
queries.

To *serve* queries to many clients, the service layer
(:mod:`repro.service`, imported explicitly) adds a graph catalog, a
result cache with bit-exact hits, request coalescing, and a JSON/HTTP
front-end: ``python -m repro.service --graphs karate`` (or the
``repro-serve`` console script).
"""

from repro.baselines import (
    ExactBDD,
    SamplingEstimator,
    brute_force_reliability,
    exact_bdd_reliability,
)
from repro.core import (
    EdgeOrdering,
    EstimatorKind,
    ReliabilityBounds,
    ReliabilityEstimator,
    ReliabilityResult,
    S2BDD,
    estimate_reliability,
    exact_reliability,
    reduced_sample_count,
)
from repro.engine import (
    ClusteringQuery,
    EngineStats,
    EstimatorConfig,
    KTerminalQuery,
    Query,
    QueryResult,
    ReliabilityBackend,
    ReliabilityEngine,
    ReliabilitySearchQuery,
    ReliableSubgraphQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
    UnknownBackendError,
    WorldPool,
    available_backends,
    create_backend,
    query_from_dict,
    register_backend,
    result_from_dict,
    results_checksum,
)
from repro.exceptions import (
    BDDLimitExceededError,
    ConfigurationError,
    DatasetError,
    EstimatorError,
    GraphError,
    InvalidProbabilityError,
    PreprocessError,
    ReproError,
    TerminalError,
)
from repro.graph import Edge, UncertainGraph
from repro.preprocess import preprocess

__version__ = "1.2.0"

__all__ = [
    "BDDLimitExceededError",
    "ClusteringQuery",
    "ConfigurationError",
    "DatasetError",
    "Edge",
    "EdgeOrdering",
    "EngineStats",
    "EstimatorConfig",
    "EstimatorError",
    "EstimatorKind",
    "ExactBDD",
    "GraphError",
    "InvalidProbabilityError",
    "KTerminalQuery",
    "PreprocessError",
    "Query",
    "QueryResult",
    "ReliabilityBackend",
    "ReliabilityBounds",
    "ReliabilityEngine",
    "ReliabilityEstimator",
    "ReliabilityResult",
    "ReliabilitySearchQuery",
    "ReliableSubgraphQuery",
    "ReproError",
    "S2BDD",
    "SamplingEstimator",
    "TerminalError",
    "ThresholdQuery",
    "TopKReliableVerticesQuery",
    "UncertainGraph",
    "UnknownBackendError",
    "WorldPool",
    "__version__",
    "available_backends",
    "brute_force_reliability",
    "create_backend",
    "estimate_reliability",
    "exact_bdd_reliability",
    "exact_reliability",
    "preprocess",
    "query_from_dict",
    "reduced_sample_count",
    "register_backend",
    "result_from_dict",
    "results_checksum",
]
