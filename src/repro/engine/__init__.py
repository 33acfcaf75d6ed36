"""Session-based reliability query engine with pluggable backends.

This package is the library's query layer:

* :mod:`repro.engine.config` — :class:`EstimatorConfig`, the one frozen,
  validated, JSON-round-trippable configuration shared by every backend,
  the experiment harness, and the CLI,
* :mod:`repro.engine.registry` — the backend registry: every reliability
  method (``"s2bdd"``, ``"sampling"``, ``"exact-bdd"``, ``"brute"``) is
  selectable by name through one uniform :class:`ReliabilityBackend`
  protocol,
* :mod:`repro.engine.queries` — the typed query surface: every analysis
  workload (:class:`KTerminalQuery`, :class:`ThresholdQuery`,
  :class:`ReliabilitySearchQuery`, :class:`TopKReliableVerticesQuery`,
  :class:`ReliableSubgraphQuery`, :class:`ClusteringQuery`) is a
  serializable value answered by one ``engine.query(q)`` dispatch,
* :mod:`repro.engine.deltas` — the typed update surface: graph mutations
  (:class:`SetEdgeProbability`, :class:`AddEdge`, :class:`RemoveEdge`,
  batched :class:`GraphDelta`) are serializable values applied through
  ``engine.apply_delta(delta)``, which re-prepares incrementally —
  probability-only deltas keep the decomposition index and compiled CSR,
* :mod:`repro.engine.worlds` — :class:`WorldPool`, the per-graph cache of
  sampled possible worlds that lets sampling-driven queries share one
  world set instead of resampling per call,
* :mod:`repro.engine.engine` — :class:`ReliabilityEngine`, the session
  object that prepares a graph once (caching its 2-edge-connected
  decomposition index) and then serves many queries with amortized
  preprocessing.

Example
-------
>>> from repro.engine import (
...     EstimatorConfig, ReliabilityEngine, ThresholdQuery, TopKReliableVerticesQuery,
... )
>>> from repro.graph.generators import road_network_graph
>>> engine = ReliabilityEngine(EstimatorConfig(samples=500, rng=7))
>>> _ = engine.prepare(road_network_graph(4, 4, rng=1))
>>> hit, ranked = engine.query_many(
...     [ThresholdQuery(terminals=(0, 1), threshold=0.05),
...      TopKReliableVerticesQuery(sources=(0,), k=3)]
... )
>>> hit.satisfied, len(ranked.ranking)
(True, 3)
"""

from repro.engine.config import EstimatorConfig
from repro.engine.deltas import (
    ALL_DELTA_KINDS,
    AddEdge,
    DeltaOp,
    GraphDelta,
    RemoveEdge,
    SetEdgeProbability,
    as_graph_delta,
    delta_from_dict,
)
from repro.engine.engine import DeltaOutcome, EngineStats, ReliabilityEngine
from repro.engine.queries import (
    ALL_QUERY_KINDS,
    TIMING_FIELDS,
    ClusteringQuery,
    ClusteringResult,
    KTerminalQuery,
    KTerminalResult,
    Query,
    QueryResult,
    ReliabilityClustering,
    ReliabilitySearchQuery,
    ReliabilitySearchResult,
    ReliableSubgraphQuery,
    ReliableSubgraphResult,
    ThresholdQuery,
    ThresholdResult,
    TopKReliableVerticesQuery,
    TopKReliableVerticesResult,
    query_from_dict,
    result_from_dict,
    results_checksum,
    validate_query_terminals,
)
from repro.engine.registry import (
    ReliabilityBackend,
    UnknownBackendError,
    available_backends,
    backend_factory,
    create_backend,
    register_backend,
    require_backend,
    unregister_backend,
)
from repro.engine.worlds import WorldPool

__all__ = [
    "ALL_DELTA_KINDS",
    "ALL_QUERY_KINDS",
    "AddEdge",
    "ClusteringQuery",
    "ClusteringResult",
    "DeltaOp",
    "DeltaOutcome",
    "EngineStats",
    "EstimatorConfig",
    "GraphDelta",
    "KTerminalQuery",
    "KTerminalResult",
    "Query",
    "QueryResult",
    "ReliabilityBackend",
    "ReliabilityClustering",
    "ReliabilityEngine",
    "ReliabilitySearchQuery",
    "ReliabilitySearchResult",
    "ReliableSubgraphQuery",
    "ReliableSubgraphResult",
    "RemoveEdge",
    "SetEdgeProbability",
    "TIMING_FIELDS",
    "ThresholdQuery",
    "ThresholdResult",
    "TopKReliableVerticesQuery",
    "TopKReliableVerticesResult",
    "UnknownBackendError",
    "WorldPool",
    "as_graph_delta",
    "available_backends",
    "backend_factory",
    "create_backend",
    "delta_from_dict",
    "query_from_dict",
    "register_backend",
    "require_backend",
    "result_from_dict",
    "results_checksum",
    "unregister_backend",
    "validate_query_terminals",
]
