"""The typed query surface of the reliability engine.

Every analysis workload the library supports is expressed as a *query
object* answered by :meth:`ReliabilityEngine.query` (or in batches by
:meth:`~ReliabilityEngine.query_many`):

=============================  ===============================================
Query                          Question
=============================  ===============================================
:class:`KTerminalQuery`        ``R[G, T]`` — the paper's k-terminal estimate
:class:`ThresholdQuery`        is ``R[G, T] >= η``? (with early exit)
:class:`ReliabilitySearchQuery`  which vertices reach the sources with
                               probability ``>= η``? (Khan et al., EDBT 2014)
:class:`TopKReliableVerticesQuery`  the k most reliably reachable vertices
:class:`ReliableSubgraphQuery` a small subgraph reliably containing the
                               query vertices (Jin et al., KDD 2011)
:class:`ClusteringQuery`       reliability-based clustering (Ceccarello
                               et al., PVLDB 2017)
=============================  ===============================================

Queries and results are plain frozen/dataclass values with ``to_dict`` /
``from_dict`` (see :func:`query_from_dict` / :func:`result_from_dict`), so
they can be logged, shipped over a wire, and replayed.  Estimation queries
route through the engine's configured backend; sampling-driven queries
(search, top-k, clustering, and the ``"sampling"`` backend's Monte Carlo
estimates) share the engine's :class:`~repro.engine.worlds.WorldPool`, so a
multi-query workload samples its possible worlds once instead of once per
call.

Example
-------
>>> from repro.engine import EstimatorConfig, ReliabilityEngine
>>> from repro.engine.queries import ReliabilitySearchQuery, ThresholdQuery
>>> from repro.graph.generators import road_network_graph
>>> engine = ReliabilityEngine(EstimatorConfig(samples=500, rng=7))
>>> _ = engine.prepare(road_network_graph(5, 5, rng=1))
>>> hit, search = engine.query_many(
...     [ThresholdQuery(terminals=(0, 1), threshold=0.05),
...      ReliabilitySearchQuery(sources=(0,), threshold=0.1)]
... )
>>> hit.satisfied, len(search.vertices) > 0
(True, True)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.core.estimators import EstimatorKind
from repro.engine.worlds import WorldPool
from repro.exceptions import ConfigurationError, TerminalError
from repro.utils.timers import Timer
from repro.utils.validation import check_positive_int, check_probability

if TYPE_CHECKING:
    from random import Random

    from repro.core.reliability import ReliabilityResult
    from repro.graph.components import GraphDecomposition
    from repro.graph.uncertain_graph import UncertainGraph

__all__ = [
    "ALL_QUERY_KINDS",
    "ClusteringQuery",
    "ClusteringResult",
    "KTerminalQuery",
    "KTerminalResult",
    "Query",
    "QueryContext",
    "QueryResult",
    "ReliabilityClustering",
    "ReliabilitySearchQuery",
    "ReliabilitySearchResult",
    "ReliableSubgraphQuery",
    "ReliableSubgraphResult",
    "TIMING_FIELDS",
    "ThresholdQuery",
    "ThresholdResult",
    "TopKReliableVerticesQuery",
    "TopKReliableVerticesResult",
    "greedy_reliable_subgraph",
    "query_from_dict",
    "result_from_dict",
    "results_checksum",
    "validate_query_terminals",
]

Vertex = Hashable
ReliabilityOracle = Callable[["UncertainGraph", Sequence[Vertex]], float]


# ----------------------------------------------------------------------
# Shared input validation
# ----------------------------------------------------------------------
def validate_query_terminals(
    graph: "UncertainGraph", terminals: Sequence[Vertex], *, role: str = "terminal"
) -> Tuple[Vertex, ...]:
    """Validate a query's vertex set against the (prepared) graph.

    Unlike :meth:`UncertainGraph.validate_terminals` — which silently
    deduplicates — the query surface rejects empty sets, duplicates, and
    vertices absent from the graph with actionable messages, so a workload
    generator bug fails loudly instead of silently shrinking the query.
    """
    items = tuple(terminals)
    if not items:
        raise TerminalError(
            f"the {role} set is empty; pass at least one vertex of the "
            "prepared graph"
        )
    missing = [vertex for vertex in items if not graph.has_vertex(vertex)]
    if missing:
        label = f"{role}s" if len(missing) > 1 else role
        raise TerminalError(
            f"{label} {missing!r} are not vertices of {graph!r}; "
            "prepare() the intended graph first or pass graph=... to the query"
        )
    seen: Set[Vertex] = set()
    duplicates: List[Vertex] = []
    for vertex in items:
        if vertex in seen and vertex not in duplicates:
            duplicates.append(vertex)
        seen.add(vertex)
    if duplicates:
        raise TerminalError(
            f"duplicate {role}s {duplicates!r}; each vertex may appear at "
            "most once in a query"
        )
    return items


# ----------------------------------------------------------------------
# Execution context and base classes
# ----------------------------------------------------------------------
@dataclass
class QueryContext:
    """Everything one query execution needs from the engine session.

    Built by :meth:`ReliabilityEngine.query`; ``explicit_rng`` records
    whether the caller supplied the random source (in which case pooled
    worlds are drawn from it directly and bypass the engine's pool cache)
    or the engine derived it from its per-query seed schedule.  The
    decomposition index is resolved lazily so purely sampling-driven
    queries (search, top-k, clustering) never pay for it.
    """

    engine: Any
    graph: "UncertainGraph"
    decomposition_provider: Callable[[], "GraphDecomposition"]
    rng: "Random"
    explicit_rng: bool

    @property
    def decomposition(self) -> "GraphDecomposition":
        """The graph's (cached) 2-edge-connected decomposition index."""
        return self.decomposition_provider()

    def world_pool(self, samples: Optional[int] = None) -> WorldPool:
        """The possible-world pool this query should read from."""
        if self.explicit_rng:
            return self.engine.world_pool(
                graph=self.graph, samples=samples, rng=self.rng
            )
        return self.engine.world_pool(graph=self.graph, samples=samples)


_QUERY_TYPES: Dict[str, Type["Query"]] = {}
_RESULT_TYPES: Dict[str, Type["QueryResult"]] = {}


def _register_query(cls: Type["Query"]) -> Type["Query"]:
    _QUERY_TYPES[cls.kind] = cls
    return cls


def _register_result(cls: Type["QueryResult"]) -> Type["QueryResult"]:
    _RESULT_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class Query:
    """Base class of the typed queries answered by ``engine.query``."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-safe dict (``kind`` plus the query's fields)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    def canonical_key(self) -> str:
        """A stable string identifying this query's semantic content.

        The key is the query's :meth:`to_dict` form serialized with sorted
        keys and compact separators (non-JSON vertex labels fall back to
        ``repr``), so two query objects produce equal keys iff they would
        produce identical answers on the same prepared graph — equal kind
        and equal field values.  It is stable across processes and
        sessions, which is what the service layer's result cache keys on
        (together with the graph and config fingerprints).
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=repr
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Query":
        """Rebuild a query from :meth:`to_dict` output."""
        data = dict(payload)
        kind = data.pop("kind", cls.kind)
        if kind != cls.kind:
            raise ConfigurationError(
                f"payload kind {kind!r} does not match {cls.__name__} "
                f"(kind {cls.kind!r}); use query_from_dict() for dispatch"
            )
        field_names = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(field_names))}"
            )
        return cls(**data)

    def _execute(self, context: QueryContext) -> "QueryResult":
        raise NotImplementedError


@dataclass
class QueryResult:
    """Base class of typed query results (``to_dict``/``from_dict``-able)."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResult":
        raise NotImplementedError


def query_from_dict(payload: Mapping[str, Any]) -> Query:
    """Rebuild any registered query type from its :meth:`Query.to_dict` form."""
    kind = payload.get("kind")
    if kind not in _QUERY_TYPES:
        known = ", ".join(repr(name) for name in sorted(_QUERY_TYPES))
        raise ConfigurationError(
            f"unknown query kind {kind!r}; registered kinds are: {known}"
        )
    return _QUERY_TYPES[kind].from_dict(payload)


def result_from_dict(payload: Mapping[str, Any]) -> QueryResult:
    """Rebuild any registered result type from its ``to_dict`` form."""
    kind = payload.get("kind")
    if kind not in _RESULT_TYPES:
        known = ", ".join(repr(name) for name in sorted(_RESULT_TYPES))
        raise ConfigurationError(
            f"unknown result kind {kind!r}; registered kinds are: {known}"
        )
    return _RESULT_TYPES[kind].from_dict(payload)


def _require_kind(cls: Type[QueryResult], payload: Mapping[str, Any]) -> Dict[str, Any]:
    data = dict(payload)
    kind = data.pop("kind", cls.kind)
    if kind != cls.kind:
        raise ConfigurationError(
            f"payload kind {kind!r} does not match {cls.__name__} "
            f"(kind {cls.kind!r}); use result_from_dict() for dispatch"
        )
    return data


def _pairs(mapping: Mapping[Any, Any]) -> List[List[Any]]:
    """Serialize a vertex-keyed mapping as JSON-safe ``[key, value]`` pairs."""
    return [[key, value] for key, value in mapping.items()]


# ----------------------------------------------------------------------
# Parity checksum
# ----------------------------------------------------------------------
#: Wall-clock fields excluded from the parity checksum: they are the only
#: result content that legitimately differs between two executions of the
#: same workload.
TIMING_FIELDS = frozenset({"elapsed_seconds", "preprocess_seconds"})


def _strip_timing(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: _strip_timing(item)
            for key, item in value.items()
            if key not in TIMING_FIELDS
        }
    if isinstance(value, (list, tuple)):
        return [_strip_timing(item) for item in value]
    return value


def results_checksum(results: Iterable[Any]) -> str:
    """SHA-256 fingerprint of a result batch's semantic content.

    Serializes each result through its ``to_dict`` form with the
    wall-clock fields (:data:`TIMING_FIELDS`) stripped recursively, so two
    executions of one workload — fresh or cached, one process or another
    — produce equal checksums iff every estimate, decision, ranking, and
    counter in their results is bit-for-bit identical.
    """
    payload = [
        _strip_timing(result.to_dict() if hasattr(result, "to_dict") else result)
        for result in results
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Pooled Monte Carlo plumbing
# ----------------------------------------------------------------------
def _pooled_estimation(context: QueryContext) -> bool:
    """Whether k-terminal estimation should read from the world pool.

    True for the ``"sampling"`` backend with Monte Carlo aggregation — the
    one configuration whose k-terminal/threshold answers are world-pool
    scans.  Only engine-managed randomness is pooled: an explicit
    per-query random source can never share a cached pool, so routing it
    to the backend's own sampler avoids materializing a throwaway pool
    (and keeps the per-call baseline semantics the experiment runners
    time).
    """
    config = context.engine.config
    return (
        not context.explicit_rng
        and config.backend == "sampling"
        and config.estimator is EstimatorKind.MONTE_CARLO
    )


def _pooled_reliability_result(
    frequency: float, samples_used: int, elapsed: float, config
) -> "ReliabilityResult":
    """Wrap a pooled Monte Carlo frequency in the uniform result type."""
    from repro.core.reliability import ReliabilityResult

    return ReliabilityResult(
        reliability=frequency,
        lower_bound=0.0,
        upper_bound=1.0,
        exact=False,
        samples_requested=config.samples,
        samples_used=samples_used,
        elapsed_seconds=elapsed,
        preprocess_seconds=0.0,
        bridge_probability=1.0,
        num_subproblems=1,
        estimator=config.estimator,
        used_extension=False,
    )


# ----------------------------------------------------------------------
# K-terminal estimation
# ----------------------------------------------------------------------
@_register_result
@dataclass
class KTerminalResult(QueryResult):
    """Answer to a :class:`KTerminalQuery`: the uniform reliability result."""

    kind: ClassVar[str] = "k-terminal"

    terminals: Tuple[Vertex, ...]
    estimate: "ReliabilityResult"

    @property
    def reliability(self) -> float:
        """The estimated (or exact) reliability."""
        return self.estimate.reliability

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "terminals": list(self.terminals),
            "estimate": self.estimate.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "KTerminalResult":
        from repro.core.reliability import ReliabilityResult

        data = _require_kind(cls, payload)
        return cls(
            terminals=tuple(data["terminals"]),
            estimate=ReliabilityResult.from_dict(data["estimate"]),
        )


@_register_query
@dataclass(frozen=True)
class KTerminalQuery(Query):
    """Estimate the k-terminal reliability ``R[G, T]``.

    Routed to the engine's configured backend; with the ``"sampling"``
    backend, the Monte Carlo estimator, and engine-managed randomness the
    answer is read from the shared world pool instead of resampling.
    """

    kind: ClassVar[str] = "k-terminal"

    terminals: Tuple[Vertex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", tuple(self.terminals))

    def _execute(self, context: QueryContext) -> KTerminalResult:
        terminals = validate_query_terminals(context.graph, self.terminals)
        engine = context.engine
        if _pooled_estimation(context):
            timer = Timer().start()
            pool = context.world_pool()
            frequency = pool.connectivity_frequency(terminals)
            estimate = _pooled_reliability_result(
                frequency, pool.num_worlds, timer.stop(), engine.config
            )
        else:
            estimate = engine.backend.estimate(
                context.graph,
                terminals,
                rng=context.rng,
                decomposition=context.decomposition,
            )
        return KTerminalResult(terminals=terminals, estimate=estimate)


# ----------------------------------------------------------------------
# Threshold decision
# ----------------------------------------------------------------------
@_register_result
@dataclass
class ThresholdResult(QueryResult):
    """Answer to a :class:`ThresholdQuery`.

    Attributes
    ----------
    satisfied:
        The decision ``R̂[G, T] >= threshold``.
    reliability:
        The estimate the decision was based on (a partial frequency when
        the pooled scan exited early).
    certified:
        ``True`` when the decision is backed by certified bounds (exact
        backends, or an S²BDD whose bound interval excludes the threshold)
        rather than a point estimate.
    samples_used:
        Worlds examined (pooled path) or samples drawn (backend path).
    early_exit:
        Whether the pooled scan stopped before exhausting the pool.
    elapsed_seconds:
        Wall-clock evaluation time of this answer.  Like every timing
        field it is excluded from ``results_checksum`` (see
        :data:`TIMING_FIELDS`) and defaults to
        ``0.0`` when absent from older wire payloads — historically the
        early-exit path reported no timing at all, which left threshold
        rows blank in experiment footers.
    """

    kind: ClassVar[str] = "threshold"

    terminals: Tuple[Vertex, ...]
    threshold: float
    satisfied: bool
    reliability: float
    certified: bool
    samples_used: int
    early_exit: bool
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "terminals": list(self.terminals),
            "threshold": self.threshold,
            "satisfied": self.satisfied,
            "reliability": self.reliability,
            "certified": self.certified,
            "samples_used": self.samples_used,
            "early_exit": self.early_exit,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ThresholdResult":
        data = _require_kind(cls, payload)
        data["terminals"] = tuple(data["terminals"])
        return cls(**data)


@_register_query
@dataclass(frozen=True)
class ThresholdQuery(Query):
    """Decide whether ``R[G, T]`` is at least ``threshold``.

    On the ``"sampling"`` backend (with engine-managed randomness) the
    decision is made by scanning the shared world pool and exiting as soon
    as the remaining worlds cannot change it; otherwise the backend
    estimate's certified bounds decide (and certify) the answer whenever
    they exclude the threshold.
    """

    kind: ClassVar[str] = "threshold"

    terminals: Tuple[Vertex, ...]
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(
            self, "threshold", check_probability(self.threshold, "threshold")
        )

    def _execute(self, context: QueryContext) -> ThresholdResult:
        terminals = validate_query_terminals(context.graph, self.terminals)
        engine = context.engine
        timer = Timer().start()
        if _pooled_estimation(context):
            pool = context.world_pool()
            scan = pool.threshold_scan(terminals, self.threshold)
            return ThresholdResult(
                terminals=terminals,
                threshold=self.threshold,
                satisfied=scan.satisfied,
                reliability=scan.frequency,
                certified=False,
                samples_used=scan.examined,
                early_exit=scan.early_exit,
                elapsed_seconds=timer.stop(),
            )
        estimate = engine.backend.estimate(
            context.graph,
            terminals,
            rng=context.rng,
            decomposition=context.decomposition,
        )
        certified = (
            estimate.lower_bound >= self.threshold
            or estimate.upper_bound < self.threshold
        )
        return ThresholdResult(
            terminals=terminals,
            threshold=self.threshold,
            satisfied=estimate.reliability >= self.threshold,
            reliability=estimate.reliability,
            certified=certified,
            samples_used=estimate.samples_used,
            early_exit=False,
            elapsed_seconds=timer.stop(),
        )


# ----------------------------------------------------------------------
# Reliability search (Khan et al., EDBT 2014)
# ----------------------------------------------------------------------
@_register_result
@dataclass
class ReliabilitySearchResult(QueryResult):
    """Outcome of a reliability search query."""

    kind: ClassVar[str] = "search"

    sources: Tuple[Vertex, ...]
    threshold: float
    vertices: Tuple[Vertex, ...]
    probabilities: Dict[Vertex, float]
    samples_used: int
    elapsed_seconds: float = 0.0

    def probability(self, vertex: Vertex) -> float:
        """Estimated probability that ``vertex`` connects to the sources."""
        return self.probabilities.get(vertex, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sources": list(self.sources),
            "threshold": self.threshold,
            "vertices": list(self.vertices),
            "probabilities": _pairs(self.probabilities),
            "samples_used": self.samples_used,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReliabilitySearchResult":
        data = _require_kind(cls, payload)
        return cls(
            sources=tuple(data["sources"]),
            threshold=data["threshold"],
            vertices=tuple(data["vertices"]),
            probabilities={vertex: value for vertex, value in data["probabilities"]},
            samples_used=data["samples_used"],
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


@_register_query
@dataclass(frozen=True)
class ReliabilitySearchQuery(Query):
    """Find every vertex connected to the sources with probability ≥ η.

    The screening pass reads per-vertex reachability frequencies from the
    shared world pool; with ``refine_with_estimator`` the vertices whose
    frequency lies within ``refine_window`` of the threshold are re-judged
    by the engine's configured backend for a sharper decision.
    """

    kind: ClassVar[str] = "search"

    sources: Tuple[Vertex, ...]
    threshold: float
    samples: Optional[int] = None
    refine_with_estimator: bool = False
    refine_window: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(
            self, "threshold", check_probability(self.threshold, "threshold")
        )
        object.__setattr__(
            self, "refine_window", check_probability(self.refine_window, "refine_window")
        )
        if self.samples is not None:
            check_positive_int(self.samples, "samples")

    def _execute(self, context: QueryContext) -> ReliabilitySearchResult:
        sources = validate_query_terminals(context.graph, self.sources, role="source")
        timer = Timer().start()
        pool = context.world_pool(self.samples)
        frequencies = pool.reachability_frequencies(sources)

        if self.refine_with_estimator:
            for vertex, frequency in list(frequencies.items()):
                if vertex in sources:
                    continue
                if abs(frequency - self.threshold) <= self.refine_window:
                    refined = context.engine.backend.estimate(
                        context.graph,
                        tuple(sources) + (vertex,),
                        rng=context.rng,
                        decomposition=context.decomposition,
                    )
                    frequencies[vertex] = refined.reliability

        qualifying = tuple(
            vertex
            for vertex in sorted(frequencies, key=lambda v: (-frequencies[v], repr(v)))
            if frequencies[vertex] >= self.threshold and vertex not in sources
        )
        return ReliabilitySearchResult(
            sources=sources,
            threshold=self.threshold,
            vertices=qualifying,
            probabilities=frequencies,
            samples_used=pool.num_worlds,
            elapsed_seconds=timer.stop(),
        )


# ----------------------------------------------------------------------
# Top-k reliable vertices
# ----------------------------------------------------------------------
@_register_result
@dataclass
class TopKReliableVerticesResult(QueryResult):
    """Answer to a :class:`TopKReliableVerticesQuery`."""

    kind: ClassVar[str] = "top-k"

    sources: Tuple[Vertex, ...]
    k: int
    ranking: Tuple[Tuple[Vertex, float], ...]
    samples_used: int
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sources": list(self.sources),
            "k": self.k,
            "ranking": [[vertex, value] for vertex, value in self.ranking],
            "samples_used": self.samples_used,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopKReliableVerticesResult":
        data = _require_kind(cls, payload)
        return cls(
            sources=tuple(data["sources"]),
            k=data["k"],
            ranking=tuple((vertex, value) for vertex, value in data["ranking"]),
            samples_used=data["samples_used"],
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


@_register_query
@dataclass(frozen=True)
class TopKReliableVerticesQuery(Query):
    """Rank the ``k`` non-source vertices most reliably connected to the sources."""

    kind: ClassVar[str] = "top-k"

    sources: Tuple[Vertex, ...]
    k: int
    samples: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        check_positive_int(self.k, "k")
        if self.samples is not None:
            check_positive_int(self.samples, "samples")

    def _execute(self, context: QueryContext) -> TopKReliableVerticesResult:
        sources = validate_query_terminals(context.graph, self.sources, role="source")
        timer = Timer().start()
        pool = context.world_pool(self.samples)
        frequencies = pool.reachability_frequencies(sources)
        ranked = sorted(
            (
                (vertex, frequency)
                for vertex, frequency in frequencies.items()
                if vertex not in sources
            ),
            key=lambda item: (-item[1], repr(item[0])),
        )
        return TopKReliableVerticesResult(
            sources=sources,
            k=self.k,
            ranking=tuple(ranked[: self.k]),
            samples_used=pool.num_worlds,
            elapsed_seconds=timer.stop(),
        )


# ----------------------------------------------------------------------
# Reliable-subgraph discovery (Jin et al., KDD 2011)
# ----------------------------------------------------------------------
@_register_result
@dataclass
class ReliableSubgraphResult(QueryResult):
    """Outcome of a reliable-subgraph search."""

    kind: ClassVar[str] = "subgraph"

    vertices: Tuple[Vertex, ...]
    reliability: float
    threshold: float
    satisfied: bool
    expansions: int
    evaluations: int
    history: List[Tuple[Vertex, float]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def size(self) -> int:
        """Number of vertices in the discovered subgraph."""
        return len(self.vertices)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "reliability": self.reliability,
            "threshold": self.threshold,
            "satisfied": self.satisfied,
            "expansions": self.expansions,
            "evaluations": self.evaluations,
            "history": [[vertex, value] for vertex, value in self.history],
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReliableSubgraphResult":
        data = _require_kind(cls, payload)
        data["vertices"] = tuple(data["vertices"])
        data["history"] = [(vertex, value) for vertex, value in data["history"]]
        return cls(**data)


def _boundary_vertices(
    graph: "UncertainGraph", selected: Set[Vertex]
) -> List[Vertex]:
    """Vertices adjacent to the selection but not in it, most-connected first."""
    adjacency_count: Dict[Vertex, int] = {}
    for vertex in selected:
        for neighbor in graph.neighbors(vertex):
            if neighbor not in selected:
                adjacency_count[neighbor] = adjacency_count.get(neighbor, 0) + 1
    return sorted(adjacency_count, key=lambda v: (-adjacency_count[v], repr(v)))


def greedy_reliable_subgraph(
    graph: "UncertainGraph",
    query_vertices: Sequence[Vertex],
    threshold: float,
    *,
    max_size: Optional[int] = None,
    oracle: ReliabilityOracle,
) -> ReliableSubgraphResult:
    """Greedily grow a subgraph whose query vertices are reliably connected.

    The greedy strategy follows the spirit of Jin, Liu and Aggarwal (KDD
    2011): start from the query vertices, repeatedly add the neighbouring
    vertex that most improves the reliability of the induced subgraph, and
    stop when the threshold is met (or no candidate improves it).  The
    ``oracle`` maps ``(subgraph, terminals)`` to a reliability value; the
    query layer plugs in the engine's configured backend, while
    :func:`repro.analysis.find_reliable_subgraph` still accepts arbitrary
    callables.
    """
    timer = Timer().start()
    threshold = check_probability(threshold, "threshold")
    query = validate_query_terminals(graph, query_vertices, role="query vertex")
    if max_size is not None and max_size < len(query):
        raise ConfigurationError(
            "max_size must be at least the number of query vertices"
        )

    limit = max_size if max_size is not None else graph.num_vertices
    selected: Set[Vertex] = set(query)
    evaluations = 0
    expansions = 0
    history: List[Tuple[Vertex, float]] = []

    evaluations += 1
    reliability = oracle(graph.subgraph(selected), query)
    history.append((query[0], reliability))

    while reliability < threshold and len(selected) < limit:
        candidates = _boundary_vertices(graph, selected)
        if not candidates:
            break
        best_vertex: Optional[Vertex] = None
        best_reliability = reliability
        for candidate in candidates:
            selected.add(candidate)
            evaluations += 1
            candidate_reliability = oracle(graph.subgraph(selected), query)
            selected.remove(candidate)
            if candidate_reliability > best_reliability:
                best_reliability = candidate_reliability
                best_vertex = candidate
        if best_vertex is None:
            break
        selected.add(best_vertex)
        reliability = best_reliability
        expansions += 1
        history.append((best_vertex, reliability))

    return ReliableSubgraphResult(
        vertices=tuple(sorted(selected, key=repr)),
        reliability=reliability,
        threshold=threshold,
        satisfied=reliability >= threshold,
        expansions=expansions,
        evaluations=evaluations,
        history=history,
        elapsed_seconds=timer.stop(),
    )


@_register_query
@dataclass(frozen=True)
class ReliableSubgraphQuery(Query):
    """Discover a small subgraph reliably connecting the query vertices.

    The reliability oracle of the greedy growth is the engine's configured
    backend, so the same query answered on an ``"s2bdd"`` session and a
    ``"sampling"`` session demonstrates the accuracy difference end to end.
    """

    kind: ClassVar[str] = "subgraph"

    query_vertices: Tuple[Vertex, ...]
    threshold: float
    max_size: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "query_vertices", tuple(self.query_vertices))
        object.__setattr__(
            self, "threshold", check_probability(self.threshold, "threshold")
        )
        if self.max_size is not None:
            check_positive_int(self.max_size, "max_size")

    def _execute(self, context: QueryContext) -> ReliableSubgraphResult:
        backend = context.engine.backend
        rng = context.rng

        def oracle(subgraph: "UncertainGraph", terminals: Sequence[Vertex]) -> float:
            return backend.estimate(subgraph, terminals, rng=rng).reliability

        return greedy_reliable_subgraph(
            context.graph,
            self.query_vertices,
            self.threshold,
            max_size=self.max_size,
            oracle=oracle,
        )


# ----------------------------------------------------------------------
# Reliability-based clustering (Ceccarello et al., PVLDB 2017)
# ----------------------------------------------------------------------
@_register_result
@dataclass
class ReliabilityClustering(QueryResult):
    """A reliability-based clustering of an uncertain graph.

    Attributes
    ----------
    centers:
        The chosen cluster centres.
    assignment:
        Mapping from every vertex to its centre.
    connection_probability:
        Mapping from every vertex to the estimated probability that it is
        connected to its assigned centre.
    samples_used:
        Number of pooled possible worlds shared by all estimates.
    elapsed_seconds:
        Wall-clock evaluation time (checksum-excluded; defaults to ``0.0``
        on older wire payloads).
    """

    kind: ClassVar[str] = "clustering"

    centers: Tuple[Vertex, ...]
    assignment: Dict[Vertex, Vertex]
    connection_probability: Dict[Vertex, float]
    samples_used: int
    elapsed_seconds: float = 0.0

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    def cluster_members(self, center: Vertex) -> List[Vertex]:
        """Return the vertices assigned to ``center``."""
        return [
            vertex for vertex, assigned in self.assignment.items() if assigned == center
        ]

    def average_connection_probability(self) -> float:
        """Average probability of a vertex being connected to its centre."""
        if not self.connection_probability:
            return 0.0
        return sum(self.connection_probability.values()) / len(
            self.connection_probability
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "centers": list(self.centers),
            "assignment": _pairs(self.assignment),
            "connection_probability": _pairs(self.connection_probability),
            "samples_used": self.samples_used,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReliabilityClustering":
        data = _require_kind(cls, payload)
        return cls(
            centers=tuple(data["centers"]),
            assignment={vertex: center for vertex, center in data["assignment"]},
            connection_probability={
                vertex: value for vertex, value in data["connection_probability"]
            },
            samples_used=data["samples_used"],
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


#: Alias following the ``<Kind>Result`` naming of the other answers.
ClusteringResult = ReliabilityClustering


@_register_query
@dataclass(frozen=True)
class ClusteringQuery(Query):
    """Cluster the graph into reliability-based clusters.

    Implements the k-centre-style greedy of Ceccarello et al. (PVLDB 2017)
    with all connection probabilities read from the shared world pool: pick
    the highest-degree vertex as the first centre, repeatedly add the
    least-covered vertex, then assign every vertex to its most reliable
    centre.  Each centre costs one reachability scan of the pool, which
    gives every vertex's connection probability to it at once.
    """

    kind: ClassVar[str] = "clustering"

    num_clusters: int
    samples: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_clusters, "num_clusters")
        if self.samples is not None:
            check_positive_int(self.samples, "samples")

    def _execute(self, context: QueryContext) -> ReliabilityClustering:
        graph = context.graph
        if self.num_clusters > graph.num_vertices:
            raise ConfigurationError(
                f"cannot form {self.num_clusters} clusters from "
                f"{graph.num_vertices} vertices"
            )
        timer = Timer().start()
        pool = context.world_pool(self.samples)
        vertices = sorted(graph.vertices(), key=repr)
        # One pool column scan per centre: toward[c][v] is the probability
        # that v and c are connected, i.e. pool.pair_connectivity(v, c)
        # (1.0 at v == c).
        toward: Dict[Vertex, Dict[Vertex, float]] = {}

        # Greedy k-centre seeding on the (1 - reliability) distance.
        centers: List[Vertex] = [
            max(vertices, key=lambda v: (graph.degree(v), repr(v)))
        ]
        toward[centers[0]] = pool.reachability_frequencies((centers[0],))
        best_probability: Dict[Vertex, float] = {
            vertex: toward[centers[0]][vertex] for vertex in vertices
        }
        while len(centers) < self.num_clusters:
            next_center = min(
                (vertex for vertex in vertices if vertex not in centers),
                key=lambda v: (best_probability[v], -graph.degree(v), repr(v)),
            )
            centers.append(next_center)
            column = toward[next_center] = pool.reachability_frequencies((next_center,))
            for vertex in vertices:
                probability = column[vertex]
                if probability > best_probability[vertex]:
                    best_probability[vertex] = probability

        # Final assignment to the most reliable centre.
        assignment: Dict[Vertex, Vertex] = {}
        connection: Dict[Vertex, float] = {}
        for vertex in vertices:
            best_center = max(centers, key=lambda c: (toward[c][vertex], repr(c)))
            assignment[vertex] = best_center
            connection[vertex] = toward[best_center][vertex]

        return ReliabilityClustering(
            centers=tuple(centers),
            assignment=assignment,
            connection_probability=connection,
            samples_used=pool.num_worlds,
            elapsed_seconds=timer.stop(),
        )


#: Registered query kinds, in registration order.
ALL_QUERY_KINDS: Tuple[str, ...] = tuple(_QUERY_TYPES)
