"""The session-based reliability query engine.

The paper's headline scenario is *many* reliability queries against the
*same* uncertain graph: its extension technique explicitly assumes a
precomputed 2-edge-connected decomposition index.  :class:`ReliabilityEngine`
is the session object for that workload — configure once, ``prepare()`` a
graph once (computing and caching its decomposition), then answer many
queries through :meth:`estimate` and :meth:`estimate_many` with amortized
preprocessing and reproducible per-query RNG spawning.

Beyond plain estimation, the engine answers every *typed query* of
:mod:`repro.engine.queries` through one dispatch, :meth:`query` /
:meth:`query_many`; sampling-driven queries share a cached
:class:`~repro.engine.worlds.WorldPool` so a multi-query workload samples
its possible worlds once.

Example
-------
>>> from repro.engine import EstimatorConfig, ReliabilityEngine
>>> from repro.engine.queries import ReliabilitySearchQuery, ThresholdQuery
>>> from repro.graph.generators import road_network_graph
>>> graph = road_network_graph(5, 5, rng=1)
>>> engine = ReliabilityEngine(EstimatorConfig(samples=500, rng=7))
>>> _ = engine.prepare(graph)
>>> results = engine.estimate_many([[0, 12], [0, 24], [4, 20]])
>>> len(results), engine.stats.decompositions_computed
(3, 1)
>>> hit = engine.query(ThresholdQuery(terminals=(0, 12), threshold=0.2))
>>> search = engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.5))
>>> isinstance(hit.satisfied, bool), search.samples_used
(True, 500)
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.engine.config import EstimatorConfig
from repro.engine.deltas import DeltaOp, GraphDelta, as_graph_delta
from repro.engine.diagrams import DiagramCache
from repro.engine.queries import Query, QueryContext, QueryResult, validate_query_terminals
from repro.engine.registry import ReliabilityBackend, create_backend
from repro.engine.worlds import WorldPool
from repro.exceptions import ConfigurationError
from repro.graph.compiled import (
    CompiledGraph,
    compile_graph,
    compiled_fingerprint,
    invalidate_compiled,
    is_compiled_cached,
    refresh_compiled_probabilities,
)
from repro.graph.components import GraphDecomposition, decompose_graph
from repro.obs.trace import span
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int

__all__ = ["DeltaOutcome", "EngineStats", "ReliabilityEngine"]

Vertex = Hashable

#: Odd 64-bit constant (splitmix64's golden-gamma) used to derive distinct,
#: reproducible per-query seeds from the engine's base seed.
_QUERY_SEED_STRIDE = 0x9E3779B97F4A7C15
#: Odd 64-bit salt separating the world-pool seed from the query-seed stream.
_POOL_SEED_SALT = 0xD1B54A32D192ED03
_SEED_MASK = (1 << 64) - 1

#: Cached world pools retained per prepared graph; the oldest entry is
#: evicted beyond this, bounding pool memory for seed-sweeping workloads.
_MAX_POOLS_PER_GRAPH = 8


@dataclass
class EngineStats:
    """Instrumentation counters of one :class:`ReliabilityEngine` session.

    Attributes
    ----------
    decompositions_computed:
        How many 2-edge-connected decompositions the engine computed
        (including recomputations forced by a topology change).  Serving
        many queries on one prepared graph keeps this at 1 — the
        amortization the paper's precomputed index is about.
    decomposition_cache_hits:
        How often a query or ``prepare()`` call found its graph's
        decomposition already cached and still valid.
    queries_served:
        Total number of reliability queries answered (``estimate`` calls
        and typed ``query`` dispatches alike).
    world_pools_built:
        How many possible-world pools were sampled (cache misses plus
        pools built from caller-supplied generators).
    world_pool_hits:
        How often a sampling-driven query found its world pool already
        cached — each hit is a full resampling pass avoided.
    worlds_sampled:
        Total possible worlds drawn across all pool builds.
    world_pools_evicted:
        How many cached pools were dropped because a graph exceeded its
        retention bound (8 pools per graph).  A seed- or budget-sweeping
        workload that keeps evicting is resampling worlds it could have
        reused — this counter makes that churn visible.
    graphs_compiled:
        How many times ``prepare()`` compiled a graph into its flat-int
        kernel form (:class:`~repro.graph.compiled.CompiledGraph`),
        including recompilations forced by a topology or probability
        change.  Like the decomposition, serving many queries on one
        prepared graph keeps this at 1: compile once, evaluate many.
    compiled_cache_hits:
        How often ``prepare()`` found the graph's compiled form already
        cached and current.
    deltas_applied:
        How many typed graph deltas :meth:`ReliabilityEngine.apply_delta`
        applied (a batched :class:`~repro.engine.deltas.GraphDelta`
        counts once, however many operations it holds).
    incremental_prepares:
        How many re-prepares after a delta took the probability-only fast
        path: the 2ECC decomposition index and the compiled CSR topology
        survived, only the probability column and world pools refreshed.
    full_prepares:
        How many re-prepares after a delta had to rebuild everything
        because the topology changed.  A monitoring workload that mostly
        re-weights edges should see this stay near zero.
    pools_invalidated:
        How many cached world pools were dropped by delta re-prepares.
        Every delta class invalidates pools (sampled worlds bake in the
        probabilities), so this roughly tracks ``deltas_applied`` times
        the pools cached per graph.
    s2bdds_built:
        How many S²BDD diagrams the s2bdd backend constructed from
        scratch.  A repeated-terminal-set workload should see this stay
        near the number of *distinct* subproblems, with the rest answered
        from the constructed-diagram cache.
    s2bdd_cache_hits:
        How often an s2bdd query reused a cached constructed diagram
        as-is (identical subproblem, terminals, config, and edge
        probabilities).  Each hit skips the construction sweep entirely.
    s2bdd_resweeps:
        How often a probability-only change was absorbed by re-sweeping a
        cached diagram's arc structure with the new probabilities instead
        of rebuilding it — the dynamic-graph fast path for constructed
        S²BDDs (see :class:`~repro.engine.diagrams.DiagramCache`).
    s2bdd_cache_evictions:
        How many cached constructed diagrams were dropped — by the LRU
        retention bound, by a topology delta on their owning graph, or by
        an explicit cache reset.
    """

    decompositions_computed: int = 0
    decomposition_cache_hits: int = 0
    queries_served: int = 0
    world_pools_built: int = 0
    world_pool_hits: int = 0
    worlds_sampled: int = 0
    world_pools_evicted: int = 0
    graphs_compiled: int = 0
    compiled_cache_hits: int = 0
    deltas_applied: int = 0
    incremental_prepares: int = 0
    full_prepares: int = 0
    pools_invalidated: int = 0
    s2bdds_built: int = 0
    s2bdd_cache_hits: int = 0
    s2bdd_resweeps: int = 0
    s2bdd_cache_evictions: int = 0


@dataclass(frozen=True)
class DeltaOutcome:
    """What one :meth:`ReliabilityEngine.apply_delta` call did.

    Attributes
    ----------
    incremental:
        ``True`` when the probability-only fast path ran (decomposition
        index and compiled CSR topology survived); ``False`` when the
        delta changed topology and forced a full re-prepare.
    pools_invalidated:
        How many cached world pools this delta dropped.
    diagrams_evicted:
        How many cached constructed S²BDDs this delta dropped.  Zero on
        the probability-only path: diagram structure depends on topology
        and edge order alone, so those entries survive and are lazily
        re-swept with the new probabilities on their next lookup.
    """

    incremental: bool
    pools_invalidated: int
    diagrams_evicted: int = 0


class ReliabilityEngine:
    """Session-based reliability queries with pluggable backends.

    Parameters
    ----------
    config:
        The :class:`~repro.engine.config.EstimatorConfig` selecting the
        backend and its knobs; defaults to ``EstimatorConfig()``.
    **overrides:
        Convenience field overrides applied on top of ``config``
        (``ReliabilityEngine(samples=500, backend="sampling")``).

    Notes
    -----
    * The decomposition cache is keyed by graph *identity* (``id``), exactly
      like the paper's per-graph index; the engine keeps a strong reference
      to every prepared graph so identities stay stable.
    * Per-query randomness is spawned deterministically from the configured
      seed: query ``i`` (counted from engine creation) uses
      ``random.Random(engine.query_seed(i))``, so a batch over ``k``
      terminal sets is reproducible and equals ``k`` independent calls.
    """

    def __init__(
        self, config: Optional[EstimatorConfig] = None, **overrides: object
    ) -> None:
        config = config if config is not None else EstimatorConfig()
        if overrides:
            config = config.replace(**overrides)
        self._config = config
        self._backend = create_backend(config.backend, config)
        self._stats = EngineStats()
        # Constructed-diagram cache (s2bdd backend only): attached via the
        # duck-typed hook so third-party backends opt in by providing it.
        # Attached even when disabled so `s2bdds_built` still counts.
        self._diagrams: Optional[DiagramCache] = None
        attach_diagrams = getattr(self._backend, "attach_diagram_cache", None)
        if callable(attach_diagrams):
            self._diagrams = DiagramCache(
                enabled=config.s2bdd_cache, stats=self._stats
            )
            attach_diagrams(self._diagrams)
        # id(graph) -> (graph, decomposition, topology fingerprint); the
        # strong graph reference keeps identities stable for the cache key.
        self._cache: Dict[int, Tuple[object, GraphDecomposition, Tuple[int, int, int]]] = {}
        # id(graph) -> (world fingerprint, {(seed, samples): WorldPool},
        # graph).  Unlike the decomposition, sampled worlds depend on the
        # edge probabilities too, so the fingerprint here includes them; the
        # strong graph reference keeps the id-based key stable.
        self._world_pools: Dict[
            int, Tuple[Tuple, Dict[Tuple[int, int], WorldPool], object]
        ] = {}
        self._active: Optional[object] = None
        # Derive a stable 64-bit base seed for per-query RNG spawning.  An
        # int-seeded config gives a fully reproducible session; a Random
        # instance contributes (and advances) its stream once, here.
        self._base_seed = resolve_rng(config.rng).getrandbits(64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> EstimatorConfig:
        """The session configuration."""
        return self._config

    @property
    def backend(self) -> ReliabilityBackend:
        """The backend instance answering this session's queries."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend."""
        return self._config.backend

    @property
    def diagram_cache(self) -> Optional[DiagramCache]:
        """The session's constructed-diagram cache (s2bdd backend only).

        ``None`` for backends without the ``attach_diagram_cache`` hook;
        present but :attr:`~repro.engine.diagrams.DiagramCache.enabled`
        ``False`` when the config sets ``s2bdd_cache=False``.
        """
        return self._diagrams

    @property
    def stats(self) -> EngineStats:
        """Cache and query counters for this session."""
        return self._stats

    def query_seed(self, index: int) -> int:
        """The deterministic RNG seed used for the session's ``index``-th query.

        Exposed so callers (and tests) can reproduce any single query of a
        batch with an identical random stream, e.g. by passing it as
        ``rng`` to :meth:`estimate` or to a backend's ``estimate``.
        """
        if index < 0:
            raise ConfigurationError(f"query index must be >= 0, got {index}")
        return (self._base_seed + _QUERY_SEED_STRIDE * (index + 1)) & _SEED_MASK

    def pool_seed(self) -> int:
        """The deterministic seed of the session's default world pool.

        Derived from the engine's base seed but salted away from the
        query-seed stream, so pooled worlds are reproducible for an
        int-seeded config yet independent of any per-query randomness.
        """
        return (self._base_seed ^ _POOL_SEED_SALT) & _SEED_MASK

    # ------------------------------------------------------------------
    # Session preparation
    # ------------------------------------------------------------------
    def prepare(
        self, graph, decomposition: Optional[GraphDecomposition] = None
    ) -> "ReliabilityEngine":
        """Make ``graph`` the session's active graph, indexing it once.

        Computes (or adopts, when ``decomposition`` is given) the graph's
        2-edge-connected decomposition and caches it by graph identity.
        Entries are stamped with the graph's topology fingerprint, so a
        graph mutated after preparation is transparently re-indexed instead
        of silently served a stale decomposition.  The graph's compiled
        kernel form (:class:`~repro.graph.compiled.CompiledGraph`) is built
        and cached alongside, so every sampling loop of the session runs on
        flat-int state from the first query on (see
        :attr:`EngineStats.graphs_compiled`).  Returns ``self`` so
        construction chains: ``ReliabilityEngine(cfg).prepare(graph)``.
        """
        with span("engine.prepare"):
            key = id(graph)
            fingerprint = graph.topology_fingerprint()
            cached = self._cache.get(key)
            if cached is not None and cached[2] == fingerprint:
                self._stats.decomposition_cache_hits += 1
            elif decomposition is not None:
                self._cache[key] = (graph, decomposition, fingerprint)
            else:
                self._cache[key] = (graph, decompose_graph(graph), fingerprint)
                self._stats.decompositions_computed += 1
            if is_compiled_cached(graph):
                self._stats.compiled_cache_hits += 1
            else:
                self._stats.graphs_compiled += 1
            compile_graph(graph)
            self._active = graph
        return self

    def compiled_graph(self, graph=None) -> CompiledGraph:
        """The (cached) compiled kernel form of the active or given graph."""
        return compile_graph(self._require_graph(graph))

    def decomposition(self, graph=None) -> GraphDecomposition:
        """The cached 2-edge-connected decomposition of the active (or given)
        graph, preparing it first when needed.

        This is the index the paper precomputes; exposing it lets the
        snapshot layer persist prepared state instead of recomputing it on
        every cold start.
        """
        graph = self._resolve_graph(graph)
        return self._cache[id(graph)][1]

    def cached_world_pools(self, graph=None) -> List[WorldPool]:
        """The world pools currently cached for the active (or given) graph.

        Returned in insertion (build) order; empty when no pooled query ran
        yet or the graph's fingerprint changed since the pools were built.
        Live-generator pools are never cached, so every returned pool
        carries the integer seed it was built from — exactly what the
        snapshot layer needs to persist and reinstall them.
        """
        graph = self._require_graph(graph)
        entry = self._world_pools.get(id(graph))
        if entry is None or entry[0] != self._world_fingerprint(graph):
            return []
        # Insertion order is the documented contract (build order) and is
        # keyed by (seed, samples) ints — hash-salt-independent.
        return list(entry[1].values())  # reprolint: ok(ORD001)

    def apply_delta(self, delta: DeltaOp, graph=None) -> DeltaOutcome:
        """Mutate the active (or given) graph with ``delta`` and re-prepare.

        The dynamic-graph entry point: ``delta`` — a single
        :class:`~repro.engine.deltas.DeltaOp`, a batched
        :class:`~repro.engine.deltas.GraphDelta`, or either's ``to_dict``
        wire form — is validated against the graph first (a rejected delta
        leaves graph and session untouched), applied, and the session's
        prepared state is re-synced incrementally: a probability-only
        delta keeps the 2ECC decomposition index and the compiled CSR
        topology, refreshing just the probability column and dropping the
        sampled world pools; a topology delta falls back to a full
        prepare.  Afterwards every query answers exactly as a fresh
        engine prepared on the post-delta graph would.
        """
        graph = self._require_graph(graph)
        batch = as_graph_delta(delta)
        batch.validate(graph)
        incremental = batch.probability_only
        batch.apply(graph)
        self._stats.deltas_applied += 1
        return self.reprepare(graph, probability_only=incremental)

    def reprepare(self, graph=None, *, probability_only: bool) -> DeltaOutcome:
        """Re-sync prepared state for a graph already mutated elsewhere.

        The multi-engine half of :meth:`apply_delta`: when several
        sessions share one graph object (the catalog serves one engine
        per config), the delta is applied once and every *other* engine
        re-prepares through this method.  ``probability_only`` must match
        what the delta actually did — the caller knows, this method
        cannot re-derive it from the mutated graph alone (edge-id
        recycling can leave every fingerprint unchanged).
        """
        graph = self._require_graph(graph)
        # id(graph) keys the per-session caches by object identity, same
        # as prepare()/forget() (grandfathered there): graphs are mutable,
        # so content hashing is unsound mid-session, and the key never
        # leaves the process.
        pools = self._world_pools.pop(id(graph), None)  # reprolint: ok(RNG002)
        if pools is not None:
            dropped = len(pools[1])
            self._stats.pools_invalidated += dropped
        else:
            dropped = 0
        diagrams_evicted = 0
        if probability_only:
            # Constructed diagrams survive: their arc structure depends on
            # topology and edge order alone, so the next lookup re-sweeps
            # them with the refreshed probabilities instead of rebuilding.
            refresh_compiled_probabilities(graph)
            self._stats.incremental_prepares += 1
        else:
            # Full path: drop the stamped entries explicitly instead of
            # trusting the fingerprints — remove-then-re-add with a
            # recycled edge id leaves both the topology and compiled
            # fingerprints unchanged while the structure differs.
            self._cache.pop(id(graph), None)  # reprolint: ok(RNG002)
            invalidate_compiled(graph)
            if self._diagrams is not None:
                diagrams_evicted = self._diagrams.invalidate_owner(
                    id(graph)  # reprolint: ok(RNG002)
                )
            self._stats.full_prepares += 1
            self.prepare(graph)
        self._active = graph
        return DeltaOutcome(
            incremental=probability_only,
            pools_invalidated=dropped,
            diagrams_evicted=diagrams_evicted,
        )

    def forget(self, graph) -> None:
        """Drop ``graph`` from the decomposition, world-pool, and diagram caches."""
        self._cache.pop(id(graph), None)
        self._world_pools.pop(id(graph), None)
        if self._diagrams is not None:
            self._diagrams.invalidate_owner(id(graph))  # reprolint: ok(RNG002)
        if self._active is graph:
            self._active = None

    def reset_cache(self) -> None:
        """Drop every cached decomposition, world pool, constructed diagram,
        and the active graph."""
        self._cache.clear()
        self._world_pools.clear()
        if self._diagrams is not None:
            self._diagrams.clear()
        self._active = None

    # ------------------------------------------------------------------
    # Possible-world pool
    # ------------------------------------------------------------------
    @staticmethod
    def _world_fingerprint(graph) -> Tuple:
        """Stamp invalidating pooled worlds on topology *or* probability change.

        Shared with the compile cache: sampled worlds and the compiled
        kernel form bake in exactly the same inputs.
        """
        return compiled_fingerprint(graph)

    def world_pool(
        self,
        graph=None,
        *,
        samples: Optional[int] = None,
        seed: Optional[int] = None,
        rng=None,
    ) -> WorldPool:
        """Return a pool of sampled possible worlds for ``graph``.

        Pools are cached per graph, keyed by ``(seed, samples)`` and
        stamped with a fingerprint covering topology and edge
        probabilities, so a mutated graph is transparently resampled while
        repeated queries on an unchanged graph share one world set (each
        reuse counts as a ``world_pool_hits`` in :attr:`stats`).

        Seeded pools use the chunked sampling scheme of
        :meth:`WorldPool.from_seed`, so a ``(seed, samples)`` pair always
        means the same worlds, whichever session or process builds it.

        Parameters
        ----------
        graph:
            Graph to sample; defaults to the most recently prepared one.
        samples:
            Number of worlds; defaults to the configured sample budget.
        seed:
            Integer seed of the pool; defaults to :meth:`pool_seed`, the
            session's deterministic shared-pool seed.
        rng:
            A live random source to draw from instead.  Such pools are
            *not* cached (a generator's state cannot key a cache); this is
            the explicit per-call resampling path.
        """
        graph = self._require_graph(graph)
        if samples is None:
            samples = self._config.samples
        check_positive_int(samples, "samples")
        if rng is not None:
            pool = WorldPool(graph, samples=samples, rng=resolve_rng(rng))
            self._stats.world_pools_built += 1
            self._stats.worlds_sampled += samples
            return pool
        if seed is None:
            seed = self.pool_seed()
        pools = self._pool_cache_for(graph)
        key = (seed, samples)
        pool = pools.get(key)
        if pool is not None:
            self._stats.world_pool_hits += 1
            return pool
        pool = WorldPool.from_seed(graph, samples=samples, seed=seed)
        self._stats.world_pools_built += 1
        self._stats.worlds_sampled += samples
        self._store_pool(pools, key, pool)
        return pool

    def _pool_cache_for(self, graph) -> Dict[Tuple[int, int], WorldPool]:
        """The graph's pool cache, freshly keyed on any fingerprint change."""
        fingerprint = self._world_fingerprint(graph)
        entry = self._world_pools.get(id(graph))
        if entry is None or entry[0] != fingerprint:
            entry = (fingerprint, {}, graph)
            self._world_pools[id(graph)] = entry
        return entry[1]

    def _store_pool(
        self,
        pools: Dict[Tuple[int, int], WorldPool],
        key: Tuple[int, int],
        pool: WorldPool,
    ) -> None:
        pools[key] = pool
        while len(pools) > _MAX_POOLS_PER_GRAPH:
            pools.pop(next(iter(pools)))
            self._stats.world_pools_evicted += 1

    def _adopt_pool(self, graph, pool: WorldPool) -> WorldPool:
        """Cache a prebuilt pool under its ``(seed, num_worlds)`` key.

        Used by the snapshot loader, which adopts column-major pools via
        :meth:`WorldPool.from_columns` instead of resampling them.
        Counting the build (or not) is the caller's concern — this method
        only caches.  The pool must hold exactly the seeded scheme's
        worlds for its ``(seed, num_worlds)`` pair: the cache key promises
        that content to every later engine-managed query.
        """
        if pool.seed is None:
            raise ConfigurationError(
                "only seed-tagged pools can be adopted into the engine cache"
            )
        self._store_pool(self._pool_cache_for(graph), (pool.seed, pool.num_worlds), pool)
        return pool

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(
        self,
        terminals: Sequence[Vertex],
        *,
        graph=None,
        rng=None,
        seed_index: Optional[int] = None,
    ):
        """Answer one reliability query on the active (or given) graph.

        Parameters
        ----------
        terminals:
            The terminal vertices of the query.
        graph:
            Optional graph override; it is ``prepare()``-d (cached) first.
            Without it the most recently prepared graph is used.
        rng:
            Optional per-query random source overriding the engine's
            deterministic query-seed derivation.
        seed_index:
            Pin the query to :meth:`query_seed(seed_index) <query_seed>`
            instead of the session's running counter.  This is how a
            caller replaying one query of a batch reproduces the exact
            random stream query ``seed_index`` of the session consumed.
            Mutually exclusive with ``rng``.

        Raises
        ------
        TerminalError
            If the terminal set is empty, contains duplicates, or names
            vertices absent from the prepared graph (the same validation
            the typed queries apply).
        """
        graph = self._resolve_graph(graph)
        terminals = validate_query_terminals(graph, terminals)
        rng = self._query_rng(rng, seed_index)
        decomposition = self._cache[id(graph)][1]
        with span("engine.estimate"):
            return self._backend.estimate(
                graph, terminals, rng=rng, decomposition=decomposition
            )

    def estimate_many(
        self,
        terminal_sets: Iterable[Sequence[Vertex]],
        *,
        graph=None,
    ) -> List:
        """Answer a batch of queries with amortized preprocessing.

        Equivalent to calling :meth:`estimate` once per terminal set —
        including the per-query RNG seeds — while the graph's decomposition
        index is computed at most once for the whole batch.
        """
        graph = self._require_graph(graph)
        return [self.estimate(terminals, graph=graph) for terminals in terminal_sets]

    # ------------------------------------------------------------------
    # Typed queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Query,
        *,
        graph=None,
        rng=None,
        seed_index: Optional[int] = None,
    ) -> QueryResult:
        """Answer one typed query (see :mod:`repro.engine.queries`).

        Dispatches on the query's type: estimation-style queries route to
        the configured backend (reusing the cached decomposition index),
        sampling-driven queries (search, top-k, clustering, pooled Monte
        Carlo) read from the session's shared world pool.

        Parameters
        ----------
        query:
            A :class:`~repro.engine.queries.Query` instance, e.g.
            ``ThresholdQuery(terminals=(0, 5), threshold=0.9)``.
        graph:
            Optional graph override; it becomes the session's active graph
            and is ``prepare()``-d (cached) as soon as an execution path
            needs the decomposition index.
        rng:
            Optional per-query random source.  When given, pooled worlds
            are drawn from it directly (bypassing the pool cache), which
            is how the one-shot :mod:`repro.analysis` wrappers reproduce
            their historical fixed-seed results.
        seed_index:
            Pin the query to :meth:`query_seed(seed_index) <query_seed>`
            instead of the session's running counter, reproducing the
            random stream of query ``seed_index`` of a batch.
            Mutually exclusive with ``rng``; unlike ``rng`` this keeps the
            engine-managed (pool-sharing) execution paths.
        """
        self._require_query(query)
        graph = self._require_graph(graph)
        self._active = graph
        explicit = rng is not None
        resolved = self._query_rng(rng, seed_index)

        def decomposition_provider():
            # Resolved lazily: purely sampling-driven queries never need
            # the decomposition index, so it is only (computed and) cached
            # when a backend-routed execution path asks for it.
            self.prepare(graph)
            return self._cache[id(graph)][1]

        context = QueryContext(
            engine=self,
            graph=graph,
            decomposition_provider=decomposition_provider,
            rng=resolved,
            explicit_rng=explicit,
        )
        with span("engine.query:" + query.kind):
            return query._execute(context)

    def query_many(
        self,
        queries: Iterable[Query],
        *,
        graph=None,
        seed_indices: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Answer a batch of typed queries with shared preprocessing.

        Equivalent to calling :meth:`query` once per query — including the
        per-query RNG seeds — while the decomposition index and the world
        pool are each built at most once for the whole batch.  A query
        that raises stops the batch there: the queries before it have
        run (and advanced the seed counter) exactly as single calls would.

        Parameters
        ----------
        seed_indices:
            Pin each query of the batch to an explicit position in the
            :meth:`query_seed(i) <query_seed>` schedule (one index per
            query, in batch order) instead of the session's running
            counter.  ``seed_indices=[0] * n`` evaluates every query as
            the first query of a fresh session, so an answer is
            independent of what the engine served before it.
        workers:
            Deprecated and ignored: batches always run in-process.  A
            value other than ``None`` is still validated as a positive
            int and emits a :class:`DeprecationWarning`.
        """
        if workers is not None:
            check_positive_int(workers, "workers")
            warnings.warn(
                "query_many(workers=...) is deprecated and has no effect; "
                "batches always run in-process",
                DeprecationWarning,
                stacklevel=2,
            )
        graph = self._require_graph(graph)
        items = list(queries)
        if seed_indices is None:
            return [self.query(query, graph=graph) for query in items]
        seed_indices = [int(index) for index in seed_indices]
        if len(seed_indices) != len(items):
            raise ConfigurationError(
                f"seed_indices lists {len(seed_indices)} entries for a "
                f"batch of {len(items)} queries; pass one index per query"
            )
        return [
            self.query(query, graph=graph, seed_index=index)
            for query, index in zip(items, seed_indices)
        ]

    @staticmethod
    def _require_query(query) -> None:
        if not isinstance(query, Query):
            raise ConfigurationError(
                f"engine.query expects a Query object, got {type(query)!r}; "
                "build one of the repro.engine.queries types (KTerminalQuery, "
                "ThresholdQuery, ReliabilitySearchQuery, ...)"
            )

    def _query_rng(self, rng, seed_index: Optional[int]) -> random.Random:
        """Resolve one query's random source and advance the query counter."""
        if rng is not None and seed_index is not None:
            raise ConfigurationError(
                "pass either rng or seed_index, not both: rng overrides the "
                "engine's seed schedule, seed_index pins a position in it"
            )
        if seed_index is not None:
            seed = self.query_seed(seed_index)  # validates seed_index >= 0
            self._stats.queries_served += 1
            return random.Random(seed)
        index = self._stats.queries_served
        self._stats.queries_served += 1
        if rng is None:
            return random.Random(self.query_seed(index))
        return resolve_rng(rng)

    def _require_graph(self, graph):
        if graph is None:
            if self._active is None:
                raise ConfigurationError(
                    "no graph prepared; call engine.prepare(graph) first or "
                    "pass graph=... to the query"
                )
            graph = self._active
        return graph

    def _resolve_graph(self, graph):
        graph = self._require_graph(graph)
        self.prepare(graph)
        return graph
