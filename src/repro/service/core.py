"""The serving core: catalog + result cache + coalescer, one facade.

:class:`ReliabilityService` is the blocking, thread-safe heart of the
service layer; the HTTP front-end (:mod:`repro.service.server`) is a thin
JSON adapter over it, and tests and benchmarks drive it directly.

Determinism contract
--------------------
Every request is evaluated as if it were the *first query of a fresh
session*: the engine's config carries a pinned integer seed (see
:class:`~repro.service.catalog.GraphCatalog`) and every query is executed
with seed index 0 (``engine.query(q, seed_index=0)``).  An answer is
therefore a pure function of the cache key triple::

    (graph fingerprint, query.canonical_key(), config.fingerprint())

so a cached payload is bit-identical (timing fields aside, per
:func:`~repro.engine.queries.results_checksum`) to recomputing — the
property the cache and the coalescer rely on, and the one the
benchmark's parity gate enforces.

A cache miss is evaluated on the thread that asked for it (an HTTP
executor thread, or whoever called :meth:`ReliabilityService.query`)
under the service's update lock, so evaluations are serialized against
each other and against :meth:`ReliabilityService.update`, and the
request's own trace records the evaluation's spans.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.deltas import DeltaOp
from repro.engine.queries import Query, query_from_dict, results_checksum
from repro.exceptions import ConfigurationError, UpdateRejectedError
from repro.obs.metrics import Sample, counter_field, stats_samples
from repro.obs.trace import SlowQueryLog, current_trace, span
from repro.service.cache import ResultCache, cache_key
from repro.service.catalog import GraphCatalog
from repro.service.coalesce import SingleFlight
from repro.service.store import SharedResultStore
from repro.utils.timers import Timer

__all__ = ["ReliabilityService", "ServiceStats"]

QueryLike = Union[Query, Mapping[str, Any]]

#: Sentinel distinguishing "no cache passed" (build a fresh default one)
#: from an explicit ``cache=None`` (caching disabled).
_DEFAULT_CACHE = object()


@dataclass
class ServiceStats:
    """Request-level counters of one :class:`ReliabilityService`.

    ``engine_evaluations`` is the number the cache and the coalescer
    exist to minimize; the benchmark's ≥2× reduction gate compares it
    between cache-on and cache-off runs of the same workload.
    """

    requests: int = counter_field("Requests accepted by the serving core.")
    cache_hits: int = counter_field("Requests answered from a cache tier.")
    shared_store_hits: int = counter_field(
        "Requests answered from the shared sqlite tier."
    )
    engine_evaluations: int = counter_field("Queries the engine actually computed.")
    updates_applied: int = counter_field("Graph deltas applied through /update.")
    errors: int = counter_field("Requests that raised.")


class ReliabilityService:
    """Serve reliability queries over a catalog of prepared graphs.

    Parameters
    ----------
    catalog:
        The :class:`GraphCatalog` naming the graphs this service answers
        queries on.  Its (normalized, deterministically seeded) config is
        the service's evaluation config.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching (the
        benchmark's cache-off mode).  Defaults to a fresh cache with
        default bounds.
    store:
        An optional :class:`~repro.service.store.SharedResultStore` — the
        persistent tier *under* the memory cache.  Lookups fall through
        memory → store → engine; a store hit is promoted into the memory
        cache, and every engine evaluation is written through to both
        tiers.  The service does not close the store (it may be shared);
        the owner does.
    allow_updates:
        Whether :meth:`update` may mutate served graphs.  ``False`` is
        the read-only mode snapshot-warmed replicas default to: their
        prepared state was checksum-verified against the snapshot, and an
        in-place update would silently diverge sibling replicas warmed
        from the same snapshot.
    slow_query_log:
        An optional :class:`~repro.obs.trace.SlowQueryLog`; every
        :meth:`query` slower than its threshold is logged (with its trace
        id when one is active) and surfaced in :meth:`stats` under
        ``"slow_queries"``.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        *,
        cache: Any = _DEFAULT_CACHE,
        store: Optional[SharedResultStore] = None,
        allow_updates: bool = True,
        slow_query_log: Optional[SlowQueryLog] = None,
    ) -> None:
        self._catalog = catalog
        self._cache: Optional[ResultCache] = (
            ResultCache() if cache is _DEFAULT_CACHE else cache
        )
        self._store = store
        self._config_fingerprint = catalog.config.fingerprint()
        self._stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self._allow_updates = allow_updates
        # Serializes evaluations against each other and against update(): a
        # delta must never land between an evaluation and its cache writes,
        # or post-delta results would be stored under the pre-delta key.
        self._update_lock = threading.Lock()
        self._slow_query_log = slow_query_log
        self._flight = SingleFlight()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> GraphCatalog:
        """The graph catalog this service answers queries on."""
        return self._catalog

    @property
    def cache(self) -> Optional[ResultCache]:
        """The result cache (``None`` when caching is disabled)."""
        return self._cache

    @property
    def store(self) -> Optional[SharedResultStore]:
        """The persistent shared tier (``None`` when not configured)."""
        return self._store

    def stats(self) -> Dict[str, Any]:
        """The aggregated ``/stats`` payload: service, cache, coalescer,
        per-graph engine counters (including ``world_pools_evicted``)."""
        payload: Dict[str, Any] = {
            section: asdict(snapshot) if snapshot is not None else None
            for section, _, snapshot in self._snapshots()
        }
        payload["engines"] = {
            graph: {config: asdict(counters) for config, counters in configs.items()}
            for graph, configs in self._catalog.engine_stats().items()
        }
        payload["config_fingerprint"] = self._config_fingerprint
        if self._slow_query_log is not None:
            payload["slow_queries"] = self._slow_query_log.snapshot()
        return payload

    def metric_samples(self) -> List[Sample]:
        """The ``/metrics`` samples of the same counters :meth:`stats` serves.

        Engine series carry ``graph`` and ``fingerprint`` (the engine's
        config fingerprint) labels.
        """
        samples: List[Sample] = []
        for _, prefix, snapshot in self._snapshots():
            if snapshot is not None:
                samples += stats_samples(prefix, snapshot)
        engines = self._catalog.engine_stats()
        for graph in sorted(engines):
            for config in sorted(engines[graph]):
                labels = {"graph": graph, "fingerprint": config}
                samples += stats_samples("repro_engine", engines[graph][config], labels)
        if self._slow_query_log is not None:
            samples += stats_samples("repro_slow_queries", self._slow_query_log.stats())
        return samples

    def _snapshots(self) -> List[Tuple[str, str, Any]]:
        """``(/stats section, metric prefix, snapshot)`` per counter family;
        a disabled cache tier's snapshot is ``None``."""
        with self._stats_lock:
            service = replace(self._stats)
        cache = self._cache.stats() if self._cache is not None else None
        store = self._store.stats() if self._store is not None else None
        return [
            ("service", "repro_service", service),
            ("cache", "repro_cache", cache),
            ("shared_store", "repro_store", store),
            ("coalescer", "repro_coalesce", self._flight.stats()),
        ]

    def describe_graphs(self) -> List[Dict[str, Any]]:
        """The ``/graphs`` payload."""
        return self._catalog.describe()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        graph: str,
        query: QueryLike,
        *,
        timeout: Optional[float] = None,
        timings: bool = False,
    ) -> Dict[str, Any]:
        """Answer one query on the named graph; returns the JSON payload.

        Cache hits return immediately.  A miss waits for an identical
        in-flight request when there is one, and is otherwise evaluated
        on this thread; ``timeout`` bounds both waits (``TimeoutError``
        on expiry).  Evaluation errors (unknown graph, invalid
        terminals, ...) re-raise here — the HTTP layer maps them to 4xx
        responses.

        With ``timings=True`` and an active trace (see
        :func:`repro.obs.trace.activate`) the response carries an
        opt-in ``"timings"`` section: the trace id and per-stage
        wall/CPU spans, the evaluation's own included when this request
        computed it.  Timing data stays response metadata — the cached
        payload and its checksum never contain it.
        """
        with self._stats_lock:
            self._stats.requests += 1
        timer = Timer().start()
        trace = current_trace()
        kind = "?"
        cached = False
        try:
            with span("service.lookup"):
                request = self._prepare(graph, query)
                kind = request.query.kind
                payload, tier = self._lookup(request.key)
            if payload is not None:
                self._count_hit(tier)
                cached = True
            else:
                self._check_open()
                with span("service.wait"):
                    payload = self._compute(graph, request, timeout)
            response = self._respond(payload, tier=tier, graph=graph)
        except Exception:
            with self._stats_lock:
                self._stats.errors += 1
            raise
        elapsed = timer.stop()
        if self._slow_query_log is not None:
            self._slow_query_log.record(
                graph=graph,
                kind=kind,
                elapsed_seconds=elapsed,
                trace_id=trace.trace_id if trace is not None else None,
                cached=cached,
            )
        if timings and trace is not None:
            response["timings"] = trace.to_dict()
        return response

    def query_batch(
        self,
        graph: str,
        queries: Sequence[QueryLike],
        *,
        timeout: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Answer a batch; returns one payload per query, in order.

        Per-item failures become ``{"error": ..., "error_type": ...}``
        entries instead of failing the whole batch — batch clients should
        check each entry.  Misses are evaluated one distinct query at a
        time on this thread; a query repeated within the batch is
        evaluated once and its repeats count as coalesced.
        """
        requests = []
        outcomes: List[Optional[Dict[str, Any]]] = []
        for query in queries:
            with self._stats_lock:
                self._stats.requests += 1
            try:
                requests.append(self._prepare(graph, query))
                outcomes.append(None)
            except Exception as error:  # bad payloads stay per-item
                requests.append(None)
                outcomes.append(_error_payload(error))
                with self._stats_lock:
                    self._stats.errors += 1
        misses: Dict[Any, List[int]] = {}
        for position, request in enumerate(requests):
            if request is None:
                continue
            payload, tier = self._lookup(request.key)
            if payload is not None:
                self._count_hit(tier)
                outcomes[position] = self._respond(payload, tier=tier, graph=graph)
            else:
                misses.setdefault(request.key, []).append(position)
        if misses:
            self._check_open()
        for positions in misses.values():
            request = requests[positions[0]]
            try:
                payload = self._compute(graph, request, timeout, len(positions))
            except Exception as error:
                for position in positions:
                    outcomes[position] = _error_payload(error)
                with self._stats_lock:
                    self._stats.errors += len(positions)
                continue
            for position in positions:
                outcomes[position] = self._respond(payload, tier=None, graph=graph)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    # Updates and invalidation
    # ------------------------------------------------------------------
    @property
    def allow_updates(self) -> bool:
        """Whether :meth:`update` is enabled on this service."""
        return self._allow_updates

    def update(
        self, graph: str, delta: Union[DeltaOp, Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Apply a typed delta to the named graph; returns the JSON payload.

        Delegates to :meth:`GraphCatalog.update` (validation, incremental
        re-prepare, fingerprint/version bump) under the update lock, so a
        delta never interleaves with an evaluation, then drops
        exactly the results cached under the pre-delta fingerprint from
        both cache tiers.  The payload carries the catalog's
        :class:`~repro.service.catalog.CatalogUpdate` fields plus an
        ``"invalidated"`` entry/row count per tier.

        Raises :class:`~repro.exceptions.UpdateRejectedError` when the
        service is read-only (``allow_updates=False``).
        """
        if not self._allow_updates:
            raise UpdateRejectedError(
                "this service is read-only (snapshot-warmed replicas reject "
                "updates by default); restart with --allow-updates to opt in"
            )
        try:
            with self._update_lock:
                outcome = self._catalog.update(graph, delta)
                invalidated = self._invalidate_fingerprint(outcome.old_fingerprint)
        except Exception:
            with self._stats_lock:
                self._stats.errors += 1
            raise
        with self._stats_lock:
            self._stats.updates_applied += 1
        return {**outcome.to_dict(), "invalidated": invalidated}

    def invalidate_graph(self, fingerprint: str) -> Dict[str, int]:
        """Drop every cached result keyed under ``fingerprint``, both tiers.

        Scoped: results for other graphs (and other versions of the same
        graph) survive.  Returns ``{"cache_entries": ..., "store_entries":
        ...}`` counts of what was dropped.
        """
        with self._update_lock:
            return self._invalidate_fingerprint(fingerprint)

    def invalidate_all(self) -> Dict[str, int]:
        """Flush the memory cache and every row of the shared store.

        The blunt instrument for operational recovery; prefer
        :meth:`invalidate_graph` after an update (which :meth:`update`
        already performs).  Returns per-tier drop counts.
        """
        with self._update_lock:
            cache_entries = (
                self._cache.invalidate_all() if self._cache is not None else 0
            )
            store_entries = (
                self._store.invalidate_all() if self._store is not None else 0
            )
            return {"cache_entries": cache_entries, "store_entries": store_entries}

    def _invalidate_fingerprint(self, fingerprint: str) -> Dict[str, int]:
        """Drop one fingerprint's results from both tiers (no locking here)."""
        cache_entries = (
            self._cache.invalidate_graph(fingerprint) if self._cache is not None else 0
        )
        store_entries = (
            self._store.invalidate_graph(fingerprint) if self._store is not None else 0
        )
        return {"cache_entries": cache_entries, "store_entries": store_entries}

    def close(self) -> None:
        """Stop evaluating: later misses raise, cache hits are still served.

        Evaluations already running finish.
        """
        self._closed = True

    def __enter__(self) -> "ReliabilityService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    class _Request:
        __slots__ = ("query", "key")

        def __init__(self, query: Query, key: Any) -> None:
            self.query = query
            self.key = key

    def _prepare(self, graph: str, query: QueryLike) -> "ReliabilityService._Request":
        if isinstance(query, Mapping):
            query = query_from_dict(query)
        if not isinstance(query, Query):
            raise ConfigurationError(
                f"expected a Query object or its to_dict() form, got {type(query)!r}"
            )
        entry = self._catalog.entry(graph)
        key = cache_key(
            entry.fingerprint, query.canonical_key(), self._config_fingerprint
        )
        return self._Request(query, key)

    def _lookup(self, key: Any):
        """``(payload, tier)`` from memory then the shared store, else ``(None, None)``.

        A shared-store hit is promoted into the memory cache so repeats in
        this process stay off sqlite.
        """
        if self._cache is not None:
            payload = self._cache.get(key)
            if payload is not None:
                return payload, "memory"
        if self._store is not None:
            payload = self._store.get(key)
            if payload is not None:
                if self._cache is not None:
                    self._cache.put(key, payload)
                return payload, "shared"
        return None, None

    def _count_hit(self, tier: Optional[str]) -> None:
        with self._stats_lock:
            self._stats.cache_hits += 1
            if tier == "shared":
                self._stats.shared_store_hits += 1

    @staticmethod
    def _respond(
        payload: Dict[str, Any], *, tier: Optional[str], graph: str
    ) -> Dict[str, Any]:
        # Deep copy: callers may mutate the response, and the payload (its
        # nested "result" dict included) is shared with the cache and with
        # coalesced waiters.  The graph name is stamped per request — the
        # cache key is content-based, so a hit may have been computed under
        # a different catalog name for the same graph.
        response = copy.deepcopy(payload)
        response["cached"] = tier is not None
        response["cache_tier"] = tier
        response["graph"] = graph
        return response

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the service is closed")

    def _compute(
        self,
        graph: str,
        request: "ReliabilityService._Request",
        timeout: Optional[float],
        requests: int = 1,
    ) -> Dict[str, Any]:
        """A miss's payload, evaluated once across identical requests in flight."""
        return self._flight.run(
            request.key,
            lambda: self._evaluate(graph, request.query, timeout),
            timeout=timeout,
            requests=requests,
        )

    def _evaluate(
        self, graph: str, query: Query, timeout: Optional[float]
    ) -> Dict[str, Any]:
        """Evaluate one query on the graph's shared engine, on this thread.

        Runs ``engine.query(query, seed_index=0)`` and stores the payload
        in both cache tiers before returning it.  Holds the update lock
        end to end (waiting at most ``timeout`` seconds for it), and keys
        the cache writes by the fingerprint read *inside* it, not the one
        the request was looked up under: a delta landing between lookup
        and evaluation would otherwise store post-delta results under the
        pre-delta key — exactly the stale entry scoped invalidation just
        removed.
        """
        if not self._update_lock.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(f"timed out after {timeout} s waiting to evaluate")
        try:
            engine = self._catalog.engine(graph)
            fingerprint = self._catalog.entry(graph).fingerprint
            before = engine.stats.queries_served
            try:
                result = engine.query(query, seed_index=0)
            finally:
                # Count real engine work, not intent: a query that fails
                # after drawing its seed still cost an evaluation.
                with self._stats_lock:
                    self._stats.engine_evaluations += (
                        engine.stats.queries_served - before
                    )
            payload = {
                "graph": graph,
                "graph_fingerprint": fingerprint,
                "config_fingerprint": self._config_fingerprint,
                "kind": type(result).kind,
                "checksum": results_checksum([result]),
                "result": result.to_dict(),
            }
            key = cache_key(
                fingerprint, query.canonical_key(), self._config_fingerprint
            )
            if self._cache is not None:
                self._cache.put(key, payload)
            if self._store is not None:
                self._store.put(key, payload)
            return payload
        finally:
            self._update_lock.release()


def _error_payload(error: Exception) -> Dict[str, Any]:
    return {"error": str(error), "error_type": type(error).__name__}
