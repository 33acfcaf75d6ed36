"""Constructed-diagram cache for the S²BDD backend.

Construction dominates the s2bdd backend (~200× over the sampling sweep on
the tracked benchmark workload), yet a constructed diagram depends only on
the subproblem's *topology*, its terminal set, and the construction
configuration — not on the edge probabilities, which only scale the mass
flowing through the fixed arc structure.  :class:`DiagramCache` therefore
keys constructed S²BDDs content-addressed by (subgraph topology, terminal
tuple, construction-relevant config fields) and reuses them across queries:

* identical probabilities → the stored construction is returned as-is
  (a *hit*; answers are bit-identical to a fresh construction because the
  whole pipeline is deterministic given the same inputs);
* changed but strictly-interior probabilities on a replay-safe diagram
  (no priority sort fired, no strata, no zero-probability branch) → the
  stored arc structure is re-swept with the new probabilities
  (:meth:`~repro.core.s2bdd.S2BDD.resweep`), which is bit-identical to
  constructing from scratch — the paper's PR 8 dynamic-graph contract:
  probability-only deltas keep the diagram, topology deltas evict;
* anything else → miss; the caller rebuilds and :meth:`store` overwrites.

Entries are owner-tagged with the *root* prepared graph's identity so the
engine's delta path can scope invalidation: a topology delta on one graph
evicts that graph's diagrams without touching other sessions' entries.

The cache is bounded LRU; evictions are counted into the owning engine's
:class:`~repro.engine.engine.EngineStats` alongside hit/re-sweep/build
counters so ``/metrics`` exposes diagram reuse per graph.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence, Tuple

from repro.core.frontier import EdgeOrdering
from repro.utils.validation import check_positive_int

__all__ = ["DiagramCache", "diagram_key"]

Vertex = Hashable

#: Default retention bound: constructed diagrams for the catalog's working
#: set of terminal sets; one entry holds a full arc-table replay, so the
#: bound keeps worst-case memory proportional to ~64 constructions.
_DEFAULT_MAX_ENTRIES = 64


def diagram_key(graph, terminals: Sequence[Vertex], config) -> Optional[Tuple]:
    """Content-addressed cache key for one S²BDD construction, or ``None``.

    Covers everything the constructed diagram depends on *except* the edge
    probabilities: the subproblem topology (vertices plus ``(id, u, v)``
    edge tuples in insertion order), the terminal tuple, and the
    construction-relevant config fields (width cap, edge ordering, stratum
    cutoff, and the sample budget steering early termination).
    Probabilities are deliberately excluded — the lookup compares them
    separately so probability-only changes can re-sweep the cached
    structure instead of missing.

    Returns ``None`` for uncacheable configurations: the ``random`` edge
    ordering draws from the query RNG while planning, so its construction
    is not a pure function of this key.
    """
    if config.edge_ordering is EdgeOrdering.RANDOM:
        return None
    return (
        tuple(graph.vertices()),
        tuple((edge.id, edge.u, edge.v) for edge in graph.edges()),
        tuple(terminals),
        config.max_width,
        config.edge_ordering.value,
        config.stratum_mass_cutoff,
        config.samples,
    )


def _edge_probabilities(graph) -> Tuple[Tuple[int, float], ...]:
    """The graph's ``(edge id, probability)`` pairs in insertion order."""
    return tuple((edge.id, edge.probability) for edge in graph.edges())


@dataclass
class _Entry:
    bdd: object
    construction: object
    probabilities: Tuple[Tuple[int, float], ...]
    owner: int
    resweepable: bool = field(init=False)

    def __post_init__(self) -> None:
        self.resweepable = bool(getattr(self.construction, "replay_safe", False))


class DiagramCache:
    """Bounded LRU cache of constructed S²BDDs with delta-aware reuse.

    Parameters
    ----------
    max_entries:
        Retention bound; the least-recently-used entry is evicted beyond it.
    enabled:
        ``False`` turns lookup/store into no-ops while keeping the
        build-counter plumbing alive — how an engine configured with
        ``s2bdd_cache=False`` still reports ``s2bdds_built``.
    stats:
        An :class:`~repro.engine.engine.EngineStats` to count hits,
        re-sweeps, builds, and evictions into; ``None`` skips counting.

    Thread safety: every public method takes one internal lock, matching
    the service layer's shared-engine usage where replica threads answer
    queries against one catalog engine concurrently.
    """

    def __init__(
        self,
        *,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        enabled: bool = True,
        stats=None,
    ) -> None:
        check_positive_int(max_entries, "max_entries")
        self._max_entries = max_entries
        self._enabled = bool(enabled)
        self._stats = stats
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether lookups and stores are live."""
        return self._enabled

    @property
    def max_entries(self) -> int:
        """The retention bound."""
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: Tuple, graph, *, owner: int):
        """Return ``(bdd, construction)`` for ``key`` or ``None``.

        ``graph`` is the *current* subproblem graph; its probabilities
        decide between the three reuse outcomes documented in the module
        docstring.  A re-sweep updates the entry in place, so subsequent
        lookups with the same probabilities are direct hits.
        """
        if not self._enabled or key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            probabilities = _edge_probabilities(graph)
            if entry.probabilities == probabilities:
                entry.owner = owner
                if self._stats is not None:
                    self._stats.s2bdd_cache_hits += 1
                return entry.bdd, entry.construction
            if not entry.resweepable:
                return None
            by_id = dict(probabilities)
            try:
                plan_probabilities = [
                    by_id[edge.id] for edge in entry.bdd.plan.edges
                ]
            except KeyError:
                return None
            if not all(0.0 < p < 1.0 for p in plan_probabilities):
                return None
            construction = entry.bdd.resweep(entry.construction, plan_probabilities)
            entry.construction = construction
            entry.probabilities = probabilities
            entry.owner = owner
            if self._stats is not None:
                self._stats.s2bdd_resweeps += 1
            return entry.bdd, construction

    def store(self, key: Optional[Tuple], bdd, construction, graph, *, owner: int) -> None:
        """Cache a freshly constructed diagram under ``key`` (LRU-bounded)."""
        if not self._enabled or key is None:
            return
        with self._lock:
            self._entries[key] = _Entry(
                bdd=bdd,
                construction=construction,
                probabilities=_edge_probabilities(graph),
                owner=owner,
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                if self._stats is not None:
                    self._stats.s2bdd_cache_evictions += 1

    def note_built(self) -> None:
        """Count one from-scratch construction (cache miss or cache off)."""
        with self._lock:
            if self._stats is not None:
                self._stats.s2bdds_built += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_owner(self, owner: int) -> int:
        """Evict every entry owned by ``owner`` (a prepared graph's id).

        The engine's topology-delta path: the diagram structure bakes in
        the edge order and frontier plan, so a topology change voids every
        diagram derived from that graph.  Returns the eviction count.
        """
        with self._lock:
            stale = [
                key for key, entry in self._entries.items() if entry.owner == owner
            ]
            for key in stale:
                del self._entries[key]
            if self._stats is not None:
                self._stats.s2bdd_cache_evictions += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop every entry; returns how many were evicted."""
        with self._lock:
            dropped = len(self._entries)
            if dropped and self._stats is not None:
                self._stats.s2bdd_cache_evictions += dropped
            self._entries.clear()
            return dropped
