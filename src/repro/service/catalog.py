"""The graph catalog: named uncertain graphs with prepared engines.

The service layer's shared environment is a :class:`GraphCatalog` — a
registry of named uncertain graphs (datasets from :mod:`repro.datasets`,
files loaded through :mod:`repro.graph.io`, or caller-built graphs), each
stamped with a content fingerprint and served by prepared
:class:`~repro.engine.engine.ReliabilityEngine` sessions.  One engine
exists per ``(graph, config)`` pair, so every client of the service shares
the same 2-edge-connected decomposition index, the same cached world
pools, and — for the s2bdd backend — the same constructed-diagram cache
(:class:`~repro.engine.diagrams.DiagramCache`) instead of re-preparing
per request.  Constructed diagrams survive probability-only
:meth:`GraphCatalog.update` deltas (they are re-swept with the new
probabilities on next lookup) and are evicted, scoped to the updated
graph, on topology deltas.

Fingerprints here are *content* fingerprints (a SHA-256 over the vertex
and edge lists), not the in-process ``topology_fingerprint()`` stamp: the
service's cache keys must survive process restarts and identify a graph by
what it contains, not by where it lives in memory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.datasets import load_dataset
from repro.engine.config import EstimatorConfig
from repro.engine.deltas import DeltaOp, as_graph_delta
from repro.engine.engine import EngineStats, ReliabilityEngine
from repro.engine.registry import backend_factory
from repro.exceptions import ConfigurationError
from repro.graph.io import read_edge_list
from repro.graph.uncertain_graph import UncertainGraph

__all__ = [
    "CatalogEntry",
    "CatalogUpdate",
    "DatasetSource",
    "FileSource",
    "GraphCatalog",
    "GraphSource",
    "graph_fingerprint",
]

#: Seed substituted when a service config leaves ``rng`` unset.  The
#: service's cache-key contract requires a deterministic seed; pinning the
#: default here (instead of OS seeding) makes an unconfigured service
#: reproducible across restarts.
DEFAULT_SERVICE_SEED = 2019


def graph_fingerprint(graph: UncertainGraph) -> str:
    """A stable hex digest of a graph's content.

    Covers the vertex set (in iteration order — sampled worlds depend on
    it) and every edge's endpoints and probability in edge-id order; the
    display name is deliberately excluded.  Two graphs fingerprint equally
    iff every reliability query answers identically on them, across
    processes and sessions.

    Probabilities are digested from their IEEE-754 bytes (the same
    technique as the compiled kernel's stamp) rather than embedded in the
    JSON payload: shortest-repr float formatting is the single slowest
    step of hashing a graph, and this function sits on the
    ``catalog.update`` hot path, re-stamping the content after every
    delta.  Packed bytes are exactly as discriminating — bit-identical
    floats in, bit-identical digest out, ``-0.0`` included.
    """
    payload = {
        "vertices": [repr(vertex) for vertex in graph.vertices()],
        "edges": [[repr(edge.u), repr(edge.v)] for edge in graph.edges()],
        "probabilities": hashlib.sha256(
            b"".join(struct.pack("<d", edge.probability) for edge in graph.edges())
        ).hexdigest(),
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DatasetSource:
    """Register a named :mod:`repro.datasets` dataset (``key`` at ``scale``)."""

    key: str
    scale: str = "bench"


@dataclass(frozen=True)
class FileSource:
    """Register an edge-list file (read via :func:`repro.graph.io.read_edge_list`)."""

    path: str


#: What :meth:`GraphCatalog.register` accepts: a caller-built graph, a
#: dataset reference, or a file reference.
GraphSource = Union[UncertainGraph, DatasetSource, FileSource]


@dataclass(frozen=True)
class CatalogEntry:
    """One registered graph: its name, content, fingerprint, and version.

    ``version`` starts at 1 and increments monotonically on every
    :meth:`GraphCatalog.update`, while ``fingerprint`` is the content
    hash — the pair lets a client distinguish "different graph" (both
    change on an update) from "same graph, concurrent update" (a version
    bump between two reads of ``/graphs``).
    """

    name: str
    graph: UncertainGraph
    fingerprint: str
    source: str
    version: int = 1

    def describe(self) -> Dict[str, object]:
        """A JSON-safe summary for the ``/graphs`` endpoint."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "version": self.version,
            "source": self.source,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "average_degree": round(self.graph.average_degree(), 4),
            "average_probability": round(self.graph.average_probability(), 4),
        }


@dataclass(frozen=True)
class CatalogUpdate:
    """What one :meth:`GraphCatalog.update` call did, for callers to relay.

    ``old_fingerprint`` is what cached results of the pre-delta graph are
    keyed under — the service invalidates exactly that scope.
    ``incremental`` reports whether every prepared engine took the
    probability-only fast path; ``pools_invalidated`` totals the world
    pools dropped across them.
    """

    name: str
    old_fingerprint: str
    fingerprint: str
    version: int
    incremental: bool
    pools_invalidated: int

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe form (the core of the ``/update`` response)."""
        return dataclasses.asdict(self)


class GraphCatalog:
    """Named uncertain graphs, each with prepared per-config engines.

    Parameters
    ----------
    config:
        The default :class:`EstimatorConfig` of engines this catalog
        prepares.  A config without an integer seed is pinned to
        :data:`DEFAULT_SERVICE_SEED` — the service's answers must be
        deterministic functions of ``(graph, query, config)``, so OS
        seeding is not an option here; a live ``random.Random`` is
        rejected for the same reason.

    Notes
    -----
    Thread-safe: the server answers requests from multiple threads, and
    registration may race with queries.  Engines are created lazily on
    first use per ``(graph name, config fingerprint)`` and prepared
    (decomposition indexed) exactly once.
    """

    def __init__(self, config: Optional[EstimatorConfig] = None) -> None:
        self._config = self._normalize_config(config or EstimatorConfig())
        # Resolve the (lazily imported) backend now, so the first request
        # served does not pay for importing it outside any trace span.
        backend_factory(self._config.backend)
        self._entries: Dict[str, CatalogEntry] = {}
        self._engines: Dict[Tuple[str, str], ReliabilityEngine] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _normalize_config(config: EstimatorConfig) -> EstimatorConfig:
        import random

        if isinstance(config.rng, random.Random):
            raise ConfigurationError(
                "service configs must use an int seed (or None for the "
                "pinned default); a live random.Random has no stable "
                "fingerprint, so cached results could not be reproduced"
            )
        if config.rng is None:
            config = config.replace(rng=DEFAULT_SERVICE_SEED)
        return config

    @property
    def config(self) -> EstimatorConfig:
        """The catalog's default (normalized) engine configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, source: GraphSource, *, label: Optional[str] = None
    ) -> CatalogEntry:
        """Register a graph under ``name``; returns its catalog entry.

        ``source`` is the typed union of everything the catalog can
        serve: a caller-built :class:`~repro.graph.uncertain_graph.UncertainGraph`,
        a :class:`DatasetSource` naming a :mod:`repro.datasets` dataset,
        or a :class:`FileSource` naming an edge-list file.  ``label``
        overrides the recorded provenance string (defaults to
        ``"caller"``, ``"dataset:<key>@<scale>"``, or ``"file:<path>"``
        respectively).

        Re-registering a name with identical content is a no-op; with
        different content it raises, because clients may hold cached
        results keyed by the old fingerprint under that name — mutate a
        served graph through :meth:`update` instead.
        """
        if not name:
            raise ConfigurationError("a catalog entry needs a non-empty name")
        if isinstance(source, UncertainGraph):
            graph = source
            provenance = label if label is not None else "caller"
        elif isinstance(source, DatasetSource):
            graph = load_dataset(source.key, scale=source.scale)
            provenance = (
                label if label is not None else f"dataset:{source.key}@{source.scale}"
            )
        elif isinstance(source, FileSource):
            graph = read_edge_list(source.path, name=name)
            provenance = label if label is not None else f"file:{source.path}"
        else:
            raise ConfigurationError(
                "register() takes an UncertainGraph, DatasetSource, or "
                f"FileSource, got {type(source)!r}"
            )
        entry = CatalogEntry(
            name=name,
            graph=graph,
            fingerprint=graph_fingerprint(graph),
            source=provenance,
        )
        with self._lock:
            existing = self._entries.get(name)
            if existing is not None:
                if existing.fingerprint == entry.fingerprint:
                    return existing
                raise ConfigurationError(
                    f"catalog name {name!r} is already registered with "
                    "different content; unregister it first, pick a new "
                    "name, or apply a delta through update()"
                )
            self._entries[name] = entry
        return entry

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(
        self, name: str, delta: Union[DeltaOp, Mapping[str, Any]]
    ) -> CatalogUpdate:
        """Apply a typed delta to the graph registered under ``name``.

        The delta (any :mod:`repro.engine.deltas` value, or its
        ``to_dict`` wire form) is validated first — a rejected delta
        leaves graph, engines, and entry untouched.  On success every
        engine prepared for ``name`` is re-synced (incrementally for
        probability-only deltas: the decomposition index, compiled CSR,
        and constructed S²BDD diagrams survive — the latter re-swept with
        the new probabilities on next lookup; topology deltas evict the
        diagrams scoped to this graph), and the entry's fingerprint is
        recomputed with its version bumped.

        The caller owns invalidation of results cached under the returned
        ``old_fingerprint`` (:class:`~repro.service.core.ReliabilityService`
        does this) and must serialize updates against in-flight
        evaluations — the catalog only guarantees updates do not race
        each other or registration.
        """
        batch = as_graph_delta(delta)
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                known = ", ".join(repr(key) for key in self._entries) or "none"
                raise ConfigurationError(
                    f"unknown graph {name!r}; registered graphs: {known}"
                )
            engines = [
                engine for (key, _), engine in self._engines.items() if key == name
            ]
            graph = entry.graph
            if engines:
                outcome = engines[0].apply_delta(batch, graph)
                incremental = outcome.incremental
                pools_invalidated = outcome.pools_invalidated
                for other in engines[1:]:
                    synced = other.reprepare(graph, probability_only=incremental)
                    pools_invalidated += synced.pools_invalidated
            else:
                batch.validate(graph)
                incremental = batch.probability_only
                batch.apply(graph)
                pools_invalidated = 0
            updated = dataclasses.replace(
                entry,
                fingerprint=graph_fingerprint(graph),
                version=entry.version + 1,
            )
            self._entries[name] = updated
        return CatalogUpdate(
            name=name,
            old_fingerprint=entry.fingerprint,
            fingerprint=updated.fingerprint,
            version=updated.version,
            incremental=incremental,
            pools_invalidated=pools_invalidated,
        )

    def unregister(self, name: str) -> None:
        """Drop a graph and every engine prepared for it."""
        with self._lock:
            self._entries.pop(name, None)
            for key in [key for key in self._engines if key[0] == name]:
                del self._engines[key]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered graph names, in registration order."""
        with self._lock:
            return list(self._entries)

    def entry(self, name: str) -> CatalogEntry:
        """The catalog entry for ``name``; raises for unknown names."""
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(repr(key) for key in self.names()) or "none"
            raise ConfigurationError(
                f"unknown graph {name!r}; registered graphs: {known}"
            )
        return entry

    def engine(
        self, name: str, config: Optional[EstimatorConfig] = None
    ) -> ReliabilityEngine:
        """The prepared engine serving ``name`` under ``config``.

        One engine exists per ``(graph name, config fingerprint)``; it is
        created and ``prepare()``-d on first use, so its decomposition
        index and world pools are shared by every later request.
        """
        entry = self.entry(name)
        config = self._normalize_config(config) if config is not None else self._config
        key = (name, config.fingerprint())
        with self._lock:
            engine = self._engines.get(key)
        if engine is None:
            # Prepare outside the lock: decomposing a large graph can take
            # seconds and must not stall lookups on other graphs (or the
            # health probe).  Racing builders may duplicate the work once;
            # setdefault keeps the first engine so the key stays unique.
            built = ReliabilityEngine(config).prepare(entry.graph)
            with self._lock:
                engine = self._engines.setdefault(key, built)
        return engine

    def adopt_engine(self, name: str, engine: ReliabilityEngine) -> None:
        """Install a prepared engine as ``name``'s engine for its config.

        The snapshot loader uses this to hand the catalog an engine whose
        decomposition index and world pools were restored from disk, so
        the usual lazy ``prepare()`` in :meth:`engine` never runs.  The
        engine's config must fingerprint-match this catalog's default
        config — that pair is the cache key every served answer depends
        on.
        """
        fingerprint = engine.config.fingerprint()
        if fingerprint != self._config.fingerprint():
            raise ConfigurationError(
                f"engine config fingerprint {fingerprint!r} does not match "
                f"the catalog's {self._config.fingerprint()!r}; an adopted "
                "engine must serve exactly the catalog's default config"
            )
        self.entry(name)  # raises for unknown names
        with self._lock:
            self._engines[(name, fingerprint)] = engine

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(self, path: str, *, include_pools: bool = True) -> Dict:
        """Write this catalog's prepared state to the directory ``path``.

        See :mod:`repro.service.snapshot` for the on-disk format.  Returns
        the written catalog manifest.
        """
        from repro.service.snapshot import save_catalog_snapshot

        return save_catalog_snapshot(self, path, include_pools=include_pools)

    @classmethod
    def load_snapshot(cls, path: str, *, verify: bool = False) -> "GraphCatalog":
        """Rebuild a catalog — graphs registered, engines warm — from ``path``.

        With ``verify=True`` the snapshot's probe workload is re-evaluated
        and checksum-compared before the catalog is returned.  Raises
        :class:`~repro.exceptions.SnapshotError` on any corruption,
        version mismatch, or divergence.
        """
        from repro.service.snapshot import load_catalog_snapshot

        return load_catalog_snapshot(path, verify=verify)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> List[Dict[str, object]]:
        """JSON-safe summaries of every entry (the ``/graphs`` payload)."""
        with self._lock:
            entries = list(self._entries.values())
        return [entry.describe() for entry in entries]

    def engine_stats(self) -> Dict[str, Dict[str, EngineStats]]:
        """Per-graph, per-config engine counter snapshots.

        Shape: ``{graph name: {config fingerprint: EngineStats}}`` — what
        ``/stats`` serves under ``"engines"`` and ``/metrics`` labels
        ``graph`` and ``fingerprint``.
        """
        with self._lock:
            engines = dict(self._engines)
        stats: Dict[str, Dict[str, EngineStats]] = {}
        for (name, config_key), engine in engines.items():
            stats.setdefault(name, {})[config_key] = dataclasses.replace(engine.stats)
        return stats
