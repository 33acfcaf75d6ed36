"""The query-serving subsystem: serve reliability queries to many clients.

Layered on the engine (:mod:`repro.engine`), this package turns the
library into a *service*: many clients, one shared environment of
prepared graphs, with cross-request reuse the engine alone cannot do.

* :mod:`repro.service.catalog` — :class:`GraphCatalog`: named uncertain
  graphs keyed by content fingerprint, each served by one prepared
  :class:`~repro.engine.engine.ReliabilityEngine` per config, so 2ECC
  indexes and world pools are shared across all clients; registration
  takes the typed :data:`~repro.service.catalog.GraphSource` union
  (graph / :class:`DatasetSource` / :class:`FileSource`), and
  :meth:`GraphCatalog.update` applies typed deltas with versioned
  fingerprints and incremental re-prepare,
* :mod:`repro.service.cache` — :class:`ResultCache`: an LRU (+ optional
  TTL), byte-bounded cache keyed by ``(graph fingerprint, query
  canonical key, config fingerprint)``; hits are bit-identical to fresh
  deterministic-seed evaluation,
* :mod:`repro.service.coalesce` — :class:`SingleFlight`: concurrent
  identical requests share one computation,
* :mod:`repro.service.core` — :class:`ReliabilityService`: the blocking
  serving facade combining the three; a cache miss is evaluated on the
  requesting thread, under one lock shared with graph updates,
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio JSON-over-HTTP front-end (``/query``, ``/query_batch``,
  ``/update``, ``/graphs``, ``/stats``, ``/healthz``, with admission
  control) and its small blocking client,
* :mod:`repro.service.snapshot` — versioned on-disk snapshots of a
  catalog's prepared state (``GraphCatalog.save_snapshot`` /
  ``load_snapshot``): warm starts bit-identical to fresh ``prepare()``,
* :mod:`repro.service.store` — :class:`SharedResultStore`: a persistent
  sqlite tier under the memory cache, shared by replica processes and
  surviving restarts (see :mod:`repro.cluster`).

Run a server from the command line (or the ``repro-serve`` script)::

    python -m repro.service --port 8350 --graphs karate,tokyo

Example (in-process)
--------------------
>>> from repro.engine import EstimatorConfig
>>> from repro.engine.queries import KTerminalQuery
>>> from repro.service import DatasetSource, GraphCatalog, ReliabilityService
>>> catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=300, rng=7))
>>> _ = catalog.register("karate", DatasetSource("karate"))
>>> service = ReliabilityService(catalog)
>>> first = service.query("karate", KTerminalQuery(terminals=(1, 34)))
>>> again = service.query("karate", KTerminalQuery(terminals=(1, 34)))
>>> first["cached"], again["cached"], first["checksum"] == again["checksum"]
(False, True, True)
>>> service.close()
"""

from repro.service.cache import CacheStats, ResultCache, cache_key
from repro.service.catalog import (
    CatalogEntry,
    CatalogUpdate,
    DatasetSource,
    FileSource,
    GraphCatalog,
    GraphSource,
    graph_fingerprint,
)
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceResponse,
)
from repro.service.coalesce import CoalesceStats, SingleFlight
from repro.service.core import ReliabilityService, ServiceStats
from repro.service.server import AdmissionStats, ServiceServer
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    load_catalog_snapshot,
    save_catalog_snapshot,
)
from repro.service.store import SharedResultStore, StoreStats

__all__ = [
    "AdmissionStats",
    "CacheStats",
    "CatalogEntry",
    "CatalogUpdate",
    "CoalesceStats",
    "DatasetSource",
    "FileSource",
    "GraphCatalog",
    "GraphSource",
    "ReliabilityService",
    "ResultCache",
    "SNAPSHOT_FORMAT_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceResponse",
    "ServiceServer",
    "ServiceStats",
    "SharedResultStore",
    "SingleFlight",
    "StoreStats",
    "cache_key",
    "graph_fingerprint",
    "load_catalog_snapshot",
    "save_catalog_snapshot",
]
