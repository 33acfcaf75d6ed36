"""The shared result tier: a persistent sqlite store under the memory cache.

The in-memory :class:`~repro.service.cache.ResultCache` dies with its
process and is private to it.  A scaled-out deployment wants neither:
replicas answering the same deterministic queries should reuse each
other's work, and a restarted replica should not re-pay for everything it
already answered.  :class:`SharedResultStore` is that second tier — a
sqlite file keyed by the same triple as the memory cache::

    (graph fingerprint, query.canonical_key(), config.fingerprint())

Sharing cached answers across processes is safe *only* because of the
service's determinism contract: every value is a pure function of exactly
that key (pinned seed schedule, fingerprinted config), so whichever
replica computed an answer first, every other replica would have computed
the same bytes.  Entries never go stale *under a fixed fingerprint* — a
graph update changes the fingerprint (new writes land under new keys) and
:meth:`SharedResultStore.invalidate_graph` drops the rows of the old one,
so a lost write or failed read merely costs a recomputation.

That shapes the error policy: **the store degrades to a miss**.  Locked
database, corrupted file, disk full — lookups return ``None``, writes are
dropped, and the ``errors`` counter records it; the service keeps
answering from the engine.  WAL journaling keeps concurrent readers and
the occasional writer from blocking each other across replica processes.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.obs.metrics import counter_field, gauge_field
from repro.service.cache import CacheKey

__all__ = ["SharedResultStore", "StoreStats"]


@dataclass
class StoreStats:
    """Counters of one :class:`SharedResultStore` handle.

    Counters are per-handle (this process's view), not global across
    replicas — aggregate over ``/stats`` of every replica for the cluster
    picture.  An invalidation's delete is global to the file, but only
    the handle that performed it counts it.
    """

    hits: int = counter_field("Shared-store lookups that hit.")
    misses: int = counter_field("Shared-store lookups that missed.")
    stores: int = counter_field("Payloads written into the shared store.")
    errors: int = counter_field(
        "Shared-store operations that degraded to a miss or a dropped write."
    )
    invalidations: int = counter_field(
        "Shared-store rows deleted by scoped invalidation after a graph update."
    )
    hit_rate: float = gauge_field(
        "Shared-store hits over lookups, rounded to 6 places (0 before the "
        "first lookup)."
    )


class SharedResultStore:
    """A persistent, cross-process result store over one sqlite file.

    Parameters
    ----------
    path:
        Filesystem path of the database (created on first use).
        ``":memory:"`` works for tests but defeats the purpose.
    timeout:
        Seconds a statement waits on a locked database before the
        operation degrades to a miss (sqlite ``busy_timeout``).

    Notes
    -----
    One connection per handle, serialized by a lock: the service calls
    from multiple request threads, and sqlite connections are not
    concurrency-safe by default.  Cross-*process* concurrency is sqlite's
    own job (WAL mode), which is exactly the deployment shape — N replica
    processes sharing one file.
    """

    def __init__(self, path: str, *, timeout: float = 2.0) -> None:
        self._path = path
        self._timeout = timeout
        self._lock = threading.Lock()
        self._stats = StoreStats()
        self._connection: Optional[sqlite3.Connection] = None
        self._connection = self._connect()
        if self._connection is None:
            self._stats.errors += 1

    def _connect(self) -> Optional[sqlite3.Connection]:
        """Open and initialize the database; ``None`` on any sqlite error.

        Touches no shared counters (the caller accounts the failure), so
        it is safe from any context without the handle lock.
        """
        try:
            connection = sqlite3.connect(
                self._path, timeout=self._timeout, check_same_thread=False
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                """
                CREATE TABLE IF NOT EXISTS results (
                    graph_fingerprint TEXT NOT NULL,
                    query_key TEXT NOT NULL,
                    config_fingerprint TEXT NOT NULL,
                    payload TEXT NOT NULL,
                    created REAL NOT NULL,
                    PRIMARY KEY (graph_fingerprint, query_key, config_fingerprint)
                )
                """
            )
            connection.commit()
            return connection
        except sqlite3.Error:
            return None

    @property
    def path(self) -> str:
        """The database file this handle reads and writes."""
        return self._path

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` (miss or error)."""
        with self._lock:
            if self._connection is None:
                self._stats.misses += 1
                return None
            try:
                row = self._connection.execute(
                    "SELECT payload FROM results WHERE graph_fingerprint = ? "
                    "AND query_key = ? AND config_fingerprint = ?",
                    key,
                ).fetchone()
            except sqlite3.Error:
                self._stats.errors += 1
                self._stats.misses += 1
                return None
            if row is None:
                self._stats.misses += 1
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                # A torn or tampered row: drop it and recompute.
                self._stats.errors += 1
                self._stats.misses += 1
                self._discard(self._connection, key)
                return None
            self._stats.hits += 1
            return payload

    def put(self, key: CacheKey, payload: Dict[str, Any]) -> bool:
        """Persist ``payload`` under ``key``; returns whether it was stored.

        ``INSERT OR REPLACE``: replicas racing to store the same key write
        identical bytes (determinism contract), so last-writer-wins is not
        a conflict, just redundancy.
        """
        try:
            blob = json.dumps(payload, separators=(",", ":"))
        except (TypeError, ValueError):
            # Counter mutation needs the lock even on this early-out path
            # (LOCK001): other threads increment the same stats under it.
            with self._lock:
                self._stats.errors += 1
            return False
        with self._lock:
            if self._connection is None:
                return False
            try:
                self._connection.execute(
                    "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?)",
                    (*key, blob, time.time()),
                )
                self._connection.commit()
            except sqlite3.Error:
                self._stats.errors += 1
                return False
            self._stats.stores += 1
            return True

    def invalidate_graph(self, graph_fingerprint: str) -> int:
        """Delete exactly the rows stored under ``graph_fingerprint``.

        The fingerprint is the first primary-key column, so after a graph
        update this drops precisely the stale results — rows for other
        graphs (and for the updated graph's new fingerprint) survive.
        Returns the number of rows deleted; errors degrade to 0 deletions
        like every other store operation.
        """
        with self._lock:
            if self._connection is None:
                return 0
            try:
                cursor = self._connection.execute(
                    "DELETE FROM results WHERE graph_fingerprint = ?",
                    (graph_fingerprint,),
                )
                self._connection.commit()
            except sqlite3.Error:
                self._stats.errors += 1
                return 0
            dropped = cursor.rowcount if cursor.rowcount > 0 else 0
            self._stats.invalidations += dropped
            return dropped

    def invalidate_all(self) -> int:
        """Delete every row in the store file (all graphs, all configs).

        Global by design — the file is shared across replicas, so this is
        the operational full flush, not routine post-update hygiene.
        Returns the number of rows deleted (0 on error, as usual).
        """
        with self._lock:
            if self._connection is None:
                return 0
            try:
                cursor = self._connection.execute("DELETE FROM results")
                self._connection.commit()
            except sqlite3.Error:
                self._stats.errors += 1
                return 0
            dropped = cursor.rowcount if cursor.rowcount > 0 else 0
            self._stats.invalidations += dropped
            return dropped

    def _discard(self, connection: sqlite3.Connection, key: CacheKey) -> None:
        """Drop one row.  The caller holds the lock and passes the live
        connection explicitly, so this method touches no guarded state."""
        try:
            connection.execute(
                "DELETE FROM results WHERE graph_fingerprint = ? "
                "AND query_key = ? AND config_fingerprint = ?",
                key,
            )
            connection.commit()
        except sqlite3.Error:
            self._stats.errors += 1  # reprolint: ok(LOCK001) caller holds the lock

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            if self._connection is None:
                return 0
            try:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            except sqlite3.Error:
                self._stats.errors += 1
                return 0
            return int(row[0])

    def stats(self) -> StoreStats:
        """An independent snapshot of this handle's counters."""
        with self._lock:
            lookups = self._stats.hits + self._stats.misses
            return replace(
                self._stats,
                hit_rate=round(self._stats.hits / lookups if lookups else 0.0, 6),
            )

    def close(self) -> None:
        """Close the underlying connection (later operations degrade to miss)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    def __enter__(self) -> "SharedResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
