"""The service result cache: LRU + optional TTL, byte-size bounded.

Identical queries from different clients should hit a cache, not recompute
a Monte-Carlo estimate.  :class:`ResultCache` stores JSON-safe response
payloads keyed by the triple the service's determinism contract is built
on::

    (graph fingerprint, query.canonical_key(), config.fingerprint())

Because the service evaluates every request with a pinned seed schedule
(``seed_index=0`` on a deterministically seeded engine), that key fully
determines the answer — a cached hit is bit-identical (timing fields
aside) to a fresh evaluation, which tests and the benchmark's parity gate
verify through :func:`repro.engine.queries.results_checksum`.

Entries are evicted least-recently-used once the configured byte budget
(or entry count) is exceeded, and lazily expired when a TTL is set.  All
counters are exposed through :meth:`ResultCache.stats` and merged into the
service's ``/stats`` payload.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int

__all__ = ["CacheStats", "ResultCache", "cache_key"]

#: Default byte budget (16 MiB) — thousands of typical query results.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

CacheKey = Tuple[str, str, str]


def cache_key(
    graph_fingerprint: str, query_key: str, config_fingerprint: str
) -> CacheKey:
    """The service cache key triple (documented contract, one place)."""
    return (graph_fingerprint, query_key, config_fingerprint)


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache`.

    ``hits`` / ``misses`` count lookups; ``evictions`` counts entries
    dropped by the LRU bound, ``expirations`` entries dropped because
    their TTL lapsed — with ``bytes_evicted`` / ``bytes_expired``
    accumulating the payload bytes those drops released, so cache churn
    is measurable (a high ``bytes_evicted`` rate under a low hit rate
    means the byte budget is too small for the working set).
    ``invalidations`` counts entries dropped by scoped invalidation
    (:meth:`ResultCache.invalidate_graph` after a graph update, or
    :meth:`ResultCache.invalidate_all`), with ``bytes_invalidated``
    accumulating the payload bytes released — same convention as
    ``bytes_evicted``.  ``current_bytes`` / ``entries`` describe the live
    content; ``max_bytes`` the configured budget.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    bytes_evicted: int = 0
    bytes_expired: int = 0
    bytes_invalidated: int = 0
    current_bytes: int = 0
    entries: int = 0
    max_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["hit_rate"] = round(self.hit_rate, 6)
        return payload


class _Entry:
    __slots__ = ("payload", "size", "expires_at")

    def __init__(self, payload: Dict[str, Any], size: int, expires_at: Optional[float]):
        self.payload = payload
        self.size = size
        self.expires_at = expires_at


class ResultCache:
    """A thread-safe LRU cache of JSON-safe service response payloads.

    Parameters
    ----------
    max_bytes:
        Byte budget over the serialized size of all cached payloads
        (:data:`DEFAULT_MAX_BYTES` by default).  A payload larger than the
        whole budget is simply not cached.
    max_entries:
        Optional additional bound on the entry count.
    ttl:
        Optional time-to-live in seconds; entries older than this are
        treated as misses (and dropped) on lookup.  ``None`` disables
        expiry — correct for the service's deterministic results, which
        never go stale; a TTL only bounds staleness of *stats-bearing*
        payload fields and memory residency.
    clock:
        Injectable monotonic clock, for tests.
    """

    def __init__(
        self,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: Optional[int] = None,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_positive_int(max_bytes, "max_bytes")
        if max_entries is not None:
            check_positive_int(max_entries, "max_entries")
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"ttl must be positive or None, got {ttl!r}")
        self._max_bytes = max_bytes
        self._max_entries = max_entries
        self._ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats(max_bytes=max_bytes)

    @staticmethod
    def payload_size(payload: Dict[str, Any]) -> int:
        """The byte size a payload is accounted at (its compact JSON form)."""
        return len(
            json.dumps(payload, separators=(",", ":"), default=repr).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.expires_at is not None:
                if self._clock() >= entry.expires_at:
                    del self._entries[key]
                    self._stats.current_bytes -= entry.size
                    self._stats.expirations += 1
                    self._stats.bytes_expired += entry.size
                    entry = None
            if entry is None:
                self._stats.misses += 1
                self._stats.entries = len(self._entries)
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry.payload

    def put(self, key: CacheKey, payload: Dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``; returns whether it was cached.

        Payloads larger than the whole byte budget are rejected (returns
        ``False``) rather than evicting the entire cache to fit them.
        """
        size = self.payload_size(payload)
        if size > self._max_bytes:
            return False
        expires_at = self._clock() + self._ttl if self._ttl is not None else None
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._stats.current_bytes -= old.size
            self._entries[key] = _Entry(payload, size, expires_at)
            self._stats.current_bytes += size
            self._stats.stores += 1
            # The just-stored entry is MRU and within budget on its own, so
            # this loop always terminates before evicting it.
            while self._stats.current_bytes > self._max_bytes or (
                self._max_entries is not None
                and len(self._entries) > self._max_entries
            ):
                _, evicted = self._entries.popitem(last=False)
                self._stats.current_bytes -= evicted.size
                self._stats.evictions += 1
                self._stats.bytes_evicted += evicted.size
            self._stats.entries = len(self._entries)
        return True

    def clear(self) -> None:
        """Drop every entry (counters other than content gauges persist)."""
        with self._lock:
            self._entries.clear()
            self._stats.current_bytes = 0
            self._stats.entries = 0

    # ------------------------------------------------------------------
    # Scoped invalidation
    # ------------------------------------------------------------------
    def invalidate_graph(self, graph_fingerprint: str) -> int:
        """Drop exactly the entries keyed under ``graph_fingerprint``.

        The graph fingerprint is the first element of the cache-key
        triple, so after a graph update this removes precisely the stale
        results — entries for other graphs (and other versions of this
        one) are untouched.  Returns how many entries were dropped.
        """
        with self._lock:
            stale = [
                key for key in self._entries if key[0] == graph_fingerprint
            ]
            for key in stale:
                entry = self._entries.pop(key)
                self._stats.current_bytes -= entry.size
                self._stats.invalidations += 1
                self._stats.bytes_invalidated += entry.size
            self._stats.entries = len(self._entries)
            return len(stale)

    def invalidate_all(self) -> int:
        """Drop every entry, counting the drops as invalidations.

        Unlike :meth:`clear` (a maintenance reset), this is the audited
        form: ``invalidations`` / ``bytes_invalidated`` advance so the
        flush shows up in ``/stats``.  Returns the entry count dropped.
        """
        with self._lock:
            dropped = len(self._entries)
            freed = self._stats.current_bytes
            self._entries.clear()
            self._stats.invalidations += dropped
            self._stats.bytes_invalidated += freed
            self._stats.current_bytes = 0
            self._stats.entries = 0
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """An independent snapshot of the cache counters."""
        with self._lock:
            self._stats.entries = len(self._entries)
            return CacheStats(**asdict(self._stats))
