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
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.engine.queries import strip_timing
from repro.exceptions import ConfigurationError
from repro.obs.metrics import counter_field, gauge_field
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

    A high ``bytes_evicted`` rate under a low ``hit_rate`` means the byte
    budget is too small for the working set.
    """

    hits: int = counter_field("Result-cache lookups that hit.")
    misses: int = counter_field("Result-cache lookups that missed.")
    stores: int = counter_field("Payloads written into the result cache.")
    evictions: int = counter_field("Result-cache entries dropped by the LRU bound.")
    expirations: int = counter_field(
        "Result-cache entries dropped because their TTL lapsed."
    )
    invalidations: int = counter_field(
        "Result-cache entries dropped by scoped invalidation after a graph "
        "update, or by a full flush."
    )
    bytes_evicted: int = counter_field("Payload bytes released by LRU evictions.")
    bytes_expired: int = counter_field("Payload bytes released by TTL expirations.")
    bytes_invalidated: int = counter_field("Payload bytes released by invalidations.")
    current_bytes: int = gauge_field("Payload bytes the result cache holds now.")
    entries: int = gauge_field("Entries the result cache holds now.")
    max_bytes: int = gauge_field("The result cache's configured byte budget.")
    hit_rate: float = gauge_field(
        "Result-cache hits over lookups, rounded to 6 places (0 before the "
        "first lookup)."
    )


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
        """The byte size a payload is accounted at: its compact JSON form
        without the timing fields, whose float reprs vary in length from
        run to run (the strip :func:`~repro.engine.queries.results_checksum`
        applies), so identical runs account identical bytes."""
        return len(
            json.dumps(
                strip_timing(payload), separators=(",", ":"), default=repr
            ).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(
        self, key: CacheKey, *, count_miss: bool = True
    ) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` (counted as a miss).

        ``count_miss=False`` counts a hit but not a miss: a probe whose
        caller goes on to a counted ``get`` when it misses, so each
        request counts one miss.
        """
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
                if count_miss:
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
            lookups = self._stats.hits + self._stats.misses
            return replace(
                self._stats,
                entries=len(self._entries),
                hit_rate=round(self._stats.hits / lookups if lookups else 0.0, 6),
            )
