"""In-flight request coalescing (single-flight).

Concurrent *identical* requests (same cache key) share one computation:
the first caller for a key computes on its own thread, and every
identical call arriving before it finishes waits on the first caller's
:class:`~concurrent.futures.Future` instead of computing again.  Nothing
here starts a thread; the service calls :meth:`SingleFlight.run` from
whichever thread is serving the request.

Sharing never changes answers: the service pins every query to seed
index 0 (see :meth:`ReliabilityEngine.query`'s ``seed_index``), so a
query's result is the same whoever computes it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, Optional

from repro.obs.metrics import counter_field

__all__ = ["CoalesceStats", "SingleFlight"]


@dataclass
class CoalesceStats:
    """Counters of one :class:`SingleFlight`."""

    submitted: int = counter_field("Requests handed to the single-flight coalescer.")
    coalesced: int = counter_field(
        "Requests answered by another identical request's computation."
    )


class SingleFlight:
    """Compute each key once across concurrent identical calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, Future] = {}
        self._stats = CoalesceStats()

    def run(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        *,
        timeout: Optional[float] = None,
        requests: int = 1,
    ) -> Any:
        """``compute()``'s outcome for ``key``, shared with identical calls.

        The first caller for ``key`` runs ``compute`` on its own thread;
        a call arriving while it runs waits up to ``timeout`` seconds for
        that outcome (:class:`concurrent.futures.TimeoutError` on expiry)
        and receives the same result or exception.  The key clears when
        ``compute`` returns or raises, so a later call computes afresh.
        ``requests`` is how many identical requests this call answers (a
        batch that repeats a query); all but the computing one count as
        coalesced.
        """
        with self._lock:
            self._stats.submitted += requests
            running = self._inflight.get(key)
            if running is None:
                future = self._inflight[key] = Future()
                self._stats.coalesced += requests - 1
            else:
                self._stats.coalesced += requests
        if running is not None:
            return running.result(timeout=timeout)
        try:
            result = compute()
        except BaseException as error:
            future.set_exception(error)
            raise
        finally:
            with self._lock:
                del self._inflight[key]
        future.set_result(result)
        return result

    def stats(self) -> CoalesceStats:
        """An independent snapshot of the coalescing counters."""
        with self._lock:
            return replace(self._stats)
