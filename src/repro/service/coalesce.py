"""In-flight request coalescing and micro-batching.

Two load-shaping mechanisms sit between the network front-end and the
engine, both provided by :class:`SingleFlightBatcher`:

* **Single-flight**: concurrent *identical* requests (same cache key)
  share one computation.  The first submission creates the in-flight
  future; every duplicate arriving before it resolves receives the same
  future instead of enqueueing a second evaluation.
* **Micro-batching**: *distinct* pending requests for the same engine
  group (graph + config) are drained together and handed to the evaluator
  as one batch, so a burst of traffic takes the engine's lock and its
  cache-write pass once per drain instead of once per request.

Batching never changes answers: the service pins every query to seed
index 0 (see :meth:`ReliabilityEngine.query`'s ``seed_index``), so a
query's result is the same whether it runs alone or in a batch of 40.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int

__all__ = ["BatchItem", "CoalesceStats", "SingleFlightBatcher"]

#: One pending request: its dedup key and the opaque request object the
#: evaluator understands (the service passes typed queries through).
BatchItem = Tuple[Hashable, Any]

#: The evaluator contract: given a group label and the drained batch,
#: return exactly one outcome per item, in order — a result payload, or an
#: Exception instance for items that failed (exceptions are delivered to
#: that item's waiters only; they never poison the rest of the batch).
Evaluator = Callable[[str, Sequence[BatchItem]], List[Any]]


@dataclass
class CoalesceStats:
    """Counters of one :class:`SingleFlightBatcher`.

    ``submitted`` counts every request handed to :meth:`submit`;
    ``coalesced`` the subset that attached to an already-in-flight
    identical request; ``batches`` the evaluator invocations;
    ``batched_requests`` the items those invocations carried (so
    ``batched_requests / batches`` is the mean fold factor);
    ``largest_batch`` the biggest single drain.
    """

    submitted: int = 0
    coalesced: int = 0
    batches: int = 0
    batched_requests: int = 0
    largest_batch: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class SingleFlightBatcher:
    """Deduplicate identical requests and batch distinct ones per group.

    Parameters
    ----------
    evaluate:
        The evaluator callback (see :data:`Evaluator`).  Called on the
        batcher's worker thread with every drained batch; must return one
        outcome per item in order.  If it raises, the whole batch's
        waiters receive that exception.
    max_batch:
        Largest batch one evaluator call may receive; a bigger drain is
        split across consecutive calls.
    registry:
        An optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        given, every drained batch observes its size and evaluation
        latency into ``repro_coalesce_batch_size`` /
        ``repro_coalesce_batch_seconds`` histograms.

    Notes
    -----
    One worker thread drains pending requests group by group (FIFO over
    groups, preserving submission order within a group).  Requests
    arriving while the evaluator is busy accumulate and are folded into
    the next drain — the longer an evaluation takes, the bigger the next
    batch.
    """

    def __init__(
        self, evaluate: Evaluator, *, max_batch: int = 64, registry: Any = None
    ) -> None:
        check_positive_int(max_batch, "max_batch")
        self._evaluate = evaluate
        self._max_batch = max_batch
        self._batch_size_histogram = None
        self._batch_seconds_histogram = None
        if registry is not None:
            self._batch_size_histogram = registry.histogram(
                "repro_coalesce_batch_size",
                "Requests per drained micro-batch.",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            )
            self._batch_seconds_histogram = registry.histogram(
                "repro_coalesce_batch_seconds",
                "Evaluator latency per drained micro-batch.",
            )
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: "OrderedDict[str, List[Tuple[Hashable, Any, Future]]]" = (
            OrderedDict()
        )
        self._inflight: Dict[Hashable, Future] = {}
        self._stats = CoalesceStats()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-service-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, group: str, key: Hashable, request: Any) -> "Future[Any]":
        """Enqueue ``request`` and return the future of its outcome.

        Identical keys already in flight are coalesced: the returned
        future is the original submission's, and no new work is queued.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("the service batcher is closed")
            self._stats.submitted += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self._stats.coalesced += 1
                return existing
            future: "Future[Any]" = Future()
            self._inflight[key] = future
            self._pending.setdefault(group, []).append((key, request, future))
            self._wakeup.notify()
        return future

    # ------------------------------------------------------------------
    # Worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._pending:
                    return
                group, waiting = next(iter(self._pending.items()))
                batch = waiting[: self._max_batch]
                remainder = waiting[self._max_batch :]
                if remainder:
                    self._pending[group] = remainder
                else:
                    del self._pending[group]
                self._stats.batches += 1
                self._stats.batched_requests += len(batch)
                self._stats.largest_batch = max(self._stats.largest_batch, len(batch))
            self._deliver(group, batch)

    def _deliver(
        self, group: str, batch: List[Tuple[Hashable, Any, Future]]
    ) -> None:
        started = time.perf_counter()
        try:
            outcomes = self._evaluate(group, [(key, request) for key, request, _ in batch])
            if len(outcomes) != len(batch):
                raise ConfigurationError(
                    f"evaluator returned {len(outcomes)} outcomes for a "
                    f"batch of {len(batch)} requests"
                )
        except Exception as error:
            outcomes = [error] * len(batch)
        if self._batch_size_histogram is not None:
            self._batch_size_histogram.observe(len(batch))
            self._batch_seconds_histogram.observe(time.perf_counter() - started)
        for (key, _, future), outcome in zip(batch, outcomes):
            with self._lock:
                self._inflight.pop(key, None)
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> CoalesceStats:
        """An independent snapshot of the coalescing counters."""
        with self._lock:
            return CoalesceStats(**asdict(self._stats))

    def close(self, *, drain: bool = True) -> None:
        """Stop the worker thread.

        With ``drain`` (default) pending batches are evaluated first;
        otherwise waiters receive a :class:`ConfigurationError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for waiting in self._pending.values():
                    for key, _, future in waiting:
                        self._inflight.pop(key, None)
                        future.set_exception(
                            ConfigurationError("the service batcher is closed")
                        )
                self._pending.clear()
            self._wakeup.notify_all()
        self._worker.join(timeout=30.0)
