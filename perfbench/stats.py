"""Pure helpers of the benchmark: percentiles, failure accounting, version rules.

Nothing here imports the program under test, so the self-tests in
``perfbench/tests`` exercise these rules without building any graph.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported as trustworthy only when at least this many
#: samples lie strictly beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    The nearest-rank value is always one of the samples: the smallest
    sample such that at least ``q`` percent of all samples are at or below
    it.  Raises ``ValueError`` on an empty input.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``-th percentile."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_supported(count: int, q: float, minimum: int = MIN_TAIL_SAMPLES) -> bool:
    """Whether ``count`` samples put at least ``minimum`` beyond the ``q``-th percentile."""
    return samples_beyond(count, q) >= minimum


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (``0.0`` for an empty input)."""
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean of ``values`` (``0.0`` for an empty input)."""
    return float(sum(values) / len(values)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or ``0.0`` when the denominator is zero."""
    return float(numerator) / float(denominator) if denominator else 0.0


def latency_summary(seconds: Sequence[float], percentiles: Sequence[float]) -> Dict:
    """Per-percentile latency in milliseconds plus the tail-support flags."""
    summary: Dict = {"samples": len(seconds)}
    for q in percentiles:
        key = f"p{q:g}"
        summary[key + "_ms"] = percentile(seconds, q) * 1000.0 if seconds else 0.0
        summary[key + "_beyond"] = samples_beyond(len(seconds), q)
        summary[key + "_supported"] = tail_supported(len(seconds), q)
    return summary


@dataclass
class Tally:
    """Failure accounting: every error, refusal and wrong answer counts once.

    ``failed`` is what the benchmark reports; ``failed_share`` divides it by
    the number of operations attempted.  A refused request (HTTP 429) is a
    failure like any other: it missed every latency target.
    """

    attempted: int = 0
    errors: int = 0
    refused: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.refused + self.wrong

    @property
    def failed_share(self) -> float:
        return ratio(self.failed, self.attempted)

    def note(self, message: str) -> None:
        """Keep the first few failure messages for the report."""
        if len(self.notes) < 20:
            self.notes.append(message)


# ----------------------------------------------------------------------
# Fingerprint timelines for answers served while a graph was updated
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateRecord:
    """One committed update as the client saw it.

    ``sent`` and ``received`` bracket the round trip; ``version`` and
    ``fingerprint`` are what the update produced.
    """

    version: int
    fingerprint: str
    sent: float
    received: float


def fingerprint_timeline(
    initial_fingerprint: str, updates: Sequence[UpdateRecord]
) -> List[Tuple[str, float, float]]:
    """When each version's fingerprint may have been the served one.

    Returns ``(fingerprint, valid_from, valid_until)`` per version in
    version order.  A version becomes visible no earlier than the moment
    its update was sent, and stays visible until the response of the next
    update arrived; the initial version is visible from the start.
    """
    ordered = sorted(updates, key=lambda record: record.version)
    fingerprints = [initial_fingerprint] + [record.fingerprint for record in ordered]
    starts = [-math.inf] + [record.sent for record in ordered]
    ends = [record.received for record in ordered] + [math.inf]
    return list(zip(fingerprints, starts, ends))


def committed_in_flight(
    timeline: Sequence[Tuple[str, float, float]],
    fingerprint: str,
    sent: float,
    received: float,
) -> bool:
    """Whether ``fingerprint`` was committed at some point in ``[sent, received]``."""
    return any(
        candidate == fingerprint and start <= received and sent <= end
        for candidate, start, end in timeline
    )


def version_of(
    timeline: Sequence[Tuple[str, float, float]], fingerprint: str
) -> Optional[int]:
    """The 1-based version whose fingerprint is ``fingerprint``, if any."""
    for index, (candidate, _, _) in enumerate(timeline):
        if candidate == fingerprint:
            return index + 1
    return None
