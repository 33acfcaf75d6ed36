"""Reference pool scans: the row-major loops of the pre-kernel ``WorldPool``.

:class:`repro.engine.worlds.WorldPool` answers every question with
whole-column integer operations over packed label columns; this module keeps
the row-by-row Python loops those scans replaced, reading one label tuple per
world (``pool.labels``).  It is a test and benchmark reference only: the
pool tests and the kernel gate of ``benchmarks/gates.py`` require the pool's
floats and ``ThresholdScan`` tuples to equal these exactly.

``rows`` is a sequence of per-world label tuples; vertices are given by
their positions in graph iteration order.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "row_connectivity_frequency",
    "row_pair_connectivity",
    "row_reachability",
    "row_threshold_scan",
]


def row_connectivity_frequency(rows, positions) -> float:
    """The pre-kernel row-major ``WorldPool.connectivity_frequency`` loop."""
    first, rest = positions[0], positions[1:]
    positive = 0
    for labels in rows:
        root = labels[first]
        if all(labels[i] == root for i in rest):
            positive += 1
    return positive / len(rows)


def row_threshold_scan(rows, positions, threshold: float):
    """The pre-kernel row-major ``WorldPool.threshold_scan`` loop."""
    total = len(rows)
    first, rest = positions[0], positions[1:]
    positives = 0
    for examined, labels in enumerate(rows, start=1):
        root = labels[first]
        if all(labels[i] == root for i in rest):
            positives += 1
        if positives / total >= threshold:
            return (True, positives, examined, examined < total)
        if (positives + (total - examined)) / total < threshold:
            return (False, positives, examined, examined < total)
    return (positives / total >= threshold, positives, total, False)


def row_reachability(rows, positions, num_vertices: int) -> List[float]:
    """The pre-kernel row-major ``WorldPool.reachability_frequencies`` loop."""
    first, rest = positions[0], positions[1:]
    counts = [0] * num_vertices
    for labels in rows:
        root = labels[first]
        if rest and not all(labels[i] == root for i in rest):
            continue
        for position, label in enumerate(labels):
            if label == root:
                counts[position] += 1
    total = len(rows)
    return [count / total for count in counts]


def row_pair_connectivity(rows, ia: int, ib: int) -> float:
    """The pre-kernel row-major ``WorldPool.pair_connectivity`` loop."""
    connected = sum(1 for labels in rows if labels[ia] == labels[ib])
    return connected / len(rows)
