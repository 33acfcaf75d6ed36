"""Shared pools of sampled possible worlds.

Sampling-driven workloads — reliability search, top-k ranking, clustering,
and the plain-sampling backend — all reduce to the same primitive: draw
``s`` possible worlds of one uncertain graph and ask connectivity questions
against them.  Before the query layer existed, every analysis resampled its
own worlds on every call.  :class:`WorldPool` materializes one world set
*once* (as per-world component labellings, so every later question is a
lookup) and answers all of those questions from it:

* :meth:`connectivity_frequency` — the Monte Carlo ``R̂[G, T]`` estimate,
* :meth:`threshold_scan` — "is reliability ≥ η?" with early exit as soon as
  the remaining worlds cannot change the decision,
* :meth:`reachability_frequencies` — per-vertex connection probabilities to
  a source set (the reliability-search screening pass, and one column per
  centre for clustering),
* :meth:`pair_connectivity` — pairwise connection probability.

Storage layout.  A pool keeps one Python ``int`` per vertex, its *packed
column*: unit ``w`` of ``packed[v]`` (fixed width, little-endian) is vertex
``v``'s component label in world ``w``.  Labels are vertex indices in
``[0, |V|)``.  A unit is 2 bytes when every label and the all-ones sentinel
fit (``|V| <= 65,535``) and 4 bytes otherwise, so the graph alone decides
the width and no label can equal the all-ones unit.  Every question is then
a handful of whole-column integer operations: ``a ^ b`` has a zero unit
exactly where vertices ``a`` and ``b`` share a component, one carry step
folds every non-zero unit onto its top bit, and ``int.bit_count`` counts the
worlds in which they are apart.

Pools are cheap to query but linear in ``samples × |V|`` to store, so the
engine caches a bounded number of them per prepared graph, keyed by seed
and sample count and invalidated whenever the graph's topology *or* its
edge probabilities change (see :meth:`ReliabilityEngine.world_pool`).

Reproducibility contracts (two, by construction path):

* Pools built from a *live generator* (``WorldPool(graph, samples=s,
  rng=...)``) draw exactly one uniform per non-loop edge, in edge-id
  order, from that single sequential stream — the same stream the
  historical ``repro.analysis`` samplers consumed — so the one-shot
  analysis wrappers keep reproducing their pre-pool results bit-for-bit.
* Pools built from an *integer seed* (:meth:`WorldPool.from_seed`, the
  engine-managed path) are sampled in fixed-size **chunks** of
  :data:`WORLD_CHUNK_SIZE` worlds; chunk ``j`` draws its worlds from an
  independent generator seeded with :func:`chunk_seed`.  Because every
  chunk re-derives its own seed, a pool seed names the same worlds in
  every process, and a pool's first chunks do not depend on its size.
"""

from __future__ import annotations

import random
import struct
from itertools import starmap
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ConfigurationError, TerminalError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.utils.rng import RandomLike, resolve_rng
from repro.utils.validation import check_positive_int, check_probability

if TYPE_CHECKING:
    from repro.graph.uncertain_graph import UncertainGraph

__all__ = [
    "ThresholdScan",
    "WORLD_CHUNK_SIZE",
    "WorldPool",
    "chunk_seed",
    "chunk_spans",
]

Vertex = Hashable

#: Worlds per chunk of the seeded (engine-managed) sampling scheme.  The
#: value is part of the reproducibility contract: changing it changes what
#: a given pool seed means, so it is a module constant, not a knob.
WORLD_CHUNK_SIZE = 256

#: Worlds per block of :meth:`WorldPool.threshold_scan`'s early-exit check.
_SCAN_BLOCK = 256

#: ``struct`` / ``memoryview`` format of one label unit, by unit width.
_UNIT_FORMAT = {2: "H", 4: "I"}

_MASK64 = (1 << 64) - 1
#: splitmix64's golden gamma, reused to stride chunk indices apart.
_CHUNK_GAMMA = 0x9E3779B97F4A7C15


def chunk_seed(seed: int, chunk_index: int) -> int:
    """The deterministic 64-bit seed of chunk ``chunk_index`` of pool ``seed``.

    A splitmix64 finalizer over ``seed + gamma * (chunk_index + 1)``: each
    chunk's generator is independent of every other chunk's, so chunks can
    be (re-)drawn in any order on any process and always yield the same
    worlds.
    """
    if chunk_index < 0:
        raise ConfigurationError(f"chunk_index must be >= 0, got {chunk_index}")
    z = (seed + _CHUNK_GAMMA * (chunk_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def chunk_spans(
    samples: int, chunk_size: int = WORLD_CHUNK_SIZE
) -> List[Tuple[int, int]]:
    """The ``(chunk_index, count)`` spans covering ``samples`` worlds in order.

    Every chunk holds ``chunk_size`` worlds except possibly the last.
    """
    check_positive_int(samples, "samples")
    check_positive_int(chunk_size, "chunk_size")
    return [
        (index, min(chunk_size, samples - start))
        for index, start in enumerate(range(0, samples, chunk_size))
    ]


def _unit_width(num_vertices: int) -> int:
    """Bytes per label unit: 2 while every label and the all-ones sentinel fit."""
    return 2 if num_vertices <= 0xFFFF else 4


class ThresholdScan(NamedTuple):
    """Outcome of :meth:`WorldPool.threshold_scan`.

    Attributes
    ----------
    satisfied:
        Whether the pool's connectivity frequency is ``>= threshold``.
    positives:
        Number of connected worlds among the examined ones.
    examined:
        How many worlds were examined before the decision was reached.
    early_exit:
        ``True`` when the scan stopped before the last world because the
        remaining worlds could no longer change the decision.
    """

    satisfied: bool
    positives: int
    examined: int
    early_exit: bool

    @property
    def frequency(self) -> float:
        """Connected fraction of the examined worlds (partial when early)."""
        if self.examined == 0:
            return 0.0
        return self.positives / self.examined


class WorldPool:
    """A reusable set of sampled possible worlds of one uncertain graph.

    Each world is a component labelling: vertex ``i`` and vertex ``j`` are
    connected in world ``w`` iff their labels in ``w`` are equal.  That makes
    every connectivity question a scan of precomputed labels instead of a
    fresh sampling run.

    The labellings are sampled by the compiled kernel
    (:meth:`CompiledGraph.sample_component_labels`) and stored as one
    *packed column* per vertex: a Python ``int`` whose unit ``w``
    (little-endian, :func:`_unit_width` bytes: 2 when ``|V| <= 65,535``,
    else 4) is the vertex's label in world ``w``.  Labels lie in
    ``[0, |V|)``, so no label equals the all-ones unit, which multi-source
    reachability uses as its sentinel.  A scan is a few whole-column integer
    operations and one ``bit_count``; :attr:`columns` and :attr:`labels`
    decode the units back on access.  The sampled worlds, the public API,
    and all fixed-seed results are bit-identical to the historical
    row-based implementation.

    Parameters
    ----------
    graph:
        The uncertain graph to sample worlds of.
    samples:
        Number of worlds to draw.
    rng:
        Seed or generator for the draws (one uniform draw per non-loop
        edge, in edge-id order, from one sequential stream — the
        historical ``repro.analysis`` contract).  Engine-managed pools use
        :meth:`from_seed` instead, whose chunked scheme ties every world to
        the pool seed alone.
    seed:
        Optional bookkeeping tag recording the integer seed this pool was
        built from (``None`` for pools built from a live generator).
    """

    __slots__ = (
        "_seed",
        "_compiled",
        "_vertices",
        "_index",
        "_num_worlds",
        "_width",
        "_packed",
        "_rest",
        "_high",
    )

    def __init__(
        self,
        graph: "UncertainGraph",
        *,
        samples: int,
        rng: RandomLike = None,
        seed: Optional[int] = None,
    ) -> None:
        check_positive_int(samples, "samples")
        generator = resolve_rng(rng)
        compiled = compile_graph(graph)
        self._adopt_rows(
            compiled, [compiled.sample_component_labels(samples, generator)], samples, seed
        )

    def _adopt_rows(
        self,
        compiled: CompiledGraph,
        batches: Iterable[Sequence[Tuple[int, ...]]],
        num_worlds: int,
        seed: Optional[int],
    ) -> None:
        """Pack batches of world rows (label tuples) into per-vertex columns."""
        num_vertices = compiled.num_vertices
        unit = _UNIT_FORMAT[_unit_width(num_vertices)]
        pack_row = struct.Struct(f"<{num_vertices}{unit}").pack
        # One struct.pack per world lays the rows out row-major; a strided
        # view then reads each vertex's column out of them.  Each batch's
        # tuples are dropped once packed.
        rows = memoryview(
            b"".join(b"".join(starmap(pack_row, batch)) for batch in batches)
        ).cast(unit)
        packed = [
            int.from_bytes(rows[position::num_vertices], "little")
            for position in range(num_vertices)
        ]
        self._adopt(compiled, packed, num_worlds, seed)

    def _adopt(
        self,
        compiled: CompiledGraph,
        packed: List[int],
        num_worlds: int,
        seed: Optional[int],
    ) -> None:
        width = _unit_width(compiled.num_vertices)
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * num_worlds, "little")
        self._seed = seed
        self._compiled = compiled
        self._vertices = compiled.vertices
        self._index = compiled.vertex_index
        self._num_worlds = num_worlds
        self._width = width
        self._packed = packed
        # Per-unit masks: every bit but the top one, and the top bit alone.
        self._rest = ones * ((1 << (8 * width - 1)) - 1)
        self._high = ones << (8 * width - 1)

    # ------------------------------------------------------------------
    # Alternative constructors (the chunked seeded scheme, stored labels)
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        graph: "UncertainGraph",
        *,
        samples: int,
        seed: int,
        chunk_size: int = WORLD_CHUNK_SIZE,
    ) -> "WorldPool":
        """Build the pool of ``samples`` worlds the seeded scheme defines.

        Worlds are drawn chunk-by-chunk (:func:`chunk_spans`,
        :func:`chunk_seed`): chunk ``j`` depends only on ``seed`` and
        ``j``, never on ``samples`` or on the chunks before it.
        """
        check_positive_int(samples, "samples")
        compiled = compile_graph(graph)
        batches = (
            compiled.sample_component_labels(count, random.Random(chunk_seed(seed, index)))
            for index, count in chunk_spans(samples, chunk_size)
        )
        pool = cls.__new__(cls)
        pool._adopt_rows(compiled, batches, samples, seed)
        return pool

    @classmethod
    def from_columns(
        cls,
        graph: "UncertainGraph",
        columns: Sequence[Sequence[int]],
        *,
        samples: int,
        seed: Optional[int] = None,
    ) -> "WorldPool":
        """Wrap precomputed *column-major* labellings in a pool.

        ``columns`` must hold one per-world label column per vertex of
        ``graph`` in iteration order (:attr:`columns` gives them back;
        :attr:`labels` gives the row-major view).  Every label must be a
        vertex index in ``[0, |V|)``; anything else raises
        :class:`ConfigurationError` naming the vertex.
        """
        check_positive_int(samples, "samples")
        compiled = compile_graph(graph)
        if len(columns) != compiled.num_vertices:
            raise ConfigurationError(
                f"got label columns for {len(columns)} vertices, expected "
                f"{compiled.num_vertices} (the pooled graph's vertex count)"
            )
        pack_column = struct.Struct(f"<{samples}i").pack
        data = bytearray()
        for vertex, column in zip(compiled.vertices, columns):
            if len(column) != samples:
                raise ConfigurationError(
                    f"vertex {vertex!r} has labels for {len(column)} "
                    f"worlds, expected {samples}"
                )
            try:
                data += pack_column(*column)
            except struct.error:
                raise ConfigurationError(
                    f"vertex {vertex!r} has a label that is not a 32-bit "
                    f"integer; labels are vertex indices in "
                    f"[0, {compiled.num_vertices})"
                ) from None
        return cls._from_label_bytes(compiled, memoryview(data), samples, seed)

    @classmethod
    def from_label_bytes(
        cls,
        graph: "UncertainGraph",
        data: bytes,
        *,
        samples: int,
        seed: Optional[int] = None,
    ) -> "WorldPool":
        """Build a pool from column-major little-endian int32 labels.

        ``data`` holds vertex 0's ``samples`` labels, then vertex 1's, and
        so on in graph iteration order (:meth:`label_bytes`): the layout
        the snapshot layer persists (:mod:`repro.service.snapshot`).  Units
        are packed from strided views of ``data`` without decoding a single
        label; the range rule of :meth:`from_columns` applies.
        """
        check_positive_int(samples, "samples")
        view = memoryview(data).cast("B")
        return cls._from_label_bytes(compile_graph(graph), view, samples, seed)

    @classmethod
    def _from_label_bytes(
        cls,
        compiled: CompiledGraph,
        data: memoryview,
        samples: int,
        seed: Optional[int],
    ) -> "WorldPool":
        num_vertices = compiled.num_vertices
        stride = 4 * samples
        if data.nbytes != stride * num_vertices:
            raise ConfigurationError(
                f"got {data.nbytes} bytes of int32 labels, expected "
                f"{stride * num_vertices} ({samples} worlds x {num_vertices} vertices)"
            )
        # The range check runs on whole columns of 32-bit lanes: a lane is
        # outside [0, |V|) iff its sign bit is set or adding 2**31 - |V|
        # sets it.  Only a lane whose sign bit is already set can carry
        # into its neighbour, and that column fails the check anyway.
        lanes = int.from_bytes(b"\x01\x00\x00\x00" * samples, "little")
        sign = lanes << 31
        bias = lanes * ((1 << 31) - num_vertices)
        halves = data.cast("H") if _unit_width(num_vertices) == 2 else None
        packed = []
        for position, vertex in enumerate(compiled.vertices):
            start = stride * position
            labels = int.from_bytes(data[start : start + stride], "little")
            if (labels | (labels + bias)) & sign:
                raise ConfigurationError(
                    f"vertex {vertex!r} has a label outside [0, {num_vertices}); "
                    "labels are vertex indices of the pooled graph"
                )
            if halves is not None:
                # 2-byte units are the low halves of the little-endian lanes.
                low_halves = halves[start // 2 : (start + stride) // 2 : 2]
                labels = int.from_bytes(low_halves, "little")
            packed.append(labels)
        pool = cls.__new__(cls)
        pool._adopt(compiled, packed, samples, seed)
        return pool

    @property
    def labels(self) -> List[Tuple[int, ...]]:
        """The per-world component labellings (one tuple per world).

        Rows are decoded from the packed columns on access.
        """
        if not self._packed:
            return [()] * self._num_worlds
        return list(zip(*self.columns))

    @property
    def columns(self) -> List[Tuple[int, ...]]:
        """The per-vertex label columns, decoded from the packed storage.

        One tuple of ``num_worlds`` labels per vertex, in vertex iteration
        order; the transpose of :attr:`labels`.
        """
        width = self._width
        unpack = struct.Struct(f"<{self._num_worlds}{_UNIT_FORMAT[width]}").unpack
        size = width * self._num_worlds
        return [unpack(column.to_bytes(size, "little")) for column in self._packed]

    def label_bytes(self) -> bytes:
        """The labels as column-major little-endian int32 bytes.

        The input layout of :meth:`from_label_bytes`, which the snapshot
        layer persists.
        """
        pack_column = struct.Struct(f"<{self._num_worlds}i").pack
        return b"".join(pack_column(*column) for column in self.columns)

    @property
    def compiled(self) -> CompiledGraph:
        """The compiled form of the pooled graph."""
        return self._compiled

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_worlds(self) -> int:
        """Number of sampled worlds in the pool."""
        return self._num_worlds

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the sampled graph."""
        return len(self._vertices)

    @property
    def seed(self) -> Optional[int]:
        """The integer seed this pool was built from, if one was recorded."""
        return self._seed

    def __repr__(self) -> str:
        return (
            f"WorldPool(worlds={self.num_worlds}, vertices={self.num_vertices}, "
            f"seed={self._seed!r})"
        )

    def _indices(self, vertices: Sequence[Vertex], role: str) -> List[int]:
        positions = []
        for vertex in vertices:
            try:
                positions.append(self._index[vertex])
            except KeyError:
                raise TerminalError(
                    f"{role} {vertex!r} is not a vertex of the pooled graph"
                ) from None
        return positions

    def _apart(self, diff: int) -> int:
        """The top bit of every non-zero unit of ``diff``, all else cleared.

        ``(diff & rest) + rest`` carries into a unit's top bit iff its low
        bits are non-zero, and never past it into the next unit; OR-ing
        ``diff`` back in adds the units whose top bit was already set.
        """
        rest = self._rest
        return (((diff & rest) + rest) | diff) & self._high

    def _split(self, positions: Sequence[int]) -> int:
        """Top-bit mask of the worlds in which ``positions`` are not all connected."""
        packed = self._packed
        base = packed[positions[0]]
        diff = 0
        for position in positions[1:]:
            diff |= base ^ packed[position]
        return self._apart(diff)

    # ------------------------------------------------------------------
    # Connectivity questions
    # ------------------------------------------------------------------
    def connectivity_frequency(self, terminals: Sequence[Vertex]) -> float:
        """Fraction of worlds in which all ``terminals`` are connected."""
        positions = self._indices(terminals, "terminal")
        if not positions:
            raise TerminalError("the terminal set must not be empty")
        if len(positions) == 1:
            return 1.0
        total = self._num_worlds
        return (total - self._split(positions).bit_count()) / total

    def threshold_scan(
        self, terminals: Sequence[Vertex], threshold: float
    ) -> ThresholdScan:
        """Decide ``connectivity_frequency(terminals) >= threshold`` lazily.

        The scan stops as soon as the decision is forced: once the running
        positive count already reaches ``threshold`` of the *total* pool the
        answer is ``True`` no matter what the remaining worlds hold, and
        once even an all-connected tail could not reach it the answer is
        ``False``.
        """
        threshold = check_probability(threshold, "threshold")
        positions = self._indices(terminals, "terminal")
        if not positions:
            raise TerminalError("the terminal set must not be empty")
        total = self._num_worlds
        if len(positions) == 1:
            return ThresholdScan(True, total, total, False)
        # One flag byte per world: the top byte of its unit in the split
        # mask, non-zero iff the terminals are apart in that world.
        width = self._width
        split = self._split(positions).to_bytes(total * width, "little")
        flags = split[width - 1 :: width]
        # Count the flags in blocks.  Both exit conditions are monotone in
        # the number of examined worlds (the positive count only grows; the
        # optimistic bound only shrinks), so a decision falls inside a block
        # iff it holds at the block's end — only then is the block replayed
        # world by world to recover the exact ``(positives, examined)`` the
        # serial scan would report.
        positives = 0
        examined = 0
        while examined < total:
            block = flags[examined : examined + _SCAN_BLOCK]
            end_positives = positives + block.count(0)
            end_examined = examined + len(block)
            if (
                end_positives / total >= threshold
                or (end_positives + (total - end_examined)) / total < threshold
            ):
                for apart in block:
                    examined += 1
                    if not apart:
                        positives += 1
                    if positives / total >= threshold:
                        return ThresholdScan(True, positives, examined, examined < total)
                    if (positives + (total - examined)) / total < threshold:
                        return ThresholdScan(False, positives, examined, examined < total)
            positives = end_positives
            examined = end_examined
        return ThresholdScan(positives / total >= threshold, positives, total, False)

    def reachability_frequencies(
        self, sources: Sequence[Vertex]
    ) -> Dict[Vertex, float]:
        """Per-vertex probability of being connected to *all* ``sources``.

        Worlds in which the sources themselves are not mutually connected
        contribute to no vertex, matching the reliability-search semantics
        of Khan et al. (EDBT 2014).  The returned dict lists every vertex
        of the graph, in graph iteration order.
        """
        positions = self._indices(sources, "source")
        if not positions:
            raise TerminalError("the source set must not be empty")
        packed = self._packed
        reference = packed[positions[0]]
        if len(positions) > 1:
            # Worlds whose sources are apart contribute to no vertex: set
            # their reference unit to the all-ones sentinel, which no label
            # equals (labels are vertex indices below the all-ones unit).
            bits = 8 * self._width
            reference |= (self._split(positions) >> (bits - 1)) * ((1 << bits) - 1)
        total = self._num_worlds
        apart = self._apart
        return {
            vertex: (total - apart(column ^ reference).bit_count()) / total
            for vertex, column in zip(self._vertices, packed)
        }

    def pair_connectivity(self, a: Vertex, b: Vertex) -> float:
        """Probability that vertices ``a`` and ``b`` are connected."""
        if a == b:
            self._indices((a,), "vertex")
            return 1.0
        ia, ib = self._indices((a, b), "vertex")
        total = self._num_worlds
        packed = self._packed
        return (total - self._apart(packed[ia] ^ packed[ib]).bit_count()) / total
