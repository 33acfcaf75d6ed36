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
  a source set (the reliability-search screening pass),
* :meth:`pair_connectivity` — pairwise connection probability (the
  clustering inner loop).

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
from itertools import islice
from operator import and_, eq
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
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

    Each world is stored as a component labelling: vertex ``i`` and vertex
    ``j`` are connected in world ``w`` iff their labels in ``w`` are equal.
    That makes every connectivity question a scan of precomputed labels
    instead of a fresh sampling run.

    Since the compiled kernel (:mod:`repro.graph.compiled`) the labellings
    are sampled by :meth:`CompiledGraph.sample_component_labels` and held
    *column-major*: one ``array('i')`` of per-world labels per vertex, so
    every scan is a C-speed comparison of label columns instead of a
    Python loop over world rows.  The sampled worlds, the public API, and
    all fixed-seed results are bit-identical to the historical row-based
    implementation.

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

    __slots__ = ("_seed", "_compiled", "_vertices", "_index", "_num_worlds", "_columns")

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
        self._adopt(compiled, compiled.sample_component_labels(samples, generator), seed)

    def _adopt(
        self,
        compiled: CompiledGraph,
        worlds: Sequence[Tuple[int, ...]],
        seed: Optional[int],
    ) -> None:
        # Column-major storage: one tuple of per-world labels per vertex.
        # Tuples beat array('i') here: their slots share the already-boxed
        # label ints, so the C-speed scan maps never re-box on access.
        self._adopt_columns(compiled, list(zip(*worlds)), len(worlds), seed)

    def _adopt_columns(
        self,
        compiled: CompiledGraph,
        columns: List[Tuple[int, ...]],
        num_worlds: int,
        seed: Optional[int],
    ) -> None:
        self._seed = seed
        self._compiled = compiled
        self._vertices = compiled.vertices
        self._index = compiled.vertex_index
        self._num_worlds = num_worlds
        self._columns: List[Tuple[int, ...]] = columns

    # ------------------------------------------------------------------
    # Alternative constructors (the chunked seeded scheme)
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
        worlds: List[Tuple[int, ...]] = []
        for index, count in chunk_spans(samples, chunk_size):
            worlds.extend(
                compiled.sample_component_labels(count, random.Random(chunk_seed(seed, index)))
            )
        return cls._from_state(compiled, worlds, seed)

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
        ``graph`` in iteration order — the pool's native storage layout
        (:attr:`labels` gives the row-major view back).  The columns are
        adopted as-is, which matters on the snapshot warm-start path
        (:mod:`repro.service.snapshot`) where they arrive straight from
        disk and the whole point is loading faster than resampling.
        """
        check_positive_int(samples, "samples")
        compiled = compile_graph(graph)
        adopted = [tuple(column) for column in columns]
        if len(adopted) != compiled.num_vertices:
            raise ConfigurationError(
                f"got label columns for {len(adopted)} vertices, expected "
                f"{compiled.num_vertices} (the pooled graph's vertex count)"
            )
        for position, column in enumerate(adopted):
            if len(column) != samples:
                raise ConfigurationError(
                    f"vertex {position} has labels for {len(column)} "
                    f"worlds, expected {samples}"
                )
        pool = cls.__new__(cls)
        pool._adopt_columns(compiled, adopted, samples, seed)
        return pool

    @classmethod
    def _from_state(
        cls,
        compiled: CompiledGraph,
        worlds: List[Tuple[int, ...]],
        seed: Optional[int],
    ) -> "WorldPool":
        pool = cls.__new__(cls)
        pool._adopt(compiled, worlds, seed)
        return pool

    @property
    def labels(self) -> List[Tuple[int, ...]]:
        """The per-world component labellings (one tuple per world).

        Rows are reassembled from the column-major storage on access.
        """
        if not self._columns:
            return [()] * self._num_worlds
        return list(zip(*self._columns))

    @property
    def columns(self) -> List[Tuple[int, ...]]:
        """The per-vertex label columns — the pool's native storage.

        One tuple of ``num_worlds`` labels per vertex, in vertex iteration
        order; the transpose of :attr:`labels`.  The snapshot layer
        persists this layout verbatim so a warm start can re-adopt it
        (:meth:`from_columns`) without paying the transpose.
        """
        return list(self._columns)

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

    def _connected_per_world(self, positions: Sequence[int]) -> Iterator[bool]:
        """Lazily yield, per world, whether all ``positions`` share a label.

        The chain of ``map(eq, ...)`` / ``map(and_, ...)`` stages runs at
        C speed over the label columns; one world's booleans are produced
        per step, so early-exiting consumers pay only for the prefix they
        examine.
        """
        columns = self._columns
        base = columns[positions[0]]
        connected = map(eq, base, columns[positions[1]])
        for position in positions[2:]:
            connected = map(and_, connected, map(eq, base, columns[position]))
        return connected

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
        return sum(self._connected_per_world(positions)) / self._num_worlds

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
        # Consume the C-speed connectivity stream in blocks.  Both exit
        # conditions are monotone in the number of examined worlds (the
        # positive count only grows; the optimistic bound only shrinks), so
        # a decision falls inside a block iff it holds at the block's end —
        # only then is the block replayed world by world to recover the
        # exact ``(positives, examined)`` the serial scan would report.
        connected_stream = self._connected_per_world(positions)
        positives = 0
        examined = 0
        while examined < total:
            block = list(islice(connected_stream, 256))
            end_positives = positives + sum(block)
            end_examined = examined + len(block)
            if (
                end_positives / total >= threshold
                or (end_positives + (total - end_examined)) / total < threshold
            ):
                for connected in block:
                    examined += 1
                    if connected:
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
        columns = self._columns
        base = columns[positions[0]]
        if len(positions) > 1:
            # Worlds whose sources are not mutually connected contribute to
            # no vertex: mask their reference label with a sentinel no
            # vertex label can equal (labels are vertex indices, so >= 0).
            reference = tuple(
                root if connected else -1
                for root, connected in zip(base, self._connected_per_world(positions))
            )
        else:
            reference = base
        total = self._num_worlds
        return {
            vertex: sum(map(eq, columns[position], reference)) / total
            for position, vertex in enumerate(self._vertices)
        }

    def pair_connectivity(self, a: Vertex, b: Vertex) -> float:
        """Probability that vertices ``a`` and ``b`` are connected."""
        if a == b:
            self._indices((a,), "vertex")
            return 1.0
        ia, ib = self._indices((a, b), "vertex")
        connected = sum(map(eq, self._columns[ia], self._columns[ib]))
        return connected / self._num_worlds
