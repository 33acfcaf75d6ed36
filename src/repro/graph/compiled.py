"""The compiled graph kernel: int-indexed CSR, flat union-find, bitset worlds.

Every query the engine serves — sampling-backend estimates,
:class:`~repro.engine.worlds.WorldPool` screening for search/top-k/
clustering, and the S²BDD's stratum completions — bottoms out in the same
inner loop: draw a possible world, then run connectivity over it.  Doing
that over dict-of-hashable adjacency with a dict-backed
:class:`~repro.utils.union_find.UnionFind` pays hashing and boxing costs on
every edge of every world.  This module compiles a prepared graph **once**
into flat integer form and lets the hot loops run over it many times:

* :class:`CompiledGraph` — vertices interned to ``0..n-1``, edges to
  positions ``0..m-1`` (edge iteration order), endpoints/probabilities in
  ``array('i')``/``array('d')``, and a CSR-style adjacency over the
  non-loop edges.  ``vertex_index``/``edge_index`` map back to the
  caller's hashable labels, so the high-level APIs keep their surface.
* **Flat union-find** — a sampled world's components live in a plain
  ``parent`` list over ``0..n-1``, copied from a template per world and
  merged with inline path-halving finds, so no state outlives a world.
  The S²BDD's stratum completions use the same scheme.
* **Bitset worlds** — a sampled world is a Python ``int`` bitmask over
  edge positions; connectivity is a single CSR walk gated on the mask.
* **Batched world sampling** — :meth:`CompiledGraph.sample_component_labels`
  draws the *same* uniforms in the *same* order as the historical
  samplers (one per non-loop edge, in edge order) and produces the exact
  per-world component labellings the dict-based path produced, so every
  downstream result stays bit-identical (the kernel gate of
  ``benchmarks/gates.py`` enforces this with parity checksums).

Compiled forms are cached per graph (:func:`compile_graph`), keyed by a
fingerprint over topology *and* edge probabilities, so "compile once,
evaluate many" holds across every consumer without threading the object
through the APIs.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from array import array
from itertools import compress
from operator import gt
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Sequence,
    Tuple,
)

from repro.obs.trace import span

if TYPE_CHECKING:
    from random import Random

    from repro.graph.uncertain_graph import UncertainGraph

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "compiled_fingerprint",
    "invalidate_compiled",
    "is_compiled_cached",
    "refresh_compiled_probabilities",
]

Vertex = Hashable


class CompiledGraph:
    """A graph compiled once into flat integer form for the hot loops.

    Construction interns the graph's hashable vertices to ``0..n-1`` and
    its edges to positions ``0..m-1`` (edge iteration order, i.e. the
    order every reproducibility contract draws uniforms in) and builds a
    CSR adjacency over the non-loop edges.  The compiled form is
    topology-immutable: a graph whose structure changed must be recompiled
    (:func:`compile_graph` handles that via fingerprint-stamped caching),
    while a probability-only mutation can refresh the probability column
    in place (:func:`refresh_compiled_probabilities`) and keep the interned
    CSR layout.

    Attributes
    ----------
    vertices:
        Tuple mapping vertex index back to the caller's label.
    vertex_index:
        Dict mapping vertex label to its index.
    edge_ids:
        Tuple mapping edge position to the original edge id.
    edge_index:
        Dict mapping edge id to its position.
    edge_u, edge_v:
        ``array('i')`` of interned endpoint indices per edge position.
    edge_probability:
        ``array('d')`` of existence probabilities per edge position.
    csr_indptr, csr_vertices, csr_edges:
        CSR adjacency over the non-loop edges: the neighbours of vertex
        ``x`` are ``csr_vertices[csr_indptr[x]:csr_indptr[x + 1]]`` with
        the connecting edge positions in ``csr_edges`` at the same slots.
    """

    __slots__ = (
        "vertices",
        "vertex_index",
        "edge_ids",
        "edge_index",
        "edge_u",
        "edge_v",
        "edge_probability",
        "csr_indptr",
        "csr_vertices",
        "csr_edges",
        "_probs",
        "_bits",
        "_nonloop_draws",
        "_nonloop_positions",
        "_neighbors",
        "_identity",
    )

    def __init__(self, graph: "UncertainGraph") -> None:
        self.vertices: Tuple[Vertex, ...] = tuple(graph.vertices())
        self.vertex_index: Dict[Vertex, int] = {
            vertex: position for position, vertex in enumerate(self.vertices)
        }
        n = len(self.vertices)
        index = self.vertex_index

        edge_ids: List[int] = []
        edge_u: List[int] = []
        edge_v: List[int] = []
        probabilities: List[float] = []
        nonloop_draws: List[Tuple[int, int, float]] = []
        nonloop_positions: List[int] = []
        degree = [0] * n
        for position, edge in enumerate(graph.edges()):
            u = index[edge.u]
            v = index[edge.v]
            edge_ids.append(edge.id)
            edge_u.append(u)
            edge_v.append(v)
            probabilities.append(edge.probability)
            if u != v:
                nonloop_draws.append((u, v, edge.probability))
                nonloop_positions.append(position)
                degree[u] += 1
                degree[v] += 1

        self.edge_ids: Tuple[int, ...] = tuple(edge_ids)
        self.edge_index: Dict[int, int] = {
            edge_id: position for position, edge_id in enumerate(edge_ids)
        }
        self.edge_u = array("i", edge_u)
        self.edge_v = array("i", edge_v)
        self.edge_probability = array("d", probabilities)
        #: Plain-list mirror of the probabilities: list iteration is what
        #: the sampling inner loops feed to ``map``/``zip``.
        self._probs: List[float] = probabilities
        self._bits: List[int] = [1 << position for position in range(len(edge_ids))]
        self._nonloop_draws = nonloop_draws
        self._nonloop_positions = nonloop_positions
        self._identity: List[int] = list(range(n))

        # CSR over the non-loop edges (each appears under both endpoints),
        # filled in edge order so the layout is deterministic.
        indptr = array("i", [0]) * (n + 1)
        for d_index, d in enumerate(degree):
            indptr[d_index + 1] = indptr[d_index] + d
        total = indptr[n]
        zero = array("i", [0])
        csr_vertices = zero * total
        csr_edges = zero * total
        cursor = list(indptr[:n])
        for position, (u, v, _) in zip(nonloop_positions, nonloop_draws):
            slot = cursor[u]
            csr_vertices[slot] = v
            csr_edges[slot] = position
            cursor[u] = slot + 1
            slot = cursor[v]
            csr_vertices[slot] = u
            csr_edges[slot] = position
            cursor[v] = slot + 1
        self.csr_indptr = indptr
        self.csr_vertices = csr_vertices
        self.csr_edges = csr_edges
        #: Hot-loop form of the CSR: per-vertex tuples of (edge position,
        #: neighbour index) pairs, so the walk avoids index arithmetic.
        self._neighbors: List[Tuple[Tuple[int, int], ...]] = [
            tuple(
                zip(
                    csr_edges[indptr[x] : indptr[x + 1]],
                    csr_vertices[indptr[x] : indptr[x + 1]],
                )
            )
            for x in range(n)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of interned vertices ``n``."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of edge positions ``m`` (loops included)."""
        return len(self.edge_ids)

    @property
    def num_nonloop_edges(self) -> int:
        """Number of non-loop edges (the ones the CSR covers)."""
        return len(self._nonloop_draws)

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"nonloop={self.num_nonloop_edges})"
        )

    def vertex_indices(self, labels: Sequence[Vertex]) -> List[int]:
        """Intern a sequence of vertex labels (raises ``KeyError`` on misses)."""
        index = self.vertex_index
        return [index[label] for label in labels]

    def _refresh_probabilities(self, probabilities: Sequence[float]) -> None:
        """Swap in new per-position probabilities, keeping the topology.

        The incremental half of the dynamic-graph update path: every
        structure interned at construction (vertex/edge interning, CSR,
        neighbour tuples, bit masks) depends only on topology and stays,
        while the three probability views — the ``array('d')`` column, its
        plain-list mirror, and the non-loop draw triples — are rebuilt
        from ``probabilities`` (one float per edge position, in the same
        edge-iteration order the constructor saw).
        """
        if len(probabilities) != len(self.edge_ids):
            raise ValueError(
                f"expected {len(self.edge_ids)} probabilities, "
                f"got {len(probabilities)}"
            )
        self._probs[:] = probabilities
        self.edge_probability = array("d", self._probs)
        self._nonloop_draws = [
            (u, v, self._probs[position])
            for position, (u, v, _) in zip(self._nonloop_positions, self._nonloop_draws)
        ]

    # ------------------------------------------------------------------
    # Bitset worlds
    # ------------------------------------------------------------------
    def sample_exist_flags(self, rng: "Random") -> List[bool]:
        """Draw one world as per-edge existence flags.

        Consumes exactly one uniform per edge (loops included) in edge
        order from ``rng`` — the stream contract of
        :func:`~repro.graph.possible_world.sample_possible_world` and the
        sampling baseline.
        """
        rnd = rng.random
        draws = [rnd() for _ in self._probs]
        return list(map(gt, self._probs, draws))

    def sample_edge_mask(self, rng: "Random") -> int:
        """Draw one world as an ``int`` bitmask over edge positions.

        Bit ``j`` is set iff the edge at position ``j`` exists.  Consumes
        the same uniform stream as :meth:`sample_exist_flags`.
        """
        return self.mask_from_flags(self.sample_exist_flags(rng))

    def mask_from_flags(self, flags: Sequence[object]) -> int:
        """Pack per-position truthy flags into an edge bitmask."""
        return sum(compress(self._bits, flags))

    def flags_from_mask(self, mask: int) -> bytearray:
        """Unpack an edge bitmask into a per-position flag array."""
        flags = bytearray(self.num_edges)
        mask &= (1 << self.num_edges) - 1
        while mask:
            low = mask & -mask
            flags[low.bit_length() - 1] = 1
            mask ^= low
        return flags

    def mask_from_edge_ids(self, edge_ids: Iterable[int]) -> int:
        """Bitmask of the world whose existing *edge ids* are given."""
        index = self.edge_index
        mask = 0
        for edge_id in edge_ids:
            mask |= 1 << index[edge_id]
        return mask

    def edge_ids_in_mask(self, mask: int) -> List[int]:
        """The original edge ids set in ``mask``, in position order."""
        ids = self.edge_ids
        mask &= (1 << len(ids)) - 1
        existing: List[int] = []
        while mask:
            low = mask & -mask
            existing.append(ids[low.bit_length() - 1])
            mask ^= low
        return existing

    # ------------------------------------------------------------------
    # Connectivity over one world
    # ------------------------------------------------------------------
    def connected_with_flags(
        self, flags: Sequence[object], targets: Sequence[int]
    ) -> bool:
        """Are all ``targets`` (vertex indices) connected under ``flags``?

        A CSR walk from the first target gated on the per-edge flags, with
        early exit as soon as every other target has been reached.
        """
        if len(targets) <= 1:
            return True
        neighbors = self._neighbors
        n = len(neighbors)
        seen = bytearray(n)
        wanted = bytearray(n)
        first = targets[0]
        remaining = 0
        for target in targets[1:]:
            if target != first and not wanted[target]:
                wanted[target] = 1
                remaining += 1
        if not remaining:
            return True
        seen[first] = 1
        stack = [first]
        pop = stack.pop
        push = stack.append
        while stack:
            x = pop()
            for j, y in neighbors[x]:
                if flags[j] and not seen[y]:
                    seen[y] = 1
                    if wanted[y]:
                        remaining -= 1
                        if not remaining:
                            return True
                    push(y)
        return False

    def connected_in_mask(self, mask: int, targets: Sequence[int]) -> bool:
        """Are all ``targets`` connected in the world bitmask ``mask``?"""
        if len(targets) <= 1:
            return True
        return self.connected_with_flags(self.flags_from_mask(mask), targets)

    def component_labels_in_mask(self, mask: int) -> Tuple[int, ...]:
        """Per-vertex component labels of the world bitmask ``mask``.

        Labels follow the same union scheme as
        :meth:`sample_component_labels`, so a sampled world's mask maps to
        exactly the labelling the batched sampler would store for it.
        """
        flags = self.flags_from_mask(mask)
        parent = self._identity[:]
        for position, (u, v, _) in zip(self._nonloop_positions, self._nonloop_draws):
            if flags[position]:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[u] = v
        return _root_labels(parent, range(len(parent)))

    # ------------------------------------------------------------------
    # Batched world sampling (the WorldPool kernel)
    # ------------------------------------------------------------------
    def sample_component_labels(
        self, count: int, generator: "Random"
    ) -> List[Tuple[int, ...]]:
        """Draw ``count`` worlds as per-vertex component labellings.

        Stream contract: one uniform per **non-loop** edge, in edge order,
        per world — the contract every :class:`~repro.engine.worlds.WorldPool`
        reproducibility promise is written against.  The union scheme and
        the returned root labels are bit-identical to the pre-kernel
        sampler's (and partition-identical to the original dict-based
        path), so pools built before and after the kernel compare equal
        label-for-label.
        """
        rnd = generator.random
        draws = self._nonloop_draws
        identity = self._identity
        n = len(identity)
        vertex_range = range(n)
        worlds: List[Tuple[int, ...]] = []
        for _ in range(count):
            parent = identity[:]
            for u, v, probability in draws:
                if rnd() < probability:
                    # Union with path halving; the labelling only needs the
                    # partition, not any particular representative.
                    while parent[u] != u:
                        parent[u] = parent[parent[u]]
                        u = parent[u]
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    if u != v:
                        parent[u] = v
            worlds.append(_root_labels(parent, vertex_range))
        return worlds


def _root_labels(parent: List[int], vertex_range: range) -> Tuple[int, ...]:
    """Resolve every entry of a parent forest to its root, with path halving.

    This is the exact extraction loop of the pre-kernel sampler, kept
    bit-for-bit so labellings (not just partitions) stay identical to the
    historical pools.  Path halving during the walk keeps later walks over
    shared chains short.
    """
    labels = []
    append = labels.append
    for root in vertex_range:
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        append(root)
    return tuple(labels)


# ----------------------------------------------------------------------
# The compile cache
# ----------------------------------------------------------------------
#: graph -> (fingerprint, CompiledGraph).  Weak keys: forgetting a graph
#: drops its compiled form with it.
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled_fingerprint(graph: "UncertainGraph") -> Tuple:
    """Stamp invalidating a compiled graph on topology *or* probability change.

    The topology fingerprint alone is not enough: the compiled form bakes
    in the edge probabilities (they drive every sampling loop), so the
    stamp covers both — the same invalidation rule the engine's world-pool
    cache uses.

    The probability component is a SHA-256 over the IEEE-754 bytes of the
    probabilities in edge-id order, not ``hash(tuple(...))``: a stable
    digest keeps the stamp process-independent (reprolint RNG002 — the
    ``spawn_rng`` bug class), while staying O(1) to store per cache entry.
    """
    payload = struct.pack(
        f"<{graph.num_edges}d", *(edge.probability for edge in graph.edges())
    )
    return graph.topology_fingerprint() + (hashlib.sha256(payload).hexdigest(),)


def compile_graph(graph: "UncertainGraph") -> CompiledGraph:
    """Return the (cached) compiled form of ``graph``, compiling if needed.

    Entries are stamped with :func:`compiled_fingerprint`, so a graph
    mutated after compilation is transparently recompiled on next use.
    """
    fingerprint = compiled_fingerprint(graph)
    entry = _CACHE.get(graph)
    if entry is not None and entry[0] == fingerprint:
        return entry[1]
    with span("kernel.compile"):
        compiled = CompiledGraph(graph)
    _CACHE[graph] = (fingerprint, compiled)
    return compiled


def is_compiled_cached(graph: "UncertainGraph") -> bool:
    """Whether ``graph`` has a current compiled form in the cache."""
    entry = _CACHE.get(graph)
    return entry is not None and entry[0] == compiled_fingerprint(graph)


def refresh_compiled_probabilities(graph: "UncertainGraph") -> CompiledGraph:
    """Re-sync ``graph``'s compiled form after a probability-only mutation.

    If the cache holds a compiled form whose *topology* component matches
    (the probability digest is the fingerprint's last element, the
    topology prefix everything before it), only the probability column is
    refreshed in place — the interned CSR survives, which is what makes a
    probability delta cheap.  Otherwise this falls back to a full compile.
    The refreshed form is bit-identical to a fresh compile: probabilities
    land in the same edge-iteration order the constructor would see.
    """
    fingerprint = compiled_fingerprint(graph)
    entry = _CACHE.get(graph)
    if entry is None or entry[0][:-1] != fingerprint[:-1]:
        compiled = CompiledGraph(graph)
    else:
        compiled = entry[1]
        compiled._refresh_probabilities(
            [edge.probability for edge in graph.edges()]
        )
    _CACHE[graph] = (fingerprint, compiled)
    return compiled


def invalidate_compiled(graph: "UncertainGraph") -> None:
    """Drop ``graph``'s compiled form, if any.

    The topology-delta escape hatch: edge-id recycling (remove an edge,
    re-add one under the same id) can leave both the topology fingerprint
    and the compiled fingerprint unchanged while the structure differs, so
    the update path invalidates explicitly instead of trusting the stamp.
    """
    _CACHE.pop(graph, None)
