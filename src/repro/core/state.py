"""Node states of the (S²)BDD and the per-layer transition maps.

A node of the diagram at layer ``l`` represents an *intermediate graph*:
edges ``e_1 .. e_l`` have been fixed to existent / non-existent and the rest
are still uncertain.  Following Definition 2 of the paper, all the
information the construction needs about an intermediate graph can be kept
on the frontier:

* which frontier vertices are connected to each other by existent edges
  (the partition ``{c_{n,f}}``),
* how many terminals each of those components has absorbed so far
  (``{t_{n,f}}``; this includes terminals that already left the frontier),
* how many uncertain edges are incident to each component (``{d_{n,f}}``;
  derived from the frontier plan, not stored per node).

Two nodes whose partitions agree and whose components carry terminals in
the same places can be merged (Lemma 4.3): whether the remaining edges lead
to the 1-sink or the 0-sink depends only on that pattern, because a
component is "finished" exactly when it holds all ``k`` terminals, and the
per-layer number of still-unseen terminals is the same for every node of
the layer.  Merged nodes may carry different counts; that only steers the
deletion heuristic, never correctness.

A node state is therefore a pair of int sequences: ``partition[i]`` is
the component label of the ``i``-th vertex of the layer's frontier, with
labels canonicalised to first-appearance order (0, 1, 2, ...), and
``terminal_counts[c]`` is the number of terminals component ``c`` has
absorbed.

:class:`TransitionTable` holds, per layer, integer positions for the edge
endpoints, the entering vertices and the surviving frontier, so that the
per-node work in the innermost construction loop is pure list
manipulation.  A layer's context is built the first time a construction
reaches the layer and memoised; layers past an early stop are never built.
The transition itself — apply one edge state, detect 1-sink / 0-sink
outcomes early (a strict superset of Lemmas 4.1 and 4.2), retire vertices
that leave the frontier, and canonicalise the child state — is inlined over
:meth:`TransitionTable.layer` by :meth:`repro.core.s2bdd.S2BDD.construct`,
the one construction loop the S²BDD and the exact BDD baseline share.  The
step-by-step form of that transition is a test reference
(``tests/reference/exact_bdd_loop.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from repro.core.frontier import FrontierPlan

__all__ = ["TransitionTable"]

Vertex = Hashable


@dataclass(frozen=True)
class _LayerContext:
    """Precomputed integer indices for one layer's transition."""

    # Positions of the processed edge's endpoints inside the work array
    # (frontier-before vertices followed by entering vertices).
    u_position: int
    v_position: int
    is_loop: bool
    # 1/0 flags: is the i-th entering vertex a terminal?
    entering_terminal: Tuple[int, ...]
    # For each vertex of the next frontier, its index in the work array.
    after_positions: Tuple[int, ...]
    # Number of uncertain edges per *current*-frontier position (for h(n)).
    frontier_degrees: Tuple[int, ...]
    # Work-array positions whose component must pass the 0-sink check
    # (the endpoints that retire after this layer, u before v).
    leaving_positions: Tuple[int, ...]
    # True when the layer neither admits nor retires vertices and keeps the
    # frontier order: the no-merge transition is then the identity map, so
    # the S²BDD construction reuses the parent state object wholesale.
    identity: bool


class TransitionTable:
    """Per-layer transition index maps for a fixed plan and terminal set.

    Parameters
    ----------
    plan:
        The frontier plan (edge order plus per-layer bookkeeping).
    terminals:
        The terminal vertices.
    """

    def __init__(self, plan: FrontierPlan, terminals: Sequence[Vertex]) -> None:
        self._plan = plan
        self._terminals: Tuple[Vertex, ...] = tuple(dict.fromkeys(terminals))
        self._terminal_set: Set[Vertex] = set(self._terminals)
        self.k = len(self._terminals)
        # layer index -> context, filled on first use.
        self._layers: Dict[int, _LayerContext] = {}

    # ------------------------------------------------------------------
    # Construction of the per-layer contexts
    # ------------------------------------------------------------------
    def _build_layer(self, layer_index: int) -> _LayerContext:
        plan = self._plan
        edge = plan.edges[layer_index]
        frontier_before = plan.frontier(layer_index)
        frontier_after = plan.frontier(layer_index + 1)
        entering = plan.entering[layer_index]
        leaving = set(plan.leaving[layer_index])

        work_vertices: List[Vertex] = list(frontier_before) + list(entering)
        position_of: Dict[Vertex, int] = {
            vertex: position for position, vertex in enumerate(work_vertices)
        }
        entering_terminal = tuple(
            1 if vertex in self._terminal_set else 0 for vertex in entering
        )
        after_positions = tuple(position_of[vertex] for vertex in frontier_after)

        # Remaining uncertain edges per current-frontier vertex (used only
        # by the deletion heuristic, which scores nodes of this layer).
        degrees_before = plan.uncertain_degree(layer_index)
        frontier_degrees = tuple(
            degrees_before.get(vertex, 1) for vertex in frontier_before
        )

        leaving_positions = tuple(
            position_of[vertex] for vertex in (edge.u, edge.v) if vertex in leaving
        )
        identity = (
            not entering
            and not leaving
            and after_positions == tuple(range(len(after_positions)))
        )

        return _LayerContext(
            u_position=position_of[edge.u],
            v_position=position_of[edge.v],
            is_loop=edge.u == edge.v,
            entering_terminal=entering_terminal,
            after_positions=after_positions,
            frontier_degrees=frontier_degrees,
            leaving_positions=leaving_positions,
            identity=identity,
        )

    def layer(self, layer_index: int) -> _LayerContext:
        """The index maps for one layer, built on first use and memoised.

        :meth:`repro.core.s2bdd.S2BDD.construct` drives its inlined
        transition straight off these maps.
        """
        context = self._layers.get(layer_index)
        if context is None:
            context = self._layers[layer_index] = self._build_layer(layer_index)
        return context

    # ------------------------------------------------------------------
    # Deletion heuristic (Equation 10)
    # ------------------------------------------------------------------
    def priority(
        self,
        layer_index: int,
        partition: Tuple[int, ...],
        counts: Tuple[int, ...],
        probability: float,
    ) -> float:
        """Heuristic priority ``h(n)`` of Equation (10) for a layer node.

        ``h(n) = p_n · max_f ( t_{n,f} / k , 1 / d_{n,f} )`` over frontier
        vertices ``f`` whose component holds at least one terminal.  Larger
        is better: such nodes are the most likely to reach a sink soon and
        thus to tighten the bounds.  Nodes with no terminal-bearing
        component get a low (but non-zero) fallback priority so they are
        deleted first.
        """
        k = self.k if self.k > 0 else 1
        if not partition:
            return probability / (2.0 * k)
        context = self._layers.get(layer_index)
        if context is None:
            context = self.layer(layer_index)
        degrees = context.frontier_degrees
        component_degree = [0] * len(counts)
        for position, label in enumerate(partition):
            component_degree[label] += degrees[position]
        best = 0.0
        for label, count in enumerate(counts):
            if count <= 0:
                continue
            degree = component_degree[label]
            candidate = count / k
            inverse_degree = 1.0 / degree if degree > 0 else 1.0
            if inverse_degree > candidate:
                candidate = inverse_degree
            if candidate > best:
                best = candidate
        if best <= 0.0:
            return probability / (2.0 * k)
        return probability * best
