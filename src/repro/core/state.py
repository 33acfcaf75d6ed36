"""Node states of the (S²)BDD and the exact layer transition.

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

:class:`TransitionTable` precomputes, per layer, integer positions for the
edge endpoints, the entering vertices and the surviving frontier, so that
the per-node work in the innermost construction loop is pure list
manipulation.  :meth:`TransitionTable.apply` (the exact BDD baseline's
transition) applies one edge state, detects 1-sink / 0-sink outcomes early
(a strict superset of Lemmas 4.1 and 4.2), retires vertices that leave the
frontier, and returns the canonical child state; the S²BDD inlines the
same transition over :meth:`TransitionTable.layer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.frontier import FrontierPlan

__all__ = [
    "CONNECTED",
    "DISCONNECTED",
    "LIVE",
    "TransitionTable",
]

Vertex = Hashable

#: Sink codes returned by :meth:`TransitionTable.apply`.
LIVE = 0
CONNECTED = 1
DISCONNECTED = 2


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
    # Do the endpoints retire from the frontier after this layer?
    u_leaves: bool
    v_leaves: bool
    # Number of uncertain edges per *current*-frontier position (for h(n)).
    frontier_degrees: Tuple[int, ...]
    # Work-array positions whose component must pass the 0-sink check
    # (retiring endpoints, in the (u, v) probe order of ``apply``).
    leaving_positions: Tuple[int, ...]
    # True when the layer neither admits nor retires vertices and keeps the
    # frontier order: the no-merge transition is then the identity map, so
    # the S²BDD construction reuses the parent state object wholesale.
    identity: bool


class TransitionTable:
    """Exact per-layer transition for a fixed plan and terminal set.

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
        self._layers: List[_LayerContext] = [
            self._build_layer(index) for index in range(plan.num_edges)
        ]

    # ------------------------------------------------------------------
    # Construction of the per-layer contexts
    # ------------------------------------------------------------------
    def _build_layer(self, layer_index: int) -> _LayerContext:
        plan = self._plan
        edge = plan.edges[layer_index]
        frontier_before = plan.frontiers[layer_index]
        frontier_after = plan.frontiers[layer_index + 1]
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
        degrees_before = plan.uncertain_degree[layer_index]
        frontier_degrees = tuple(
            degrees_before.get(vertex, 1) for vertex in frontier_before
        )

        u_leaves = edge.u in leaving
        v_leaves = edge.v in leaving
        leaving_positions = tuple(
            position
            for position, leaves in (
                (position_of[edge.u], u_leaves),
                (position_of[edge.v], v_leaves),
            )
            if leaves
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
            u_leaves=u_leaves,
            v_leaves=v_leaves,
            frontier_degrees=frontier_degrees,
            leaving_positions=leaving_positions,
            identity=identity,
        )

    def layer(self, layer_index: int) -> _LayerContext:
        """The precomputed index maps for one layer.

        The S²BDD construction drives its inlined transition straight off
        these maps instead of calling :meth:`apply` per node.
        """
        return self._layers[layer_index]

    # ------------------------------------------------------------------
    # Transition
    # ------------------------------------------------------------------
    def apply(
        self,
        layer_index: int,
        partition: Tuple[int, ...],
        counts: Tuple[int, ...],
        edge_exists: bool,
    ) -> Tuple[
        int,
        Optional[Tuple[int, ...]],
        Optional[Tuple[int, ...]],
        Optional[Tuple[int, ...]],
    ]:
        """Apply one edge state.

        Returns ``(sink_code, child_partition, child_counts, child_flags)``
        where ``child_flags`` is the per-component "holds a terminal"
        pattern used as part of the Lemma-4.3 merge key.  The child fields
        are ``None`` unless ``sink_code == LIVE``.

        This is the innermost loop of the exact BDD construction, so it
        works on plain lists indexed by precomputed integer positions.
        """
        context = self._layers[layer_index]
        k = self.k

        labels = list(partition)
        component_counts = list(counts)
        for flag in context.entering_terminal:
            labels.append(len(component_counts))
            component_counts.append(flag)

        if edge_exists and not context.is_loop:
            label_u = labels[context.u_position]
            label_v = labels[context.v_position]
            if label_u != label_v:
                for position, label in enumerate(labels):
                    if label == label_v:
                        labels[position] = label_u
                component_counts[label_u] += component_counts[label_v]
                component_counts[label_v] = 0
                # 1-sink: the merged component holds every terminal.  No
                # other component count changed, so this is the only check
                # needed (entering singletons carry at most one terminal and
                # k >= 2 in every caller).
                if component_counts[label_u] >= k:
                    return CONNECTED, None, None, None

        after_positions = context.after_positions

        # 0-sink: only a component containing a retiring endpoint of the
        # processed edge can lose its last frontier vertex at this layer.
        if context.u_leaves or context.v_leaves:
            for position, leaves in (
                (context.u_position, context.u_leaves),
                (context.v_position, context.v_leaves),
            ):
                if not leaves:
                    continue
                label = labels[position]
                if component_counts[label] <= 0:
                    continue
                alive = False
                for after_position in after_positions:
                    if labels[after_position] == label:
                        alive = True
                        break
                if not alive:
                    return DISCONNECTED, None, None, None

        # Canonicalise over the next frontier.
        relabel = [-1] * len(component_counts)
        child_partition: List[int] = []
        child_counts: List[int] = []
        child_flags: List[int] = []
        next_label = 0
        for position in after_positions:
            label = labels[position]
            canonical = relabel[label]
            if canonical < 0:
                canonical = next_label
                relabel[label] = canonical
                next_label += 1
                count = component_counts[label]
                child_counts.append(count)
                child_flags.append(1 if count else 0)
            child_partition.append(canonical)

        return LIVE, tuple(child_partition), tuple(child_counts), tuple(child_flags)

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
        degrees = self._layers[layer_index].frontier_degrees
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
