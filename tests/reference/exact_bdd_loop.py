"""Reference exact BDD: the step-by-step transition and its layer loop.

:class:`repro.baselines.exact_bdd.ExactBDD` runs on
:meth:`repro.core.s2bdd.S2BDD.construct`, which inlines the transition over
:meth:`~repro.core.state.TransitionTable.layer`'s index maps.  This module
keeps the two pieces that loop replaced:

* :func:`apply` — the exact transition of one node state under one edge
  state, with its sink codes.  ``tests/test_state.py`` checks its
  mechanics, and the dict-keyed S²BDD reference
  (``tests/reference/s2bdd_dict.py``) steps every branch through it.
* :func:`exact_bdd_loop` — the exact baseline's own construction loop over
  dict-keyed layers, with the node budget checked per created node.  The
  parity tests require ``ExactBDD(...).run()`` to return the same
  :class:`~repro.baselines.exact_bdd.ExactBDDResult`, or to raise the same
  :class:`~repro.exceptions.BDDLimitExceededError` message.

Test reference only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.exact_bdd import ExactBDDResult
from repro.core.frontier import EdgeOrdering, build_frontier_plan
from repro.core.state import TransitionTable
from repro.exceptions import BDDLimitExceededError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.kahan import KahanSum

__all__ = ["CONNECTED", "DISCONNECTED", "LIVE", "apply", "exact_bdd_loop"]

#: Sink codes returned by :func:`apply`.
LIVE = 0
CONNECTED = 1
DISCONNECTED = 2


def apply(
    table: TransitionTable,
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

    This is the innermost loop of the reference constructions, so it
    works on plain lists indexed by precomputed integer positions.
    """
    context = table._layers.get(layer_index)
    if context is None:
        context = table.layer(layer_index)
    k = table.k

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
    for position in context.leaving_positions:
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


def exact_bdd_loop(
    graph: UncertainGraph,
    terminals: Sequence,
    *,
    max_nodes: int = 2_000_000,
    edge_ordering: EdgeOrdering = EdgeOrdering.BFS,
) -> ExactBDDResult:
    """Construct the full frontier BDD and return the exact reliability.

    The arguments are those of ``ExactBDD(...)`` without ``rng``: the
    ``random`` ordering draws its plan from an OS-seeded stream here.
    """
    terminals = graph.validate_terminals(terminals)
    k = len(terminals)
    plan = build_frontier_plan(
        graph, strategy=EdgeOrdering(edge_ordering), terminals=terminals
    )

    if k <= 1:
        return ExactBDDResult(1.0, 0, 0, 0)
    if plan.num_edges == 0:
        return ExactBDDResult(0.0, 0, 0, 0)

    transitions = TransitionTable(plan, terminals)
    connected_mass = KahanSum()
    # Layers are dicts keyed by the Lemma-4.3 merge key; values are
    # [partition, counts, probability].
    current: Dict[Tuple, List] = {((), ()): [(), (), 1.0]}
    total_nodes = 1
    peak_width = 1
    layers_processed = 0

    for layer_index in range(plan.num_edges):
        if not current:
            break
        layers_processed = layer_index + 1
        edge = plan.edges[layer_index]
        next_nodes: Dict[Tuple, List] = {}
        branches = ((False, 1.0 - edge.probability), (True, edge.probability))
        step = apply
        for partition, counts, probability in current.values():
            for exists, branch_probability in branches:
                if branch_probability <= 0.0:
                    continue
                child_probability = probability * branch_probability
                sink, child_partition, child_counts, child_flags = step(
                    transitions, layer_index, partition, counts, exists
                )
                if sink == CONNECTED:
                    connected_mass.add(child_probability)
                    continue
                if sink == DISCONNECTED:
                    continue
                key = (child_partition, child_flags)
                node = next_nodes.get(key)
                if node is not None:
                    node[2] += child_probability
                else:
                    next_nodes[key] = [child_partition, child_counts, child_probability]
                    total_nodes += 1
                    if total_nodes > max_nodes:
                        raise BDDLimitExceededError(
                            f"exact BDD exceeded the node budget of "
                            f"{max_nodes} nodes at layer {layer_index + 1} "
                            f"of {plan.num_edges} (paper outcome: DNF)"
                        )
        current = next_nodes
        peak_width = max(peak_width, len(current))

    reliability = min(1.0, max(0.0, connected_mass.value))
    return ExactBDDResult(
        reliability=reliability,
        peak_width=peak_width,
        total_nodes=total_nodes,
        layers_processed=layers_processed,
    )
