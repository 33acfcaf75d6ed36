"""Exact frontier-based BDD baseline (TdZDD-style).

The traditional BDD-based approach (Section 3.2.1) constructs the full
frontier-based decision diagram and reads the exact reliability off the
1-sink.  It is the S²BDD without deletions: the same frontier states, the
same Lemma 4.3 merges and the same sinks.  So :class:`ExactBDD` runs
:meth:`repro.core.s2bdd.S2BDD.construct` — the one construction loop in the
library — on a diagram that can never delete a node or sort by priority,
and reads the reliability off the 1-sink mass ``p_c``.  Its layer width —
and therefore its memory footprint — can grow exponentially with the graph
size.  That is precisely the paper's motivation for the S²BDD: the exact
BDD "DNF"s on the large datasets.

A configurable node budget turns the memory blow-up into a clean
:class:`repro.exceptions.BDDLimitExceededError`, which the experiment
harness reports as DNF.  Construction checks it once per layer, after the
layer whose running node total first exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.frontier import EdgeOrdering
from repro.core.s2bdd import S2BDD
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.rng import RandomLike
from repro.utils.validation import check_positive_int

__all__ = ["ExactBDD", "ExactBDDResult", "exact_bdd_reliability"]

Vertex = Hashable


@dataclass
class ExactBDDResult:
    """Outcome of an exact BDD construction."""

    reliability: float
    peak_width: int
    total_nodes: int
    layers_processed: int


class ExactBDD:
    """Exact k-terminal reliability via a full frontier-based BDD.

    Parameters
    ----------
    graph:
        The uncertain graph.
    terminals:
        Terminal vertices.
    max_nodes:
        Budget on the total number of diagram nodes (the root plus every
        layer's width) before the construction aborts with
        :class:`BDDLimitExceededError`.
    edge_ordering:
        Edge-ordering strategy (shared with the S²BDD).
    rng:
        Seed / generator for the ``random`` edge ordering; the other
        orderings draw nothing from it.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        max_nodes: int = 2_000_000,
        edge_ordering: EdgeOrdering = EdgeOrdering.BFS,
        rng: RandomLike = None,
    ) -> None:
        check_positive_int(max_nodes, "max_nodes")
        self._max_nodes = max_nodes
        # The root counts as a node, so a layer that reaches the width cap
        # has already passed the budget: the cap never deletes a node in a
        # run that finishes.  The priority sort would reorder the Kahan
        # additions of such runs, so it stays off.
        self._bdd = S2BDD(
            graph,
            terminals,
            max_width=max_nodes,
            edge_ordering=edge_ordering,
            use_priority=False,
            rng=rng,
        )

    def run(self) -> ExactBDDResult:
        """Construct the diagram and return the exact reliability."""
        construction = self._bdd.construct(0, max_nodes=self._max_nodes)
        return ExactBDDResult(
            reliability=construction.bounds.connected_mass,
            peak_width=construction.peak_width,
            total_nodes=construction.total_nodes,
            layers_processed=construction.layers_processed,
        )


def exact_bdd_reliability(
    graph: UncertainGraph,
    terminals: Sequence[Vertex],
    *,
    max_nodes: int = 2_000_000,
    edge_ordering: EdgeOrdering = EdgeOrdering.BFS,
) -> float:
    """Convenience wrapper returning just the exact reliability."""
    return ExactBDD(
        graph, terminals, max_nodes=max_nodes, edge_ordering=edge_ordering
    ).run().reliability
