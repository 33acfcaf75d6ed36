"""Tests for the exact layer transition of the (S²)BDD node states.

The transition's correctness is also covered end to end (S²BDD vs brute
force) in ``test_integration.py``; the tests here check the individual
mechanics: entering/leaving vertices, sink detection, canonicalisation and
the deletion heuristic.
"""

from __future__ import annotations

import pytest

from repro.core.frontier import EdgeOrdering, build_frontier_plan
from repro.core.state import CONNECTED, DISCONNECTED, LIVE, TransitionTable
from repro.graph.generators import path_graph
from repro.graph.uncertain_graph import UncertainGraph


def _walk(table: TransitionTable, decisions) -> tuple:
    """Apply a sequence of edge-existence decisions from the root state."""
    partition, counts = (), ()
    sink = LIVE
    for layer, exists in enumerate(decisions):
        sink, partition, counts, _ = table.apply(layer, partition, counts, exists)
        if sink != LIVE:
            return sink, None, None
    return sink, partition, counts


class TestPathTransitions:
    """A path 0-1-2-3 with terminals {0, 3} processed in input order."""

    @pytest.fixture
    def table(self):
        graph = path_graph(4, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        return TransitionTable(plan, [0, 3])

    def test_all_edges_present_connects(self, table):
        sink, _, _ = _walk(table, [True, True, True])
        assert sink == CONNECTED

    def test_first_edge_missing_disconnects(self, table):
        # Terminal 0 loses its only edge: disconnection is detected at once.
        sink = table.apply(0, (), (), False)[0]
        assert sink == DISCONNECTED

    def test_middle_edge_missing_disconnects(self, table):
        sink, _, _ = _walk(table, [True, False, True])
        assert sink == DISCONNECTED

    def test_last_edge_missing_disconnects(self, table):
        sink, _, _ = _walk(table, [True, True, False])
        assert sink == DISCONNECTED

    def test_live_intermediate_state(self, table):
        sink, partition, counts, _ = table.apply(0, (), (), True)
        assert sink == LIVE
        # Frontier after edge (0,1) is {1}; its component carries terminal 0.
        assert partition == (0,)
        assert counts == (1,)


class TestTriangleTransitions:
    @pytest.fixture
    def table_and_plan(self, triangle_graph):
        plan = build_frontier_plan(triangle_graph, strategy=EdgeOrdering.INPUT)
        return TransitionTable(plan, ["a", "c"]), plan

    def test_direct_edge_connects_terminals(self, table_and_plan):
        table, plan = table_and_plan
        # Edges in input order: (a,b), (b,c), (a,c).  Take a-b absent,
        # b-c absent, a-c present: terminals connect through the last edge.
        sink, partition, counts, _ = table.apply(0, (), (), False)
        assert sink == LIVE
        sink, partition, counts, _ = table.apply(1, partition, counts, False)
        assert sink == LIVE
        sink, *_ = table.apply(2, partition, counts, True)
        assert sink == CONNECTED

    def test_indirect_path_connects(self, table_and_plan):
        table, _ = table_and_plan
        sink, partition, counts, _ = table.apply(0, (), (), True)
        sink, partition, counts, _ = table.apply(1, partition, counts, True)
        assert sink == CONNECTED

    def test_all_missing_disconnects(self, table_and_plan):
        table, _ = table_and_plan
        sink, partition, counts, _ = table.apply(0, (), (), False)
        sink, partition, counts, _ = table.apply(1, partition, counts, False)
        assert sink == LIVE or sink == DISCONNECTED
        if sink == LIVE:
            sink, *_ = table.apply(2, partition, counts, False)
        assert sink == DISCONNECTED


class TestSelfLoopsAndMerging:
    def test_self_loop_changes_nothing(self):
        graph = UncertainGraph()
        graph.add_edge(0, 0, 0.5)
        graph.add_edge(0, 1, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        table = TransitionTable(plan, [0, 1])
        sink, partition, counts, _ = table.apply(0, (), (), True)
        assert sink == LIVE
        sink, *_ = table.apply(1, partition, counts, True)
        assert sink == CONNECTED

    def test_canonical_labels_start_at_zero(self):
        graph = path_graph(5, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        table = TransitionTable(plan, [0, 4])
        sink, partition, counts, _ = table.apply(0, (), (), True)
        assert partition[0] == 0
        assert max(partition) < len(counts)


class TestPriority:
    def test_priority_prefers_terminal_rich_nodes(self):
        graph = path_graph(6, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        table = TransitionTable(plan, [0, 5])
        # After one existing edge the frontier component carries one of two
        # terminals; with no terminals it would score lower.
        rich = table.priority(1, (0,), (1,), probability=0.5)
        poor = table.priority(1, (0,), (0,), probability=0.5)
        assert rich > poor

    def test_priority_scales_with_probability(self):
        graph = path_graph(6, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        table = TransitionTable(plan, [0, 5])
        low = table.priority(1, (0,), (1,), probability=0.1)
        high = table.priority(1, (0,), (1,), probability=0.9)
        assert high > low

    def test_priority_empty_partition_fallback(self):
        graph = path_graph(3, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        table = TransitionTable(plan, [0, 2])
        assert table.priority(1, (), (), probability=0.5) > 0.0
