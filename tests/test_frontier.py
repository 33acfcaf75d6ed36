"""Tests for edge orderings and the frontier plan."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import (
    EdgeOrdering,
    FrontierPlan,
    build_frontier_plan,
    order_edges,
)
from repro.core.s2bdd import S2BDD
from repro.core.state import TransitionTable
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError
from repro.graph.generators import cycle_graph, path_graph, random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph
from tests.conftest import uncertain_graphs


class TestOrderEdges:
    @pytest.mark.parametrize(
        "strategy",
        [EdgeOrdering.INPUT, EdgeOrdering.BFS, EdgeOrdering.DFS, EdgeOrdering.DEGREE, EdgeOrdering.RANDOM],
    )
    def test_every_strategy_is_a_permutation(self, strategy, bridge_graph):
        ordered = order_edges(bridge_graph, strategy=strategy, terminals=[0], rng=1)
        assert sorted(edge.id for edge in ordered) == sorted(bridge_graph.edge_ids())

    def test_strategy_accepts_string(self, triangle_graph):
        ordered = order_edges(triangle_graph, strategy="bfs")
        assert len(ordered) == 3

    def test_bfs_starts_near_terminal(self, bridge_graph):
        ordered = order_edges(bridge_graph, strategy=EdgeOrdering.BFS, terminals=[5])
        first = ordered[0]
        assert 5 in (first.u, first.v)

    def test_random_ordering_reproducible(self, bridge_graph):
        a = order_edges(bridge_graph, strategy=EdgeOrdering.RANDOM, rng=7)
        b = order_edges(bridge_graph, strategy=EdgeOrdering.RANDOM, rng=7)
        assert [e.id for e in a] == [e.id for e in b]


class TestFrontierPlan:
    def test_path_frontier_is_small(self):
        graph = path_graph(10, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.BFS, terminals=[0])
        assert plan.max_frontier_size() <= 2
        assert plan.num_edges == 9

    def test_first_and_last_frontiers_empty(self, bridge_graph):
        plan = build_frontier_plan(bridge_graph, terminals=[0])
        assert plan.frontier(0) == ()
        assert plan.frontier(plan.num_edges) == ()

    def test_entering_and_leaving_are_endpoints(self, bridge_graph):
        plan = build_frontier_plan(bridge_graph, terminals=[0])
        for index, edge in enumerate(plan.edges):
            endpoints = {edge.u, edge.v}
            assert set(plan.entering[index]) <= endpoints
            assert set(plan.leaving[index]) <= endpoints

    def test_every_vertex_enters_and_leaves_once(self, bridge_graph):
        plan = build_frontier_plan(bridge_graph, terminals=[0])
        entered = [v for layer in plan.entering for v in layer]
        left = [v for layer in plan.leaving for v in layer]
        assert sorted(entered) == sorted(bridge_graph.vertices())
        assert sorted(left) == sorted(bridge_graph.vertices())
        assert len(entered) == len(set(entered))

    def test_frontier_consistency_with_occurrences(self):
        graph = random_connected_graph(12, 20, rng=4)
        plan = build_frontier_plan(graph, terminals=[0])
        for layer in range(1, plan.num_edges):
            for vertex in plan.frontier(layer):
                assert plan.first_occurrence[vertex] < layer
                assert plan.last_occurrence[vertex] >= layer

    def test_uncertain_degree_counts_remaining_edges(self):
        graph = cycle_graph(5, 0.9)
        plan = build_frontier_plan(graph, strategy=EdgeOrdering.INPUT)
        for layer in range(1, plan.num_edges):
            for vertex, degree in plan.uncertain_degree(layer).items():
                remaining = sum(
                    1
                    for edge in plan.edges[layer:]
                    if vertex in (edge.u, edge.v)
                )
                assert degree == remaining

    def test_explicit_edge_order(self, triangle_graph):
        edges = list(triangle_graph.edges())[::-1]
        plan = build_frontier_plan(triangle_graph, edges=edges)
        assert [e.id for e in plan.edges] == [e.id for e in edges]

    def test_explicit_edge_order_must_be_complete(self, triangle_graph):
        edges = list(triangle_graph.edges())[:2]
        with pytest.raises(ConfigurationError):
            build_frontier_plan(triangle_graph, edges=edges)

    def test_empty_graph_plan(self):
        graph = UncertainGraph()
        graph.add_vertex(0)
        plan = build_frontier_plan(graph)
        assert plan.num_edges == 0
        assert plan.max_frontier_size() == 0


class TestOnDemandPlan:
    """The swept accessors equal the definitions, read in any order."""

    @pytest.mark.parametrize("strategy", list(EdgeOrdering))
    @settings(max_examples=40, deadline=None)
    @given(graph=uncertain_graphs(), data=st.data())
    def test_accessors_match_definition_in_any_order(self, strategy, graph, data):
        terminals = sorted(graph.vertices())[:1]
        plan = build_frontier_plan(graph, strategy=strategy, terminals=terminals, rng=3)
        edges = plan.edges
        first, last = {}, {}
        for index, edge in enumerate(edges):
            for vertex in (edge.u, edge.v):
                first.setdefault(vertex, index)
                last[vertex] = index
        layers = data.draw(st.permutations(range(plan.num_edges + 1)))
        for layer in layers:
            expected = tuple(
                sorted(
                    (v for v in first if first[v] < layer <= last[v]), key=repr
                )
            )
            assert plan.frontier(layer) == expected
            assert plan.uncertain_degree(layer) == {
                vertex: sum(
                    1 for edge in edges[layer:] if vertex in (edge.u, edge.v)
                )
                for vertex in expected
            }
        assert plan.max_frontier_size() == max(
            len(plan.frontier(layer)) for layer in range(plan.num_edges + 1)
        )

    def test_layer_outside_plan_raises(self, triangle_graph):
        plan = build_frontier_plan(triangle_graph)
        with pytest.raises(IndexError):
            plan.frontier(plan.num_edges + 1)
        with pytest.raises(IndexError):
            plan.uncertain_degree(-1)

    def test_early_stop_builds_no_context_past_processed_layers(self, monkeypatch):
        built = []
        build_layer = TransitionTable._build_layer

        def spy(table, layer_index):
            built.append(layer_index)
            return build_layer(table, layer_index)

        monkeypatch.setattr(TransitionTable, "_build_layer", spy)
        bdd = S2BDD(load_dataset("karate"), [1, 10, 20], max_width=16, rng=3)
        construction = bdd.construct(500)
        assert construction.strata
        assert construction.layers_processed < bdd.plan.num_edges
        assert built == list(range(construction.layers_processed))

        # Sampling reads only layers construction reached: the plan stays
        # read-only and no context is built.
        def no_sweep(plan, layer):
            raise AssertionError(f"sampling advanced the plan to layer {layer}")

        monkeypatch.setattr(FrontierPlan, "_sweep_to", no_sweep)
        bdd.run(500, construction=construction)
        bdd.run(500, construction=construction, estimator="ht")
        assert built == list(range(construction.layers_processed))
