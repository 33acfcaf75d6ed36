"""Tests for the S²BDD estimator itself."""

from __future__ import annotations

import pytest

from repro.baselines.brute_force import brute_force_reliability
from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.core.s2bdd import S2BDD
from repro.exceptions import ConfigurationError, TerminalError
from repro.graph.generators import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graph.uncertain_graph import UncertainGraph
from tests.conftest import make_random_graph, random_terminals


class TestExactRegime:
    """Small graphs fit under any reasonable width cap: results are exact."""

    def test_path_two_terminals(self):
        graph = path_graph(4, 0.9)
        result = S2BDD(graph, [0, 3], rng=0).run(100)
        assert result.exact
        assert result.reliability == pytest.approx(0.9 ** 3)
        assert result.samples_used == 0

    def test_cycle_two_terminals(self):
        graph = cycle_graph(4, 0.5)
        result = S2BDD(graph, [0, 2], rng=0).run(100)
        # Two disjoint 2-edge paths, each works with prob 0.25.
        assert result.reliability == pytest.approx(1 - (1 - 0.25) ** 2)

    def test_star_all_leaves(self):
        graph = star_graph(3, 0.8)
        result = S2BDD(graph, [1, 2, 3], rng=0).run(100)
        assert result.reliability == pytest.approx(0.8 ** 3)

    def test_single_terminal_trivially_one(self):
        graph = path_graph(3, 0.5)
        result = S2BDD(graph, [1], rng=0).run(10)
        assert result.reliability == 1.0
        assert result.exact

    def test_no_edges_two_terminals_zero(self):
        graph = UncertainGraph()
        graph.add_vertex("a")
        graph.add_vertex("b")
        result = S2BDD(graph, ["a", "b"], rng=0).run(10)
        assert result.reliability == 0.0
        assert result.exact

    def test_disconnected_terminals_zero(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.9), (2, 3, 0.9)])
        result = S2BDD(graph, [0, 3], rng=0).run(100)
        assert result.reliability == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        graph = make_random_graph(seed)
        terminals = random_terminals(graph, seed, 2 + seed % 4)
        expected = brute_force_reliability(graph, terminals)
        result = S2BDD(graph, terminals, rng=seed).run(100)
        assert result.exact
        assert result.reliability == pytest.approx(expected, abs=1e-9)
        assert result.bounds.lower == pytest.approx(expected, abs=1e-9)
        assert result.bounds.upper == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "ordering",
        [EdgeOrdering.INPUT, EdgeOrdering.BFS, EdgeOrdering.DFS, EdgeOrdering.DEGREE],
    )
    def test_exactness_independent_of_ordering(self, ordering):
        graph = make_random_graph(3)
        terminals = random_terminals(graph, 3, 3)
        expected = brute_force_reliability(graph, terminals)
        result = S2BDD(graph, terminals, edge_ordering=ordering, rng=0).run(50)
        assert result.reliability == pytest.approx(expected, abs=1e-9)


class TestApproximateRegime:
    """A tight width cap forces deletion and sampling."""

    @pytest.fixture
    def graph_and_exact(self):
        graph = random_connected_graph(14, 26, rng=77)
        terminals = [0, 5, 9]
        exact = S2BDD(graph, terminals, max_width=100_000, rng=0).run(0).reliability
        return graph, terminals, exact

    def test_bounds_bracket_exact_value(self, graph_and_exact):
        graph, terminals, exact = graph_and_exact
        result = S2BDD(graph, terminals, max_width=4, rng=1).run(2000)
        assert result.bounds.lower - 1e-9 <= exact <= result.bounds.upper + 1e-9
        assert not result.exact
        assert result.num_strata > 0

    def test_estimate_close_to_exact(self, graph_and_exact):
        graph, terminals, exact = graph_and_exact
        estimates = [
            S2BDD(graph, terminals, max_width=8, rng=seed).run(3000).reliability
            for seed in range(5)
        ]
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(exact, abs=0.05)

    def test_sample_reduction_never_exceeds_budget(self, graph_and_exact):
        graph, terminals, _ = graph_and_exact
        result = S2BDD(graph, terminals, max_width=8, rng=2).run(500)
        assert result.samples_reduced <= 500
        assert result.samples_used <= 500

    def test_ht_estimator_also_close(self, graph_and_exact):
        graph, terminals, exact = graph_and_exact
        estimates = [
            S2BDD(graph, terminals, max_width=8, rng=seed)
            .run(3000, estimator=EstimatorKind.HORVITZ_THOMPSON)
            .reliability
            for seed in range(5)
        ]
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(exact, abs=0.07)

    def test_wider_cap_gives_tighter_bounds(self, graph_and_exact):
        graph, terminals, _ = graph_and_exact
        narrow = S2BDD(graph, terminals, max_width=4, rng=3, stratum_mass_cutoff=1.0).run(0)
        wide = S2BDD(graph, terminals, max_width=64, rng=3, stratum_mass_cutoff=1.0).run(0)
        assert wide.bounds.width <= narrow.bounds.width + 1e-9

    def test_peak_width_respects_cap(self, graph_and_exact):
        graph, terminals, _ = graph_and_exact
        result = S2BDD(graph, terminals, max_width=8, rng=0).run(100)
        assert result.peak_width <= 8

    def test_priority_disabled_still_valid(self, graph_and_exact):
        graph, terminals, exact = graph_and_exact
        result = S2BDD(graph, terminals, max_width=8, use_priority=False, rng=4).run(2000)
        assert result.bounds.lower - 1e-9 <= exact <= result.bounds.upper + 1e-9


class TestValidation:
    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            S2BDD(path_graph(3, 0.9), [0, 2], max_width=0)

    def test_invalid_cutoff(self):
        with pytest.raises(ConfigurationError):
            S2BDD(path_graph(3, 0.9), [0, 2], stratum_mass_cutoff=0.0)

    def test_invalid_terminals(self):
        with pytest.raises(TerminalError):
            S2BDD(path_graph(3, 0.9), [99])

    def test_negative_samples_rejected(self):
        bdd = S2BDD(path_graph(3, 0.9), [0, 2])
        with pytest.raises(ConfigurationError):
            bdd.run(-1)

    def test_compute_bounds_only(self):
        bounds = S2BDD(path_graph(4, 0.9), [0, 3]).construct(0).bounds
        assert bounds.lower == pytest.approx(0.9 ** 3)
        assert bounds.is_exact()
