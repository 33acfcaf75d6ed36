"""Tests of one-shot S²BDD estimates and the exact reliability helper."""

from __future__ import annotations

import pytest

from repro.baselines.brute_force import brute_force_reliability
from repro.core.reliability import exact_reliability
from repro.engine import EstimatorConfig
from repro.exceptions import ConfigurationError, TerminalError
from repro.graph.components import decompose_graph
from repro.graph.generators import path_graph, random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph
from tests.conftest import make_random_graph, random_terminals, s2bdd_estimate


class TestEstimateReliability:
    @pytest.mark.parametrize("use_extension", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_small_graphs(self, seed, use_extension):
        graph = make_random_graph(seed)
        terminals = random_terminals(graph, seed + 100, 3)
        expected = brute_force_reliability(graph, terminals)
        result = s2bdd_estimate(
            graph, terminals, samples=200, rng=seed, use_extension=use_extension
        )
        assert result.reliability == pytest.approx(expected, abs=1e-9)
        assert result.exact

    def test_single_terminal(self, triangle_graph):
        result = s2bdd_estimate(triangle_graph, ["a"], samples=10, rng=0)
        assert result.reliability == 1.0
        assert result.exact

    def test_duplicate_terminals_collapse(self, triangle_graph):
        result = s2bdd_estimate(triangle_graph, ["a", "a"], samples=10, rng=0)
        assert result.reliability == 1.0

    def test_disconnected_terminals_zero(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.9), (2, 3, 0.9)])
        result = s2bdd_estimate(graph, [0, 3], samples=10, rng=0)
        assert result.reliability == 0.0
        assert result.exact

    def test_bridge_factoring(self, bridge_graph):
        expected = brute_force_reliability(bridge_graph, [0, 5])
        result = s2bdd_estimate(bridge_graph, [0, 5], samples=100, rng=0)
        assert result.reliability == pytest.approx(expected, abs=1e-9)
        # The bridge (probability 0.6) must exist; preprocessing factors it out.
        assert result.bridge_probability == pytest.approx(0.6)
        assert result.num_subproblems == 2

    def test_precomputed_decomposition(self, bridge_graph):
        decomposition = decompose_graph(bridge_graph)
        with_index = s2bdd_estimate(
            bridge_graph, [0, 5], samples=100, rng=0, decomposition=decomposition
        )
        without_index = s2bdd_estimate(bridge_graph, [0, 5], samples=100, rng=0)
        assert with_index.reliability == pytest.approx(without_index.reliability)

    def test_result_metadata(self, bridge_graph):
        result = s2bdd_estimate(bridge_graph, [0, 5], samples=100, rng=0)
        assert result.samples_requested == 100
        assert 0.0 <= result.lower_bound <= result.reliability <= result.upper_bound <= 1.0
        assert result.elapsed_seconds >= 0.0
        assert result.bound_width == pytest.approx(result.upper_bound - result.lower_bound)
        assert 0.0 <= result.sample_reduction_rate <= 1.0
        assert result.used_extension

    def test_invalid_terminal_rejected(self, triangle_graph):
        with pytest.raises(TerminalError):
            s2bdd_estimate(triangle_graph, ["zz"], samples=10)

    def test_invalid_samples_rejected(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(backend="s2bdd", samples=0)


class TestApproximateRegime:
    def test_width_cap_gives_bracketing_bounds(self):
        graph = random_connected_graph(15, 30, rng=5)
        terminals = [0, 4, 8]
        exact = exact_reliability(graph, terminals)
        result = s2bdd_estimate(
            graph, terminals, samples=2000, max_width=8, rng=1
        )
        assert result.lower_bound - 1e-9 <= exact <= result.upper_bound + 1e-9
        assert abs(result.reliability - exact) < 0.2

    def test_estimates_average_to_exact(self):
        graph = random_connected_graph(12, 22, rng=9)
        terminals = [0, 3, 7]
        exact = exact_reliability(graph, terminals)
        estimates = [
            s2bdd_estimate(
                graph, terminals, samples=2000, max_width=6, rng=seed
            ).reliability
            for seed in range(6)
        ]
        assert sum(estimates) / len(estimates) == pytest.approx(exact, abs=0.05)


class TestExactReliability:
    def test_bdd_and_brute_agree(self):
        graph = make_random_graph(4)
        terminals = random_terminals(graph, 4, 3)
        assert exact_reliability(graph, terminals, method="bdd") == pytest.approx(
            exact_reliability(graph, terminals, method="brute"), abs=1e-9
        )

    def test_unknown_method_rejected(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            exact_reliability(triangle_graph, ["a", "b"], method="magic")

    def test_path_series_value(self):
        graph = path_graph(5, 0.5)
        assert exact_reliability(graph, [0, 4]) == pytest.approx(0.5 ** 4)
