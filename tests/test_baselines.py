"""Tests for the baseline algorithms: brute force, plain sampling, exact BDD."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import (
    brute_force_reliability,
    brute_force_reliability_exact,
)
from repro.baselines.exact_bdd import ExactBDD, exact_bdd_reliability
from repro.baselines.sampling import SamplingEstimator
from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.datasets import load_dataset
from repro.exceptions import BDDLimitExceededError, ConfigurationError
from repro.graph.generators import cycle_graph, path_graph, random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph
from tests.conftest import make_random_graph, random_terminals, uncertain_graphs
from tests.reference.exact_bdd_loop import exact_bdd_loop

#: The benchmark's banked karate answers, written by the exact baseline.
KARATE_BANK = (
    Path(__file__).resolve().parents[1] / "perfbench" / "ground_truth" / "karate_exact.json"
)

#: Every ordering whose plan draws nothing from a random stream.
SEEDLESS_ORDERINGS = [
    ordering for ordering in EdgeOrdering if ordering is not EdgeOrdering.RANDOM
]


def _outcome(run):
    """A run's result fields, or the message of its node-budget error."""
    try:
        return dataclasses.astuple(run())
    except BDDLimitExceededError as error:
        return str(error)


class TestBruteForce:
    def test_single_edge(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.3)])
        assert brute_force_reliability(graph, [0, 1]) == pytest.approx(0.3)

    def test_series_path(self):
        graph = path_graph(4, 0.5)
        assert brute_force_reliability(graph, [0, 3]) == pytest.approx(0.125)

    def test_parallel_paths(self):
        graph = cycle_graph(4, 0.5)
        assert brute_force_reliability(graph, [0, 2]) == pytest.approx(1 - 0.75 ** 2)

    def test_single_terminal(self, triangle_graph):
        assert brute_force_reliability(triangle_graph, ["a"]) == 1.0

    def test_exact_fraction_variant(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.5), (1, 2, 0.5)])
        assert brute_force_reliability_exact(graph, [0, 2]) == Fraction(1, 4)
        assert brute_force_reliability_exact(graph, [0]) == Fraction(1)

    def test_triangle_hand_computed(self, triangle_graph):
        # R(a, c) = p_ac + (1 - p_ac) p_ab p_bc
        expected = 0.7 + 0.3 * 0.9 * 0.8
        assert brute_force_reliability(triangle_graph, ["a", "c"]) == pytest.approx(expected)


class TestSamplingBaseline:
    def test_converges_to_exact(self):
        graph = make_random_graph(1)
        terminals = random_terminals(graph, 1, 3)
        exact = brute_force_reliability(graph, terminals)
        result = SamplingEstimator(samples=8000, rng=0).estimate(graph, terminals)
        assert result.reliability == pytest.approx(exact, abs=0.03)

    def test_ht_converges_to_exact(self):
        graph = make_random_graph(2)
        terminals = random_terminals(graph, 2, 3)
        exact = brute_force_reliability(graph, terminals)
        result = SamplingEstimator(
            samples=8000, estimator=EstimatorKind.HORVITZ_THOMPSON, rng=0
        ).estimate(graph, terminals)
        assert result.reliability == pytest.approx(exact, abs=0.05)

    def test_reproducible_with_seed(self, bridge_graph):
        a = SamplingEstimator(samples=500, rng=3).estimate(bridge_graph, [0, 5])
        b = SamplingEstimator(samples=500, rng=3).estimate(bridge_graph, [0, 5])
        assert a.reliability == b.reliability

    def test_single_terminal_short_circuits(self, bridge_graph):
        result = SamplingEstimator(samples=10, rng=0).estimate(bridge_graph, [0])
        assert result.reliability == 1.0
        assert result.samples_used == 0

    def test_result_metadata(self, bridge_graph):
        result = SamplingEstimator(samples=200, rng=0).estimate(bridge_graph, [0, 5])
        assert result.samples_used == 200
        assert 0 <= result.positive_samples <= 200
        assert result.positive_fraction == pytest.approx(result.positive_samples / 200)

    def test_invalid_samples(self):
        with pytest.raises(ConfigurationError):
            SamplingEstimator(samples=0)


class TestExactBDD:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        graph = make_random_graph(seed)
        terminals = random_terminals(graph, seed + 50, 2 + seed % 3)
        expected = brute_force_reliability(graph, terminals)
        assert exact_bdd_reliability(graph, terminals) == pytest.approx(expected, abs=1e-9)

    def test_single_terminal(self, triangle_graph):
        assert exact_bdd_reliability(triangle_graph, ["b"]) == 1.0

    def test_no_edges(self):
        graph = UncertainGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        assert exact_bdd_reliability(graph, [0, 1]) == 0.0

    def test_node_budget_enforced(self):
        graph = random_connected_graph(20, 60, rng=0)
        with pytest.raises(BDDLimitExceededError):
            ExactBDD(graph, [0, 5, 10], max_nodes=10).run()

    def test_result_statistics(self, bridge_graph):
        result = ExactBDD(bridge_graph, [0, 5]).run()
        assert result.peak_width >= 1
        assert result.total_nodes >= result.peak_width
        assert result.layers_processed == bridge_graph.num_edges

    def test_larger_graph_than_brute_force(self):
        # 40 edges is far beyond 2^40 enumeration but easy for the BDD.
        graph = path_graph(41, 0.9)
        assert exact_bdd_reliability(graph, [0, 40]) == pytest.approx(0.9 ** 40)

    @pytest.mark.parametrize("ordering", SEEDLESS_ORDERINGS)
    @settings(max_examples=150, deadline=None)
    @given(graph=uncertain_graphs(), data=st.data())
    def test_matches_reference_loop(self, ordering, graph, data):
        # The per-layer budget check gives the per-node loop's verdict and
        # message, and runs that finish agree field for field.
        vertices = sorted(graph.vertices())
        terminals = data.draw(
            st.lists(
                st.sampled_from(vertices),
                min_size=1,
                max_size=min(4, len(vertices)),
                unique=True,
            )
        )
        total = exact_bdd_loop(
            graph, terminals, max_nodes=10**9, edge_ordering=ordering
        ).total_nodes
        for budget in sorted({1, 2, 5, total - 1, total, 10**9}):
            if budget < 1:
                continue
            product = _outcome(
                lambda: ExactBDD(
                    graph, terminals, max_nodes=budget, edge_ordering=ordering
                ).run()
            )
            reference = _outcome(
                lambda: exact_bdd_loop(
                    graph, terminals, max_nodes=budget, edge_ordering=ordering
                )
            )
            assert product == reference

    @pytest.mark.parametrize("index", [8, 32, 52, 73, 87, 108])
    def test_matches_banked_karate_answers(self, index):
        # Two quick sets per terminal-set size of the committed bank.
        bank = json.loads(KARATE_BANK.read_text(encoding="utf-8"))
        entry = bank["sets"][index]
        result = ExactBDD(
            load_dataset("karate"), entry["terminals"], max_nodes=bank["node_limit"]
        ).run()
        assert result.reliability == entry["exact"]
