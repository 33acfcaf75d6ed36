"""End-to-end integration tests: every algorithm must agree.

The brute-force oracle defines the ground truth; the exact BDD, the S²BDD
(with and without the extension technique, under both estimators) and the
sampling baselines must all agree with it — exactly where they claim
exactness, statistically where they are approximate.
"""

from __future__ import annotations

import pytest

from repro.baselines.brute_force import brute_force_reliability
from repro.baselines.exact_bdd import exact_bdd_reliability
from repro.baselines.sampling import SamplingEstimator
from repro.datasets import karate_club_graph
from repro.graph.generators import random_connected_graph
from repro.preprocess import preprocess
from tests.conftest import make_random_graph, random_terminals, s2bdd_estimate


class TestAllMethodsAgreeOnSmallGraphs:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_methods_agree(self, seed):
        graph = make_random_graph(seed, num_vertices=7, num_edges=11)
        k = 2 + seed % 4
        terminals = random_terminals(graph, seed * 13 + 1, k)
        oracle = brute_force_reliability(graph, terminals)

        assert exact_bdd_reliability(graph, terminals) == pytest.approx(oracle, abs=1e-9)
        with_extension = s2bdd_estimate(graph, terminals, samples=100, rng=seed)
        without_extension = s2bdd_estimate(
            graph, terminals, samples=100, rng=seed, use_extension=False
        )
        assert with_extension.reliability == pytest.approx(oracle, abs=1e-9)
        assert without_extension.reliability == pytest.approx(oracle, abs=1e-9)
        assert with_extension.exact and without_extension.exact

    @pytest.mark.parametrize("seed", range(3))
    def test_sampling_baseline_statistically_agrees(self, seed):
        graph = make_random_graph(seed + 30, num_vertices=7, num_edges=11)
        terminals = random_terminals(graph, seed, 3)
        oracle = brute_force_reliability(graph, terminals)
        sampled = SamplingEstimator(samples=6000, rng=seed).estimate(graph, terminals)
        assert sampled.reliability == pytest.approx(oracle, abs=0.04)

    def test_preprocessing_factorisation_times_s2bdd(self):
        """pb * prod R[G_i] computed by the S²BDD equals the direct answer."""
        for seed in range(5):
            graph = make_random_graph(seed + 60, num_vertices=9, num_edges=12)
            terminals = random_terminals(graph, seed, 2)
            oracle = brute_force_reliability(graph, terminals)
            prep = preprocess(graph, terminals)
            deterministic = prep.deterministic_reliability()
            if deterministic is not None:
                assert deterministic == pytest.approx(oracle, abs=1e-9)
                continue
            product = prep.bridge_probability
            for subproblem in prep.subproblems:
                product *= s2bdd_estimate(
                    subproblem.graph, subproblem.terminals, samples=50, rng=seed
                ).reliability
            assert product == pytest.approx(oracle, abs=1e-9)


class TestApproximateAgreement:
    def test_width_capped_estimator_tracks_exact_bdd(self):
        graph = random_connected_graph(16, 30, rng=123)
        terminals = [0, 6, 12]
        oracle = exact_bdd_reliability(graph, terminals)
        estimates = [
            s2bdd_estimate(
                graph, terminals, samples=3000, max_width=8, rng=seed
            ).reliability
            for seed in range(8)
        ]
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(oracle, abs=0.05)
        for estimate in estimates:
            assert 0.0 <= estimate <= 1.0

    def test_estimators_mc_and_ht_agree(self):
        graph = random_connected_graph(14, 26, rng=5)
        terminals = [1, 7, 11]
        mc = s2bdd_estimate(
            graph, terminals, samples=4000, max_width=8, estimator="mc", rng=0
        ).reliability
        ht = s2bdd_estimate(
            graph, terminals, samples=4000, max_width=8, estimator="ht", rng=0
        ).reliability
        assert mc == pytest.approx(ht, abs=0.08)


class TestKarateEndToEnd:
    """The paper's smallest real dataset, exercised exactly as in Table 3."""

    @pytest.fixture(scope="class")
    def karate(self):
        return karate_club_graph(rng=42)

    def test_exact_and_s2bdd_agree(self, karate):
        terminals = [1, 34, 17]
        oracle = exact_bdd_reliability(karate, terminals)
        result = s2bdd_estimate(
            karate, terminals, samples=500, max_width=20_000, rng=0
        )
        assert result.exact
        assert result.reliability == pytest.approx(oracle, abs=1e-9)

    def test_sampling_baseline_is_noisier(self, karate):
        terminals = [1, 34, 17]
        oracle = exact_bdd_reliability(karate, terminals)
        pro_errors = []
        sampling_errors = []
        for seed in range(3):
            pro = s2bdd_estimate(
                karate, terminals, samples=300, max_width=20_000, rng=seed
            )
            sampled = SamplingEstimator(samples=300, rng=seed).estimate(karate, terminals)
            pro_errors.append(abs(pro.reliability - oracle))
            sampling_errors.append(abs(sampled.reliability - oracle))
        # Our approach is exact here, so its error is identically zero.
        assert max(pro_errors) == pytest.approx(0.0, abs=1e-9)
        assert max(sampling_errors) >= 0.0
