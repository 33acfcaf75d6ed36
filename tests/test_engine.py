"""Tests for the session engine, the backend registry, and EstimatorConfig."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.core.reliability import ReliabilityResult, exact_reliability
from repro.engine import (
    EstimatorConfig,
    ReliabilityBackend,
    ReliabilityEngine,
    UnknownBackendError,
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.exceptions import ConfigurationError
from repro.experiments.__main__ import main as cli_main
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import random_connected_graph
from tests.conftest import make_random_graph, random_terminals, s2bdd_estimate

BUILTIN_BACKENDS = ("s2bdd", "sampling", "exact-bdd", "brute")


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in BUILTIN_BACKENDS:
            assert name in names

    def test_create_backend_satisfies_protocol(self):
        config = EstimatorConfig(samples=100)
        for name in BUILTIN_BACKENDS:
            backend = create_backend(name, config)
            assert isinstance(backend, ReliabilityBackend)
            assert backend.name == name

    def test_unknown_backend_error_lists_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend("not-a-backend", EstimatorConfig())
        message = str(excinfo.value)
        assert "not-a-backend" in message
        for name in BUILTIN_BACKENDS:
            assert name in message

    def test_register_lookup_unregister_roundtrip(self):
        class FakeBackend:
            name = "fake"

            def __init__(self, config):
                self.config = config

            def estimate(self, graph, terminals, *, rng=None, decomposition=None):
                raise NotImplementedError

        register_backend("fake", FakeBackend)
        try:
            assert "fake" in available_backends()
            backend = create_backend("fake", EstimatorConfig())
            assert isinstance(backend, FakeBackend)
        finally:
            unregister_backend("fake")
        assert "fake" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("s2bdd", lambda config: None)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(UnknownBackendError):
            unregister_backend("never-registered")


class TestEstimatorConfig:
    def test_defaults_valid(self):
        config = EstimatorConfig()
        assert config.backend == "s2bdd"
        assert config.samples > 0

    def test_string_enums_coerced(self):
        config = EstimatorConfig(estimator="ht", edge_ordering="dfs")
        assert config.estimator is EstimatorKind.HORVITZ_THOMPSON
        assert config.edge_ordering is EdgeOrdering.DFS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"max_width": -1},
            {"backend": "typo"},
            {"stratum_mass_cutoff": 0.0},
            {"stratum_mass_cutoff": 1.5},
            {"estimator": "bogus"},
            {"edge_ordering": "bogus"},
            {"rng": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(**kwargs)

    def test_replace_revalidates(self):
        config = EstimatorConfig(samples=100)
        assert config.replace(samples=200).samples == 200
        with pytest.raises(ConfigurationError):
            config.replace(backend="typo")

    def test_dict_round_trip(self):
        config = EstimatorConfig(
            backend="sampling",
            samples=321,
            max_width=55,
            estimator="ht",
            use_extension=False,
            edge_ordering="degree",
            stratum_mass_cutoff=0.8,
            rng=99,
        )
        payload = config.to_dict()
        assert payload["estimator"] == "ht"
        assert payload["edge_ordering"] == "degree"
        assert EstimatorConfig.from_dict(payload) == config

    def test_json_round_trip(self):
        config = EstimatorConfig(samples=123, rng=7)
        text = config.to_json()
        json.loads(text)  # must be valid JSON
        assert EstimatorConfig.from_json(text) == config

    def test_random_instance_not_serializable(self):
        config = EstimatorConfig(rng=random.Random(1))
        with pytest.raises(ConfigurationError):
            config.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            EstimatorConfig.from_dict({"samples": 10, "wat": 1})
        assert "wat" in str(excinfo.value)


class TestReliabilityEngine:
    def test_prepare_caches_decomposition(self):
        graph = make_random_graph(1)
        engine = ReliabilityEngine(EstimatorConfig(samples=100, rng=0))
        engine.prepare(graph)
        engine.prepare(graph)
        assert engine.stats.decompositions_computed == 1
        assert engine.stats.decomposition_cache_hits == 1

    def test_estimate_requires_prepared_graph(self):
        engine = ReliabilityEngine(EstimatorConfig(samples=10))
        with pytest.raises(ConfigurationError):
            engine.estimate([0, 1])

    def test_estimate_with_graph_argument_auto_prepares(self):
        graph = make_random_graph(2)
        terminals = random_terminals(graph, 3, 2)
        engine = ReliabilityEngine(EstimatorConfig(samples=100, rng=1))
        result = engine.estimate(terminals, graph=graph)
        assert 0.0 <= result.reliability <= 1.0
        assert engine.stats.decompositions_computed == 1
        assert engine.stats.queries_served == 1

    def test_estimate_many_amortizes_preprocessing(self):
        """Acceptance: >= 5 terminal sets, one decomposition, one-shot-identical."""
        graph = random_connected_graph(15, 30, rng=5)
        terminal_sets = [[0, 4], [1, 8], [2, 9, 13], [3, 7], [5, 11, 14], [6, 10]]
        config = EstimatorConfig(samples=300, max_width=8, rng=123)

        engine = ReliabilityEngine(config)
        engine.prepare(graph)
        batch = engine.estimate_many(terminal_sets)

        assert len(batch) == len(terminal_sets)
        # The decomposition index was computed exactly once for the batch.
        assert engine.stats.decompositions_computed == 1
        assert engine.stats.queries_served == len(terminal_sets)

        # Batch results are identical to one-shot backend estimates (which
        # recompute preprocessing every call) under the same per-query seeds.
        for index, terminals in enumerate(terminal_sets):
            one_shot = s2bdd_estimate(
                graph,
                terminals,
                samples=300,
                max_width=8,
                rng=engine.query_seed(index),
            )
            assert batch[index].reliability == one_shot.reliability
            assert batch[index].lower_bound == one_shot.lower_bound
            assert batch[index].upper_bound == one_shot.upper_bound

        # At least one query must actually have sampled (width cap 8), so
        # the equality above is a real RNG-equivalence check.
        assert any(result.samples_used > 0 for result in batch)

    def test_estimate_many_equals_sequential_estimates(self):
        graph = random_connected_graph(12, 22, rng=9)
        terminal_sets = [[0, 3], [1, 5], [2, 7], [4, 10], [6, 11]]
        config = EstimatorConfig(samples=200, max_width=8, rng=77)

        batch = ReliabilityEngine(config).prepare(graph).estimate_many(terminal_sets)
        solo_engine = ReliabilityEngine(config).prepare(graph)
        solo = [solo_engine.estimate(terminals) for terminals in terminal_sets]

        assert [r.reliability for r in batch] == [r.reliability for r in solo]

    def test_query_seed_deterministic_and_distinct(self):
        config = EstimatorConfig(rng=42)
        first = ReliabilityEngine(config)
        second = ReliabilityEngine(config)
        seeds = [first.query_seed(i) for i in range(10)]
        assert seeds == [second.query_seed(i) for i in range(10)]
        assert len(set(seeds)) == 10
        with pytest.raises(ConfigurationError):
            first.query_seed(-1)

    def test_forget_and_reset_cache(self):
        graph = make_random_graph(3)
        engine = ReliabilityEngine(EstimatorConfig(samples=10, rng=0)).prepare(graph)
        engine.forget(graph)
        with pytest.raises(ConfigurationError):
            engine.estimate([0, 1])
        engine.prepare(graph)
        engine.reset_cache()
        with pytest.raises(ConfigurationError):
            engine.estimate([0, 1])

    def test_overrides_kwargs(self):
        engine = ReliabilityEngine(samples=55, backend="sampling")
        assert engine.config.samples == 55
        assert engine.backend_name == "sampling"

    def test_mutated_graph_invalidates_cached_decomposition(self):
        from repro.graph.uncertain_graph import UncertainGraph

        graph = UncertainGraph.from_edge_list(
            [("a", "b", 0.5), ("b", "c", 0.5), ("c", "d", 0.5)]
        )
        engine = ReliabilityEngine(EstimatorConfig(samples=100, rng=0)).prepare(graph)
        stale = engine.estimate(["a", "b"])
        assert stale.reliability == pytest.approx(0.5)
        # Close the cycle: a second a-d path now backs up the a-b edge.
        graph.add_edge("d", "a", 0.9)
        fresh = engine.estimate(["a", "b"])
        expected = s2bdd_estimate(graph, ["a", "b"], samples=100, rng=0)
        assert fresh.reliability == pytest.approx(expected.reliability)
        assert fresh.reliability > 0.5  # not the stale bridge-only answer
        assert engine.stats.decompositions_computed == 2

    def test_cache_hit_counting_one_per_query(self):
        graph = make_random_graph(4)
        sets = [random_terminals(graph, 200 + i, 2) for i in range(3)]
        engine = ReliabilityEngine(EstimatorConfig(samples=50, rng=0)).prepare(graph)
        engine.estimate_many(sets)
        assert engine.stats.decomposition_cache_hits == len(sets)

    def test_per_query_rng_override_matches_legacy(self):
        graph = random_connected_graph(15, 30, rng=5)
        engine = ReliabilityEngine(EstimatorConfig(samples=300, max_width=8, rng=1))
        result = engine.estimate([0, 4, 9], graph=graph, rng=42)
        one_shot = s2bdd_estimate(graph, [0, 4, 9], samples=300, max_width=8, rng=42)
        assert result.reliability == one_shot.reliability


class TestBackendsByName:
    """All four methods are reachable by name through the one engine API."""

    @pytest.mark.parametrize("name", BUILTIN_BACKENDS)
    def test_backend_reachable_and_sane(self, name):
        graph = make_random_graph(6)
        terminals = random_terminals(graph, 106, 3)
        engine = ReliabilityEngine(
            EstimatorConfig(backend=name, samples=400, rng=13)
        ).prepare(graph)
        result = engine.estimate(terminals)
        assert 0.0 <= result.reliability <= 1.0
        assert result.lower_bound <= result.reliability <= result.upper_bound

    @pytest.mark.parametrize("name", ["exact-bdd", "brute", "s2bdd"])
    def test_exact_capable_backends_agree(self, name):
        graph = make_random_graph(8)
        terminals = random_terminals(graph, 108, 3)
        expected = exact_reliability(graph, terminals, method="brute")
        engine = ReliabilityEngine(
            EstimatorConfig(backend=name, samples=400, rng=3)
        ).prepare(graph)
        assert engine.estimate(terminals).reliability == pytest.approx(
            expected, abs=1e-9
        )


class TestReliabilityResultSerialization:
    def test_to_dict_is_json_safe_and_round_trips(self):
        graph = random_connected_graph(12, 22, rng=4)
        result = s2bdd_estimate(graph, [0, 5, 9], samples=200, rng=1)
        payload = result.to_dict()
        text = json.dumps(payload)  # enums stringified, nothing exotic left
        assert payload["estimator"] == "mc"
        assert len(payload["subresults"]) == result.num_subproblems

        restored = ReliabilityResult.from_dict(json.loads(text))
        assert restored.reliability == result.reliability
        assert restored.estimator is result.estimator
        assert restored.exact == result.exact
        assert restored.subresults == []

    def test_from_dict_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ReliabilityResult.from_dict({"reliability": 0.5})
        assert "estimator" in str(excinfo.value)


class TestCLIBackendFlag:
    def test_known_backend_accepted(self, capsys):
        exit_code = cli_main(["table2", "--preset", "quick", "--backend", "s2bdd"])
        assert exit_code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_backend_actionable_error(self, capsys):
        exit_code = cli_main(["table2", "--preset", "quick", "--backend", "s2bddd"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "s2bddd" in captured.err
        for name in BUILTIN_BACKENDS:
            assert name in captured.err

    def test_experiment_config_validates_backend(self):
        with pytest.raises(UnknownBackendError):
            ExperimentConfig(backend="typo")

    def test_estimator_config_bridge(self):
        config = ExperimentConfig(samples=111, max_width=22, backend="sampling")
        bridged = config.estimator_config()
        assert bridged.backend == "sampling"
        assert bridged.samples == 111
        assert bridged.max_width == 22
        overridden = config.estimator_config(backend="brute", samples=9)
        assert overridden.backend == "brute"
        assert overridden.samples == 9
