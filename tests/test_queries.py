"""Tests for the unified typed query API (repro.engine.queries)."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.analysis import (
    cluster_uncertain_graph,
    find_reliable_subgraph,
    reliability_search,
    top_k_reliable_vertices,
)
from repro.core.reliability import exact_reliability
from repro.engine import EstimatorConfig, ReliabilityEngine
from repro.engine.queries import (
    ALL_QUERY_KINDS,
    ClusteringQuery,
    KTerminalQuery,
    KTerminalResult,
    ReliabilityClustering,
    ReliabilitySearchQuery,
    ReliabilitySearchResult,
    ReliableSubgraphQuery,
    ReliableSubgraphResult,
    ThresholdQuery,
    ThresholdResult,
    TopKReliableVerticesQuery,
    TopKReliableVerticesResult,
    query_from_dict,
    result_from_dict,
)
from repro.exceptions import ConfigurationError, TerminalError
from repro.experiments.__main__ import main as cli_main
from repro.graph.generators import random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph

ALL_QUERIES = (
    KTerminalQuery(terminals=(0, 3)),
    ThresholdQuery(terminals=(0, 3), threshold=0.5),
    ReliabilitySearchQuery(sources=(0,), threshold=0.4, samples=300),
    TopKReliableVerticesQuery(sources=(0,), k=3, samples=300),
    ReliableSubgraphQuery(query_vertices=(0, 3), threshold=0.6, max_size=6),
    ClusteringQuery(num_clusters=2, samples=300),
)


@pytest.fixture
def community_graph() -> UncertainGraph:
    """Two dense clusters joined by a single weak edge."""
    edges = []
    for cluster, offset in ((0, 0), (1, 5)):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((offset + i, offset + j, 0.9))
    edges.append((0, 5, 0.05))
    return UncertainGraph.from_edge_list(edges, name="two-communities")


@pytest.fixture
def engine(community_graph) -> ReliabilityEngine:
    return ReliabilityEngine(
        EstimatorConfig(samples=400, max_width=256, rng=7)
    ).prepare(community_graph)


class TestDispatch:
    def test_all_kinds_answerable_on_one_prepared_graph(self, engine):
        results = engine.query_many(ALL_QUERIES)
        expected_types = (
            KTerminalResult,
            ThresholdResult,
            ReliabilitySearchResult,
            TopKReliableVerticesResult,
            ReliableSubgraphResult,
            ReliabilityClustering,
        )
        for result, expected in zip(results, expected_types):
            assert type(result) is expected
        assert engine.stats.queries_served == len(ALL_QUERIES)
        assert engine.stats.decompositions_computed == 1

    def test_all_kinds_registered(self):
        assert set(ALL_QUERY_KINDS) == {
            "k-terminal",
            "threshold",
            "search",
            "top-k",
            "subgraph",
            "clustering",
        }

    def test_non_query_rejected(self, engine):
        with pytest.raises(ConfigurationError) as excinfo:
            engine.query("k-terminal")
        assert "Query" in str(excinfo.value)

    def test_query_requires_prepared_graph(self):
        engine = ReliabilityEngine(EstimatorConfig(samples=10))
        with pytest.raises(ConfigurationError):
            engine.query(KTerminalQuery(terminals=(0, 1)))

    def test_k_terminal_query_matches_estimate(self, community_graph):
        config = EstimatorConfig(samples=300, max_width=8, rng=11)
        via_query = ReliabilityEngine(config).prepare(community_graph).query(
            KTerminalQuery(terminals=(0, 9))
        )
        via_estimate = ReliabilityEngine(config).prepare(community_graph).estimate(
            (0, 9)
        )
        assert via_query.estimate.reliability == via_estimate.reliability
        assert via_query.reliability == via_estimate.reliability


class TestThresholdQuery:
    def test_certified_on_exact_backend(self, community_graph):
        engine = ReliabilityEngine(EstimatorConfig(backend="exact-bdd")).prepare(
            community_graph
        )
        exact = exact_reliability(community_graph, (0, 4))
        result = engine.query(ThresholdQuery(terminals=(0, 4), threshold=0.5))
        assert result.satisfied == (exact >= 0.5)
        assert result.certified
        assert result.reliability == pytest.approx(exact)

    def test_s2bdd_certifies_when_bounds_decide(self, community_graph):
        # Small graph, generous width: the S2BDD answer is exact, so the
        # bounds always decide the threshold.
        engine = ReliabilityEngine(
            EstimatorConfig(samples=200, max_width=10_000, rng=1)
        ).prepare(community_graph)
        result = engine.query(ThresholdQuery(terminals=(0, 4), threshold=0.9))
        assert result.certified
        assert result.satisfied == (result.reliability >= 0.9)

    def test_pooled_early_exit_on_sampling_backend(self, community_graph):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=1_000, rng=3)
        ).prepare(community_graph)
        # Vertices 0 and 1 share a dense cluster: reliability ~0.99, so the
        # decision is forced long before the pool is exhausted.
        result = engine.query(ThresholdQuery(terminals=(0, 1), threshold=0.5))
        assert result.satisfied
        assert result.early_exit
        assert result.samples_used < 1_000
        assert not result.certified

    def test_pooled_decision_matches_full_frequency(self, community_graph):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=500, rng=5)
        ).prepare(community_graph)
        pool = engine.world_pool()
        frequency = pool.connectivity_frequency((0, 7))
        result = engine.query(ThresholdQuery(terminals=(0, 7), threshold=0.3))
        assert result.satisfied == (frequency >= 0.3)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(Exception):
            ThresholdQuery(terminals=(0, 1), threshold=1.5)


class TestSerialization:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.kind)
    def test_query_round_trips_through_json(self, query):
        payload = json.loads(json.dumps(query.to_dict()))
        assert query_from_dict(payload) == query

    def test_results_round_trip_through_json(self, engine):
        for result in engine.query_many(ALL_QUERIES):
            payload = json.loads(json.dumps(result.to_dict()))
            restored = result_from_dict(payload)
            assert type(restored) is type(result)
            original = result.to_dict()
            round_tripped = restored.to_dict()
            # Nested ReliabilityResult payloads restore every scalar but
            # (documentedly) drop the per-subproblem summaries.
            for payload_dict in (original, round_tripped):
                if isinstance(payload_dict.get("estimate"), dict):
                    payload_dict["estimate"].pop("subresults", None)
            assert round_tripped == original

    def test_search_result_restores_probabilities(self, engine):
        result = engine.query(
            ReliabilitySearchQuery(sources=(0,), threshold=0.5, samples=200)
        )
        restored = result_from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.probabilities == result.probabilities
        assert restored.vertices == result.vertices
        assert restored.probability(1) == result.probability(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            query_from_dict({"kind": "nope"})
        assert "nope" in str(excinfo.value)
        with pytest.raises(ConfigurationError):
            result_from_dict({"kind": "nope"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            KTerminalQuery.from_dict({"kind": "k-terminal", "terminals": [0], "wat": 1})
        assert "wat" in str(excinfo.value)

    def test_mismatched_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdQuery.from_dict({"kind": "search", "terminals": [0], "threshold": 0.5})


class TestAnalysisShimParity:
    """repro.analysis functions delegate to the queries with identical results."""

    def test_reliability_search(self, community_graph, engine):
        via_function = reliability_search(
            community_graph, [0], threshold=0.6, samples=400, rng=123
        )
        via_query = engine.query(
            ReliabilitySearchQuery(sources=(0,), threshold=0.6, samples=400),
            rng=123,
        )
        assert via_function.vertices == via_query.vertices
        assert via_function.probabilities == via_query.probabilities
        assert via_function.samples_used == via_query.samples_used

    def test_top_k(self, community_graph, engine):
        via_function = top_k_reliable_vertices(
            community_graph, [0], 3, samples=400, rng=123
        )
        via_query = engine.query(
            TopKReliableVerticesQuery(sources=(0,), k=3, samples=400), rng=123
        )
        assert via_function == list(via_query.ranking)

    def test_reliable_subgraph(self, community_graph):
        via_function = find_reliable_subgraph(
            community_graph, [0, 1], threshold=0.8, samples=300, max_width=256, rng=9
        )
        engine = ReliabilityEngine(
            EstimatorConfig(samples=300, max_width=256)
        ).prepare(community_graph)
        via_query = engine.query(
            ReliableSubgraphQuery(query_vertices=(0, 1), threshold=0.8), rng=9
        )
        assert via_function.vertices == via_query.vertices
        assert via_function.reliability == via_query.reliability
        assert via_function.history == via_query.history

    def test_clustering(self, community_graph, engine):
        via_function = cluster_uncertain_graph(
            community_graph, 2, samples=300, rng=42
        )
        via_query = engine.query(
            ClusteringQuery(num_clusters=2, samples=300), rng=42
        )
        assert via_function.centers == via_query.centers
        assert via_function.assignment == via_query.assignment
        assert via_function.connection_probability == via_query.connection_probability


class TestTerminalValidation:
    """Shared input validation of estimate/estimate_many and the queries."""

    def test_empty_terminals_rejected(self, engine):
        with pytest.raises(TerminalError) as excinfo:
            engine.estimate([])
        assert "empty" in str(excinfo.value)

    def test_duplicate_terminals_rejected(self, engine):
        with pytest.raises(TerminalError) as excinfo:
            engine.estimate([0, 4, 0])
        assert "duplicate" in str(excinfo.value)
        assert "0" in str(excinfo.value)

    def test_missing_terminal_rejected_with_actionable_message(self, engine):
        with pytest.raises(TerminalError) as excinfo:
            engine.estimate([0, "ghost"])
        message = str(excinfo.value)
        assert "ghost" in message
        assert "prepare" in message

    def test_estimate_many_validates_each_set(self, engine):
        with pytest.raises(TerminalError):
            engine.estimate_many([[0, 4], [1, 1]])

    @pytest.mark.parametrize(
        "query",
        [
            KTerminalQuery(terminals=(0, 99)),
            ThresholdQuery(terminals=(0, 0), threshold=0.5),
            ReliabilitySearchQuery(sources=(), threshold=0.5),
            TopKReliableVerticesQuery(sources=(99,), k=2),
            ReliableSubgraphQuery(query_vertices=(0, 99), threshold=0.5),
        ],
        ids=lambda q: q.kind,
    )
    def test_queries_share_the_validation(self, engine, query):
        with pytest.raises(TerminalError):
            engine.query(query)

    def test_structural_validation_at_construction(self):
        with pytest.raises(ConfigurationError):
            TopKReliableVerticesQuery(sources=(0,), k=0)
        with pytest.raises(ConfigurationError):
            ClusteringQuery(num_clusters=0)
        with pytest.raises(ConfigurationError):
            ReliabilitySearchQuery(sources=(0,), threshold=0.5, samples=0)


class TestDeprecationHygiene:
    """The library's own code paths emit no DeprecationWarning."""

    def test_analysis_paths_warning_free(self, community_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reliability_search(
                community_graph, [0], threshold=0.6, samples=100, rng=0,
                refine_with_estimator=True, refine_samples=100, refine_max_width=64,
            )
            top_k_reliable_vertices(community_graph, [0], 2, samples=100, rng=0)
            find_reliable_subgraph(
                community_graph, [0, 1], threshold=0.5, samples=100, rng=0
            )
            cluster_uncertain_graph(community_graph, 2, samples=100, rng=0)

    def test_engine_query_paths_warning_free(self, community_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = ReliabilityEngine(
                EstimatorConfig(samples=200, max_width=128, rng=1)
            ).prepare(community_graph)
            engine.query_many(ALL_QUERIES)
            engine.estimate_many([[0, 4], [5, 9]])


class TestQueryKindCLI:
    def test_queries_experiment_runs(self, capsys):
        exit_code = cli_main(
            ["queries", "--preset", "quick", "--searches", "1", "--query-kind", "threshold"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "threshold" in captured.out
        assert "world pool" in captured.out

    def test_query_kind_all_runs_every_kind(self, capsys):
        exit_code = cli_main(["queries", "--preset", "quick", "--searches", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for kind in ("k-terminal", "search", "top-k", "subgraph", "clustering"):
            assert kind in captured.out

    def test_unknown_query_kind_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["queries", "--preset", "quick", "--query-kind", "nope"])


class TestRunnersEmitQueries:
    def test_figure_runners_still_reproduce(self):
        """The query-object migration keeps the legacy-identical seeds."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runners import run_figure4

        config = ExperimentConfig(
            samples=50,
            max_width=64,
            num_terminals=(3,),
            num_searches=1,
            large_datasets=("tokyo",),
        )
        table = run_figure4(config, sample_grid=(50,), datasets=("tokyo",), num_terminals=3)
        assert len(table.rows) == 1
        # sample ratio column is still populated from the typed result
        assert table.rows[0][3] is not None

    def test_mixed_workload_runner_shares_pool(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runners import run_queries

        config = ExperimentConfig(
            samples=100,
            max_width=64,
            num_terminals=(3,),
            num_searches=2,
            large_datasets=("tokyo",),
        )
        table = run_queries(config, query_kind="all")
        assert len(table.rows) == 6
        note = table.notes[0] if hasattr(table, "notes") else table.render()
        rendered = table.render()
        assert "1 built" in rendered
        assert "cache hits" in rendered


def test_random_connected_graph_workload_consistency():
    """Search, threshold, and pooled estimates agree from one pool."""
    graph = random_connected_graph(20, 35, rng=2)
    engine = ReliabilityEngine(
        EstimatorConfig(backend="sampling", samples=400, rng=17)
    ).prepare(graph)
    search = engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.0))
    for vertex in list(graph.vertices())[:5]:
        if vertex == 0:
            continue
        pooled = engine.query(KTerminalQuery(terminals=(0, vertex)))
        assert pooled.reliability == search.probability(vertex)
    assert engine.stats.world_pools_built == 1
    assert engine.stats.world_pool_hits >= 4
