"""Tests of the batch APIs (``query_many`` / ``estimate_many``) and the
pinned golden checksums.

A batch is a plain in-process loop: ``query_many(qs)`` must answer exactly
as ``[engine.query(q) for q in qs]`` does on an identical session — same
results, same seed cursor afterwards, same counters — while sharing one
decomposition index and one world pool.  The golden checksums pin the
answers of a fixed six-kind karate workload on both main backends.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing.process
import pickle
import random

import pytest

from repro.engine import (
    TIMING_FIELDS,
    EstimatorConfig,
    ReliabilityEngine,
    results_checksum,
)
from repro.engine.queries import (
    ClusteringQuery,
    KTerminalQuery,
    ReliabilitySearchQuery,
    ReliableSubgraphQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
    strip_timing,
)
from repro.exceptions import ConfigurationError, TerminalError
from repro.graph.generators import random_connected_graph

GRAPH_SEED = 3


def small_graph():
    return random_connected_graph(14, 24, rng=GRAPH_SEED)


def fresh_engine(backend: str = "sampling", **overrides) -> ReliabilityEngine:
    config = EstimatorConfig(backend=backend, samples=250, max_width=128, rng=11)
    if overrides:
        config = config.replace(**overrides)
    return ReliabilityEngine(config).prepare(small_graph())


def mixed_workload(repeats: int = 2):
    queries = [
        KTerminalQuery(terminals=(0, 5)),
        ThresholdQuery(terminals=(1, 7), threshold=0.4),
        ReliabilitySearchQuery(sources=(2,), threshold=0.3),
        TopKReliableVerticesQuery(sources=(3,), k=4),
        ReliableSubgraphQuery(query_vertices=(0, 4), threshold=0.9, max_size=5),
        ClusteringQuery(num_clusters=2),
    ]
    return queries * repeats


def canonical(results):
    return [strip_timing(result.to_dict()) for result in results]


# ----------------------------------------------------------------------
# A batch is a loop over single queries
# ----------------------------------------------------------------------
class TestBatchExecution:
    @pytest.mark.parametrize("backend", ["sampling", "s2bdd"])
    def test_query_many_equals_single_queries(self, backend):
        queries = mixed_workload()
        batch = fresh_engine(backend).query_many(queries)
        engine = fresh_engine(backend)
        singles = [engine.query(query) for query in queries]
        assert canonical(batch) == canonical(singles)
        assert results_checksum(batch) == results_checksum(singles)

    def test_batch_is_deterministic_across_sessions(self):
        queries = mixed_workload()
        first = fresh_engine().query_many(queries)
        second = fresh_engine().query_many(queries)
        assert results_checksum(first) == results_checksum(second)

    def test_threshold_early_exit_matches_single_queries(self):
        """The pooled scan's early-exit bookkeeping is the same in a batch."""
        queries = [
            ThresholdQuery(terminals=(0, 1), threshold=0.05),
            ThresholdQuery(terminals=(0, 7), threshold=0.3),
            ThresholdQuery(terminals=(2, 9), threshold=0.99),
            ThresholdQuery(terminals=(3, 11), threshold=0.5),
        ]
        batch = fresh_engine("sampling", samples=1_000).query_many(queries)
        engine = fresh_engine("sampling", samples=1_000)
        singles = [engine.query(query) for query in queries]
        assert any(result.early_exit for result in batch)
        for mine, theirs in zip(batch, singles):
            assert mine.satisfied == theirs.satisfied
            assert mine.reliability == theirs.reliability
            assert mine.samples_used == theirs.samples_used
            assert mine.early_exit == theirs.early_exit

    @pytest.mark.parametrize("backend", ["sampling", "s2bdd"])
    def test_estimate_many_equals_single_estimates(self, backend):
        terminal_sets = [(0, v) for v in range(1, 9)]
        batch = fresh_engine(backend).estimate_many(terminal_sets)
        engine = fresh_engine(backend)
        singles = [engine.estimate(terminals) for terminals in terminal_sets]
        assert canonical(batch) == canonical(singles)

    def test_empty_batch_returns_empty(self):
        engine = fresh_engine()
        assert engine.query_many([]) == []
        assert engine.estimate_many([]) == []
        assert engine.stats.queries_served == 0

    def test_batch_seed_cursor_advances_like_single_queries(self):
        """A query answered after a batch matches its single-query twin."""
        queries = mixed_workload()[:4]
        follow_up = KTerminalQuery(terminals=(1, 9))
        single_engine = fresh_engine()
        for query in queries:
            single_engine.query(query)
        single_next = single_engine.query(follow_up)
        batch_engine = fresh_engine()
        batch_engine.query_many(queries)
        batch_next = batch_engine.query(follow_up)
        assert canonical([batch_next]) == canonical([single_next])

    def test_seed_index_replays_one_query_of_a_batch(self):
        queries = [KTerminalQuery(terminals=(0, v)) for v in (5, 6, 7)]
        batch = fresh_engine().query_many(queries)
        replay = fresh_engine().query(queries[2], seed_index=2)
        assert canonical([replay]) == canonical([batch[2]])

    def test_seed_index_and_rng_are_mutually_exclusive(self):
        engine = fresh_engine()
        with pytest.raises(ConfigurationError):
            engine.query(
                KTerminalQuery(terminals=(0, 5)), rng=random.Random(1), seed_index=0
            )

    def test_failing_batch_stops_at_its_first_failure(self):
        """The queries before a failing one run and advance the seed cursor."""
        queries = [
            KTerminalQuery(terminals=(0, 5)),
            KTerminalQuery(terminals=(1, 1)),  # duplicate terminal: raises
            KTerminalQuery(terminals=(2, 7)),
            KTerminalQuery(terminals=(3, 9)),
        ]
        follow_up = KTerminalQuery(terminals=(4, 10))
        single_engine = fresh_engine()
        single_engine.query(queries[0])
        with pytest.raises(TerminalError):
            single_engine.query(queries[1])

        batch_engine = fresh_engine()
        with pytest.raises(TerminalError):
            batch_engine.query_many(queries)
        assert batch_engine.stats.queries_served == single_engine.stats.queries_served
        single_next = single_engine.query(follow_up)
        batch_next = batch_engine.query(follow_up)
        assert canonical([batch_next]) == canonical([single_next])

    def test_graph_override_updates_the_active_graph(self):
        """A batch on graph= leaves that graph active for later queries."""
        other = random_connected_graph(10, 16, rng=9)
        queries = [ReliabilitySearchQuery(sources=(v,), threshold=0.3) for v in range(4)]
        follow_up = KTerminalQuery(terminals=(0, 5))

        single_engine = fresh_engine()
        for query in queries:
            single_engine.query(query, graph=other)
        single_next = single_engine.query(follow_up)  # answers on `other`

        batch_engine = fresh_engine()
        batch_engine.query_many(queries, graph=other)
        batch_next = batch_engine.query(follow_up)
        assert canonical([batch_next]) == canonical([single_next])

    def test_malformed_batch_fails_in_place(self):
        """A non-Query item raises where it stands, after the valid prefix ran."""
        items = [
            KTerminalQuery(terminals=(0, 5)),
            KTerminalQuery(terminals=(1, 6)),
            "not a query",
        ]
        engine = fresh_engine()
        with pytest.raises(ConfigurationError):
            engine.query_many(items)
        assert engine.stats.queries_served == 2

    @pytest.mark.parametrize("workers", [2, 8])
    def test_deprecated_workers_starts_no_process(self, monkeypatch, workers):
        def boom(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a batch must never start a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", boom)
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", boom)
        queries = mixed_workload()[:4]
        expected = fresh_engine().query_many(queries)
        with pytest.warns(DeprecationWarning, match="workers"):
            ignored = fresh_engine().query_many(queries, workers=workers)
        assert results_checksum(ignored) == results_checksum(expected)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, "two"])
    def test_invalid_workers_rejected(self, workers):
        engine = fresh_engine()
        with pytest.raises(ConfigurationError):
            engine.query_many(mixed_workload()[:2], workers=workers)


# ----------------------------------------------------------------------
# Shared preparation and counters
# ----------------------------------------------------------------------
class TestBatchStats:
    def test_pooled_batch_samples_its_pool_once(self):
        queries = [
            ReliabilitySearchQuery(sources=(v,), threshold=0.3) for v in range(8)
        ]
        engine = fresh_engine()
        engine.query_many(queries)
        stats = engine.stats
        assert stats.queries_served == 8
        assert stats.world_pools_built == 1
        assert stats.worlds_sampled == 250
        assert stats.world_pool_hits == 7

    def test_pool_reads_follow_the_backend(self):
        """Sampling-driven kinds always read a pool of their own budget;
        k-terminal reads the default pool only on the Monte Carlo sampler."""
        workload = [
            KTerminalQuery(terminals=(0, 5)),
            ReliabilitySearchQuery(sources=(2,), threshold=0.3, samples=100),
            ClusteringQuery(num_clusters=2),
        ]
        for backend in ("sampling", "s2bdd"):
            engine = fresh_engine(backend)
            engine.query_many(workload)
            assert engine.stats.world_pools_built == 2  # budgets 100 and 250
            assert engine.stats.worlds_sampled == 350
        engine = fresh_engine("s2bdd")
        engine.query_many([KTerminalQuery(terminals=(0, 5))])
        assert engine.stats.world_pools_built == 0
        engine = fresh_engine("sampling", estimator="ht")
        engine.query_many([KTerminalQuery(terminals=(0, 5))])
        assert engine.stats.world_pools_built == 0

    def test_estimate_batch_reuses_one_decomposition(self):
        engine = fresh_engine("s2bdd")
        engine.estimate_many([(0, v) for v in range(1, 7)])
        stats = engine.stats
        assert stats.queries_served == 6
        assert stats.decompositions_computed == 1
        # Each estimate re-validates the index prepare() cached.
        assert stats.decomposition_cache_hits == 6

    def test_mixed_batch_stats_equal_single_queries(self):
        queries = mixed_workload()
        single_engine = fresh_engine()
        for query in queries:
            single_engine.query(query)
        batch_engine = fresh_engine()
        batch_engine.query_many(queries)
        assert batch_engine.stats == single_engine.stats

    def test_unprepared_engine_batch_stats_equal_single_queries(self):
        queries = [KTerminalQuery(terminals=(0, v)) for v in (3, 5, 7)]
        single_graph = small_graph()
        single_engine = ReliabilityEngine(EstimatorConfig(samples=60, rng=5))
        for query in queries:
            single_engine.query(query, graph=single_graph)
        engine = ReliabilityEngine(EstimatorConfig(samples=60, rng=5))
        engine.query_many(queries, graph=small_graph())
        assert engine.stats == single_engine.stats

    def test_queries_served_counts_batch_and_single_queries(self):
        engine = fresh_engine()
        engine.query_many(mixed_workload()[:4])
        engine.query(KTerminalQuery(terminals=(0, 5)))
        assert engine.stats.queries_served == 5


# ----------------------------------------------------------------------
# Plain values and the parity checksum
# ----------------------------------------------------------------------
class TestResultValues:
    @pytest.mark.parametrize("query", mixed_workload(repeats=1))
    def test_queries_round_trip(self, query):
        assert pickle.loads(pickle.dumps(query)) == query

    def test_config_round_trips(self):
        config = EstimatorConfig(
            backend="sampling", samples=123, estimator="ht", edge_ordering="dfs"
        )
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config

    def test_results_round_trip(self):
        results = fresh_engine().query_many(mixed_workload(repeats=1))
        restored = [pickle.loads(pickle.dumps(result)) for result in results]
        assert canonical(restored) == canonical(results)

    def test_timing_fields_are_the_only_stripped_content(self):
        result = fresh_engine("s2bdd").query(KTerminalQuery(terminals=(0, 5)))
        stripped = strip_timing(result.to_dict())
        assert "elapsed_seconds" not in stripped["estimate"]
        kept = set(result.to_dict()["estimate"]) - set(stripped["estimate"])
        assert kept == TIMING_FIELDS


class TestGoldenChecksums:
    """A fixed six-kind karate workload answers with pinned checksums.

    The ``sampling`` constant was recorded with ``results_checksum`` on the
    pre-kernel (dict-based) implementation, so matching it proves the
    compiled kernel is bit-identical to the old path.  The ``s2bdd``
    constant pins the stream *after* the ``spawn_rng`` determinism fix (the
    pre-kernel value mixed ``hash(label)`` into subproblem seeds and
    therefore changed with every ``PYTHONHASHSEED`` — there was no
    process-stable value to preserve); it must now reproduce in every
    process, forever.  At the default ``max_width`` the s2bdd workload
    covers both exact and width-capped constructions.
    """

    GOLDEN = {
        "sampling": "67cf432d7c2600024f07237c73167ac773ab5fca83dfcc5bcffdb464641c84ae",
        "s2bdd": "51b156d87b287de27f6dd47981bdb7410fb3422777e1e693b5bccbf27f51ce98",
    }

    @staticmethod
    def _workload():
        from repro.datasets import load_dataset
        from repro.experiments.workloads import generate_searches, queries_from_searches

        karate = load_dataset("karate")
        searches = generate_searches(karate, "karate", 3, 3, seed=2019)
        kinds = ("k-terminal", "threshold", "search", "top-k", "clustering", "subgraph")
        return karate, [
            query
            for kind in kinds
            for query in queries_from_searches(searches, kind, threshold=0.3)
        ]

    @pytest.mark.parametrize("backend", ["sampling", "s2bdd"])
    def test_six_kind_workload_checksums_match_pre_kernel(self, backend):
        graph, queries = self._workload()
        engine = ReliabilityEngine(
            EstimatorConfig(backend=backend, samples=300, rng=7)
        ).prepare(graph)
        assert results_checksum(engine.query_many(queries)) == self.GOLDEN[backend]

    def test_deprecated_workers_argument_keeps_the_golden_checksum(self):
        graph, queries = self._workload()
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=300, rng=7)
        ).prepare(graph)
        with pytest.warns(DeprecationWarning, match="workers"):
            results = engine.query_many(queries, workers=2)
        assert results_checksum(results) == self.GOLDEN["sampling"]
