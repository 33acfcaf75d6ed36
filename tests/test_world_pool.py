"""Tests for the shared possible-world pool (repro.engine.worlds)."""

from __future__ import annotations

import functools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_reliability
from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, ReliabilityEngine, WorldPool
from repro.engine.queries import (
    ClusteringQuery,
    KTerminalQuery,
    ReliabilitySearchQuery,
    TopKReliableVerticesQuery,
)
from repro.engine.worlds import chunk_seed, chunk_spans
from repro.exceptions import ConfigurationError, TerminalError
from repro.graph.generators import random_connected_graph
from repro.graph.uncertain_graph import UncertainGraph
from tests.reference.clustering_pairs import pairwise_execute
from tests.reference.world_pool_rows import (
    row_connectivity_frequency,
    row_pair_connectivity,
    row_reachability,
    row_threshold_scan,
)


@pytest.fixture
def graph() -> UncertainGraph:
    return random_connected_graph(12, 20, rng=3)


def make_engine(graph, **overrides) -> ReliabilityEngine:
    config = EstimatorConfig(samples=300, rng=5)
    if overrides:
        config = config.replace(**overrides)
    return ReliabilityEngine(config).prepare(graph)


class TestWorldPoolPrimitives:
    def test_frequencies_lie_in_unit_interval(self, graph):
        pool = WorldPool(graph, samples=200, rng=0)
        frequencies = pool.reachability_frequencies((0,))
        assert set(frequencies) == set(graph.vertices())
        assert all(0.0 <= value <= 1.0 for value in frequencies.values())
        assert frequencies[0] == 1.0  # a single source always reaches itself

    def test_single_terminal_is_trivially_connected(self, graph):
        pool = WorldPool(graph, samples=50, rng=0)
        assert pool.connectivity_frequency((0,)) == 1.0

    def test_pair_connectivity_matches_connectivity_frequency(self, graph):
        pool = WorldPool(graph, samples=200, rng=1)
        assert pool.pair_connectivity(0, 5) == pool.connectivity_frequency((0, 5))
        assert pool.pair_connectivity(4, 4) == 1.0

    def test_frequency_approximates_exact_reliability(self):
        graph = random_connected_graph(7, 10, rng=4)
        exact = brute_force_reliability(graph, (0, 5))
        pool = WorldPool(graph, samples=4_000, rng=9)
        assert pool.connectivity_frequency((0, 5)) == pytest.approx(exact, abs=0.05)

    def test_certain_edges_give_certain_connectivity(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 1.0), (1, 2, 1.0)])
        pool = WorldPool(graph, samples=25, rng=0)
        assert pool.connectivity_frequency((0, 2)) == 1.0

    def test_unknown_vertex_rejected(self, graph):
        pool = WorldPool(graph, samples=10, rng=0)
        with pytest.raises(TerminalError):
            pool.connectivity_frequency((0, "ghost"))

    def test_threshold_scan_full_vs_early(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.95), (1, 2, 0.95)])
        pool = WorldPool(graph, samples=1_000, rng=2)
        scan = pool.threshold_scan((0, 2), 0.5)
        assert scan.satisfied and scan.early_exit and scan.examined < 1_000
        # The decision agrees with the exhaustive frequency.
        frequency = pool.connectivity_frequency((0, 2))
        assert scan.satisfied == (frequency >= 0.5)
        impossible = pool.threshold_scan((0, 2), 1.0)
        assert impossible.satisfied == (frequency >= 1.0)


class TestDeterminism:
    def test_same_seed_same_worlds(self, graph):
        first = WorldPool(graph, samples=150, rng=21)
        second = WorldPool(graph, samples=150, rng=21)
        assert first.reachability_frequencies((0,)) == second.reachability_frequencies((0,))
        assert first.connectivity_frequency((1, 7)) == second.connectivity_frequency((1, 7))

    def test_engine_pool_deterministic_across_sessions(self, graph):
        first = make_engine(graph).world_pool()
        second = make_engine(graph).world_pool()
        assert first.seed == second.seed
        assert first.reachability_frequencies((0,)) == second.reachability_frequencies((0,))

    def test_engine_queries_deterministic_across_runs(self, graph):
        query = ReliabilitySearchQuery(sources=(0,), threshold=0.4)
        first = make_engine(graph).query(query)
        second = make_engine(graph).query(query)
        assert first.probabilities == second.probabilities


class TestEnginePoolCache:
    def test_queries_share_one_pool(self, graph):
        engine = make_engine(graph)
        engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.5))
        engine.query(TopKReliableVerticesQuery(sources=(1,), k=3))
        engine.query(ClusteringQuery(num_clusters=2))
        stats = engine.stats
        assert stats.world_pools_built == 1
        assert stats.world_pool_hits == 2
        assert stats.worlds_sampled == 300

    def test_distinct_sample_budgets_get_distinct_pools(self, graph):
        engine = make_engine(graph)
        engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.5, samples=100))
        engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.5, samples=200))
        assert engine.stats.world_pools_built == 2
        assert engine.stats.world_pool_hits == 0

    def test_explicit_rng_bypasses_cache(self, graph):
        engine = make_engine(graph)
        query = ReliabilitySearchQuery(sources=(0,), threshold=0.5)
        engine.query(query, rng=random.Random(1))
        engine.query(query, rng=random.Random(1))
        assert engine.stats.world_pools_built == 2
        assert engine.stats.world_pool_hits == 0

    def test_topology_change_invalidates_pool(self):
        graph = UncertainGraph.from_edge_list(
            [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]
        )
        engine = make_engine(graph)
        stale = engine.query(KTerminalQuery(terminals=(0, 3)))
        graph.add_edge(3, 0, 1.0)
        fresh = engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.1))
        assert engine.stats.world_pools_built >= 1
        # The new edge is certain, so 0 and 3 are now always connected.
        assert fresh.probability(3) == 1.0

    def test_probability_change_invalidates_pool(self):
        graph = UncertainGraph.from_edge_list([(0, 1, 0.5), (1, 2, 0.5)])
        engine = make_engine(graph, backend="sampling")
        engine.query(KTerminalQuery(terminals=(0, 1)))
        first_builds = engine.stats.world_pools_built
        graph.set_probability(0, 1.0)
        result = engine.query(KTerminalQuery(terminals=(0, 1)))
        assert engine.stats.world_pools_built == first_builds + 1
        assert result.reliability == 1.0

    def test_forget_drops_pools(self, graph):
        engine = make_engine(graph)
        engine.query(ClusteringQuery(num_clusters=2))
        engine.forget(graph)
        engine.prepare(graph)
        engine.query(ClusteringQuery(num_clusters=2))
        assert engine.stats.world_pools_built == 2

    def test_pool_cache_bounded(self, graph):
        engine = make_engine(graph)
        for samples in range(10, 40):
            engine.world_pool(samples=samples)
        # Only the newest pools are retained; re-requesting an evicted one
        # rebuilds it instead of growing without bound.
        engine.world_pool(samples=10)
        assert engine.stats.world_pools_built == 31

    def test_world_pool_requires_graph(self):
        engine = ReliabilityEngine(EstimatorConfig(samples=10))
        with pytest.raises(ConfigurationError):
            engine.world_pool()

    def test_invalid_samples_rejected(self, graph):
        engine = make_engine(graph)
        with pytest.raises(ConfigurationError):
            engine.world_pool(samples=0)


class TestCrossQueryConsistency:
    """Different query kinds answered from one pool agree with each other."""

    def test_search_vs_pooled_k_terminal(self, graph):
        engine = make_engine(graph, backend="sampling")
        search = engine.query(ReliabilitySearchQuery(sources=(3,), threshold=0.0))
        for vertex in (0, 5, 8):
            direct = engine.query(KTerminalQuery(terminals=(3, vertex)))
            assert direct.reliability == search.probability(vertex)
        assert engine.stats.world_pools_built == 1
        assert engine.stats.world_pool_hits >= 3

    def test_top_k_is_prefix_of_search_ranking(self, graph):
        engine = make_engine(graph)
        search = engine.query(ReliabilitySearchQuery(sources=(0,), threshold=0.0))
        top = engine.query(TopKReliableVerticesQuery(sources=(0,), k=4))
        expected = sorted(
            (
                (vertex, probability)
                for vertex, probability in search.probabilities.items()
                if vertex != 0
            ),
            key=lambda item: (-item[1], repr(item[0])),
        )[:4]
        assert list(top.ranking) == expected
        assert engine.stats.world_pool_hits >= 1

    def test_clustering_probabilities_come_from_the_pool(self, graph):
        engine = make_engine(graph)
        clustering = engine.query(ClusteringQuery(num_clusters=2))
        pool = engine.world_pool()
        for vertex, center in clustering.assignment.items():
            assert clustering.connection_probability[vertex] == pool.pair_connectivity(
                vertex, center
            )


class TestCompiledPathParity:
    """The compiled kernel preserves every fixed-seed pool contract.

    The checksum constants were recorded on the pre-kernel (dict-based)
    implementation immediately before ``repro.graph.compiled`` landed;
    matching them proves the kernel's pools are bit-identical.
    """

    #: SHA-256 over the JSON labels of ``WorldPool(karate, samples=500, rng=21)``.
    KARATE_LIVE_POOL_LABELS = (
        "1819814e7542fca71820c8b5e3a1cc4d05d5f0dfccf0d6b58e05dbb75ffe625b"
    )

    def test_live_rng_pool_labels_bit_identical_to_pre_kernel(self):
        import hashlib
        import json

        from repro.datasets import load_dataset

        pool = WorldPool(load_dataset("karate"), samples=500, rng=21)
        blob = json.dumps(pool.labels, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == self.KARATE_LIVE_POOL_LABELS

    def test_pool_exposes_its_compiled_graph(self, graph):
        from repro.graph.compiled import compile_graph

        pool = WorldPool(graph, samples=20, rng=0)
        assert pool.compiled is compile_graph(graph)
        assert pool.compiled.num_vertices == pool.num_vertices

    def test_empty_rest_and_reference_paths_agree(self, graph):
        # Single- and multi-source reachability take different scan paths
        # (plain column vs sentinel-masked reference); a source set whose
        # extra sources are always connected must agree with the single
        # source answer.
        certain = UncertainGraph.from_edge_list([(0, 1, 1.0), (1, 2, 0.5)])
        pool = WorldPool(certain, samples=64, rng=3)
        assert pool.reachability_frequencies((0, 1)) == pool.reachability_frequencies((0,))


class TestChunkedWorlds:
    """The seeded scheme: chunk ``j`` of pool ``seed`` depends on nothing else.

    This is what a pool seed *means*; every pinned checksum over pooled
    answers depends on it.
    """

    @staticmethod
    def small_graph():
        return random_connected_graph(14, 24, rng=3)

    def test_chunk_seed_deterministic_and_distinct(self):
        seeds = [chunk_seed(99, index) for index in range(50)]
        assert seeds == [chunk_seed(99, index) for index in range(50)]
        assert len(set(seeds)) == 50
        assert chunk_seed(99, 0) != chunk_seed(100, 0)
        with pytest.raises(ConfigurationError):
            chunk_seed(99, -1)

    def test_chunk_spans_cover_the_pool_in_order(self):
        spans = chunk_spans(600, 256)
        assert spans == [(0, 256), (1, 256), (2, 88)]
        assert sum(count for _, count in spans) == 600
        assert chunk_spans(256, 256) == [(0, 256)]
        with pytest.raises(ConfigurationError):
            chunk_spans(0)

    def test_from_seed_chunks_are_prefix_stable(self):
        """A bigger pool extends a smaller one; each chunk has its own seed."""
        from repro.graph.compiled import compile_graph

        graph = self.small_graph()
        full = WorldPool.from_seed(graph, samples=600, seed=42).labels
        assert WorldPool.from_seed(graph, samples=512, seed=42).labels == full[:512]
        assert WorldPool.from_seed(graph, samples=256, seed=42).labels == full[:256]
        tail = compile_graph(graph).sample_component_labels(
            88, random.Random(chunk_seed(42, 2))
        )
        assert full[512:] == tail

    def test_from_seed_deterministic_and_chunk_size_invariant_checks(self):
        graph = self.small_graph()
        first = WorldPool.from_seed(graph, samples=300, seed=7)
        second = WorldPool.from_seed(graph, samples=300, seed=7)
        assert first.labels == second.labels
        assert first.seed == 7
        assert WorldPool.from_seed(graph, samples=300, seed=8).labels != first.labels

    def test_engine_seeded_pool_uses_the_chunked_scheme(self):
        config = EstimatorConfig(backend="sampling", samples=250, max_width=128, rng=11)
        engine = ReliabilityEngine(config).prepare(self.small_graph())
        pool = engine.world_pool()
        reference = WorldPool.from_seed(
            self.small_graph(), samples=250, seed=engine.pool_seed()
        )
        assert pool.labels == reference.labels

    def test_live_rng_pools_keep_the_sequential_stream(self):
        """The historical analysis contract: one stream, edge order."""
        graph = self.small_graph()
        sequential = WorldPool(graph, samples=40, rng=random.Random(5))
        again = WorldPool(graph, samples=40, rng=random.Random(5))
        assert sequential.labels == again.labels
        # ...and it is intentionally a different scheme than from_seed.
        assert sequential.labels != WorldPool.from_seed(graph, samples=40, seed=5).labels


@functools.lru_cache(maxsize=None)
def path_graph(num_vertices: int) -> UncertainGraph:
    return UncertainGraph.from_edge_list(
        [(i, i + 1, 0.5) for i in range(num_vertices - 1)]
    )


def assert_scans_match_rows(pool, rows, pairs, triples, thresholds, source_sets):
    """Every pool answer equals the row-major reference exactly."""
    index = pool.compiled.vertex_index
    n = pool.num_vertices
    for a, b in pairs:
        assert pool.pair_connectivity(a, b) == row_pair_connectivity(rows, index[a], index[b])
    for terminals in list(pairs) + list(triples):
        positions = [index[v] for v in terminals]
        frequency = row_connectivity_frequency(rows, positions)
        assert pool.connectivity_frequency(terminals) == frequency
        for eta in list(thresholds) + [frequency, 0.0, 1.0]:
            assert tuple(pool.threshold_scan(terminals, eta)) == row_threshold_scan(
                rows, positions, eta
            )
    for sources in source_sets:
        expected = row_reachability(rows, [index[v] for v in sources], n)
        assert list(pool.reachability_frequencies(sources).values()) == expected


class TestPackedColumns:
    """Packed-column scans answer exactly what the row-major loops answer."""

    @settings(max_examples=15, deadline=None)
    @given(
        num_vertices=st.integers(min_value=250, max_value=262),
        num_worlds=st.sampled_from([1, 255, 256, 257, 1000]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        thresholds=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    )
    def test_scans_equal_the_row_reference(self, num_vertices, num_worlds, seed, thresholds):
        # Each world splits the vertices among a few component labels drawn
        # from [0, |V|); with |V| around 256 the labels use both unit bytes.
        rng = random.Random(seed)
        rows = []
        for _ in range(num_worlds):
            components = rng.sample(range(num_vertices), rng.randint(1, 4))
            rows.append(tuple(rng.choices(components, k=num_vertices)))
        graph = path_graph(num_vertices)
        pool = WorldPool.from_columns(graph, list(zip(*rows)), samples=num_worlds)
        assert pool.labels == rows
        vertices = list(graph.vertices())
        assert_scans_match_rows(
            pool,
            rows,
            pairs=[tuple(rng.sample(vertices, 2)) for _ in range(4)],
            triples=[tuple(rng.sample(vertices, 3)) for _ in range(3)],
            thresholds=thresholds,
            source_sets=[tuple(rng.sample(vertices, size)) for size in (1, 2, 3)],
        )

    def test_wide_units_above_65535_vertices(self):
        """A 65,536-vertex graph needs 4-byte units: label 65,535 is valid."""
        graph = path_graph(65_536)
        last = 65_535
        sampled = WorldPool(graph, samples=2, rng=4)
        assert sampled._width == 4
        assert sampled.labels == sampled.compiled.sample_component_labels(
            2, random.Random(4)
        )
        # World 0: every vertex alone (labels up to 0xFFFF); world 1: one
        # component labelled 0xFFFF, the 2-byte all-ones unit.
        built = WorldPool.from_columns(
            graph, [(v, last) for v in range(65_536)], samples=2
        )
        for pool in (sampled, built):
            assert_scans_match_rows(
                pool,
                pool.labels,
                pairs=[(0, last), (17, 18), (last - 1, last)],
                triples=[(0, 1, last)],
                thresholds=[0.5],
                source_sets=[(last,), (0, last), (5, 6, 7)],
            )
        assert built.reachability_frequencies((0, last))[last] == 0.5

    def test_from_columns_rejects_labels_outside_the_vertex_range(self):
        # On the path a-b-c, a -1 label collided with the multi-source
        # sentinel: c "reached" {a, b} in the world where a and b are apart.
        graph = UncertainGraph.from_edge_list([("a", "b", 0.5), ("b", "c", 0.5)])
        with pytest.raises(ConfigurationError, match="vertex 'c'"):
            WorldPool.from_columns(graph, [(0, 0), (0, 1), (-1, -1)], samples=2)
        with pytest.raises(ConfigurationError, match="vertex 'b'"):
            WorldPool.from_columns(graph, [(0, 0), (3, 1), (2, 2)], samples=2)
        with pytest.raises(ConfigurationError, match="vertex 'a'"):
            WorldPool.from_columns(graph, [(2**40, 0), (0, 1), (2, 2)], samples=2)
        with pytest.raises(ConfigurationError, match="vertex 'b'"):
            WorldPool.from_label_bytes(
                graph, struct.pack("<6i", 0, 0, 0, 3, 2, 2), samples=2
            )
        with pytest.raises(ConfigurationError, match="expected 3"):
            WorldPool.from_columns(graph, [(0, 0), (0, 1)], samples=2)
        pool = WorldPool.from_columns(graph, [(0, 0), (0, 1), (2, 2)], samples=2)
        assert pool.columns == [(0, 0), (0, 1), (2, 2)]
        assert pool.reachability_frequencies(("a", "b"))["c"] == 0.0

    def test_label_bytes_round_trip_through_columns(self, graph):
        pool = WorldPool.from_seed(graph, samples=300, seed=9)
        again = WorldPool.from_label_bytes(graph, pool.label_bytes(), samples=300, seed=9)
        assert again.labels == pool.labels
        assert again.reachability_frequencies((0, 3)) == pool.reachability_frequencies((0, 3))


class TestClusteringParity:
    """One reachability column per centre answers what pair scans answered."""

    @pytest.mark.parametrize("source", ["karate", "tokyo", 0, 1, 2])
    def test_clustering_matches_the_pairwise_reference(self, source, monkeypatch):
        if isinstance(source, str):
            graph = load_dataset(source)
        else:
            graph = random_connected_graph(40, 60, rng=source)
        engine = make_engine(graph)
        for num_clusters in range(1, 6):
            query = ClusteringQuery(num_clusters=num_clusters)
            product = engine.query(query, seed_index=0)
            with monkeypatch.context() as patch:
                patch.setattr(ClusteringQuery, "_execute", pairwise_execute)
                reference = engine.query(query, seed_index=0)
            assert product.centers == reference.centers
            assert product.assignment == reference.assignment
            assert product.connection_probability == reference.connection_probability

    def test_one_reachability_scan_per_centre(self, graph, monkeypatch):
        calls = []
        original = WorldPool.reachability_frequencies

        def counting(pool, sources):
            calls.append(tuple(sources))
            return original(pool, sources)

        monkeypatch.setattr(WorldPool, "reachability_frequencies", counting)
        engine = make_engine(graph)
        for num_clusters in (1, 3, 5):
            calls.clear()
            result = engine.query(ClusteringQuery(num_clusters=num_clusters))
            assert calls == [(center,) for center in result.centers]
