"""Tests for the compiled graph kernel (repro.graph.compiled).

Three families of guarantees:

* **Round trip** — the compiled form is a faithful int-interned view of the
  graph (vertices, edges, probabilities, CSR adjacency).
* **Equivalence** — bitmask connectivity and component labelling agree
  with the dict-based reference implementations on arbitrary inputs.
* **Parity** — the batched world sampler draws the same uniforms in the
  same order as the pre-kernel implementation and produces bit-identical
  labellings, so every fixed-seed result in the library is unchanged.  The
  reference implementations embedded here are verbatim copies of the
  pre-kernel code paths.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sampling import SamplingEstimator
from repro.core.estimators import EstimatorKind
from repro.engine.worlds import WorldPool, chunk_seed, chunk_spans
from repro.graph.compiled import (
    CompiledGraph,
    compile_graph,
    compiled_fingerprint,
    is_compiled_cached,
)
from repro.graph.connectivity import connected_components, terminals_connected
from repro.graph.generators import random_connected_graph
from repro.graph.possible_world import (
    world_log_probability,
    world_probability,
)
from repro.utils.union_find import UnionFind
from tests.conftest import uncertain_graphs


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def edge_subset_strategy(graph):
    ids = list(graph.edge_ids())
    return st.sets(st.sampled_from(ids)) if ids else st.just(set())


# ----------------------------------------------------------------------
# Reference implementations (verbatim pre-kernel code paths)
# ----------------------------------------------------------------------
def reference_sample_labels(graph, count, generator):
    """The pre-kernel ``_WorldSampler.sample`` loop, copied verbatim."""
    vertices = list(graph.vertices())
    index = {vertex: position for position, vertex in enumerate(vertices)}
    draws = [
        (index[edge.u], index[edge.v], edge.probability)
        for edge in graph.edges()
        if not edge.is_loop()
    ]
    n = len(vertices)
    worlds = []
    for _ in range(count):
        parent = list(range(n))
        for u, v, probability in draws:
            if generator.random() < probability:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[u] = v
        labels = []
        for i in range(n):
            root = i
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            labels.append(root)
        worlds.append(tuple(labels))
    return worlds


def reference_sampling_estimate(graph, terminals, samples, rng):
    """The pre-kernel dict-based ``SamplingEstimator`` Monte Carlo loop."""
    terminals = graph.validate_terminals(terminals)
    edges = list(graph.edges())
    positive = 0
    for _ in range(samples):
        union_find = UnionFind()
        for terminal in terminals:
            union_find.add(terminal)
        for edge in edges:
            if rng.random() < edge.probability and edge.u != edge.v:
                union_find.union(edge.u, edge.v)
        if union_find.same_component(terminals):
            positive += 1
    return positive / samples


def canonical_partition(labels):
    """Relabel a component labelling to first-appearance order."""
    relabel = {}
    return tuple(relabel.setdefault(label, len(relabel)) for label in labels)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestCompiledGraphRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(uncertain_graphs())
    def test_vertex_and_edge_interning_round_trips(self, graph):
        compiled = CompiledGraph(graph)
        assert list(compiled.vertices) == list(graph.vertices())
        for position, vertex in enumerate(compiled.vertices):
            assert compiled.vertex_index[vertex] == position
        assert list(compiled.edge_ids) == [edge.id for edge in graph.edges()]
        for position, edge in enumerate(graph.edges()):
            assert compiled.edge_index[edge.id] == position
            assert compiled.vertices[compiled.edge_u[position]] == edge.u
            assert compiled.vertices[compiled.edge_v[position]] == edge.v
            assert compiled.edge_probability[position] == edge.probability

    @settings(max_examples=60, deadline=None)
    @given(uncertain_graphs())
    def test_csr_covers_every_nonloop_edge_twice(self, graph):
        compiled = CompiledGraph(graph)
        incident = {}
        for slot in range(compiled.csr_indptr[compiled.num_vertices]):
            incident.setdefault(compiled.csr_edges[slot], []).append(slot)
        nonloop = [
            position
            for position, edge in enumerate(graph.edges())
            if not edge.is_loop()
        ]
        assert sorted(incident) == nonloop
        assert all(len(slots) == 2 for slots in incident.values())
        # Slot ranges attribute each entry to the right vertex.
        for x in range(compiled.num_vertices):
            for slot in range(compiled.csr_indptr[x], compiled.csr_indptr[x + 1]):
                position = compiled.csr_edges[slot]
                endpoints = {compiled.edge_u[position], compiled.edge_v[position]}
                assert x in endpoints
                assert compiled.csr_vertices[slot] in endpoints

    def test_compile_cache_hits_and_invalidation(self):
        graph = random_connected_graph(6, 9, rng=0)
        compiled = compile_graph(graph)
        assert compile_graph(graph) is compiled
        assert is_compiled_cached(graph)
        graph.set_probability(0, 0.123)
        assert not is_compiled_cached(graph)
        recompiled = compile_graph(graph)
        assert recompiled is not compiled
        assert compiled_fingerprint(graph)[:3] == graph.topology_fingerprint()


# ----------------------------------------------------------------------
# Bitset worlds
# ----------------------------------------------------------------------
class TestBitsetWorlds:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mask_connectivity_matches_terminals_connected(self, data):
        graph = data.draw(uncertain_graphs())
        existing = data.draw(edge_subset_strategy(graph))
        vertices = list(graph.vertices())
        terminals = data.draw(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True)
        )
        compiled = compile_graph(graph)
        mask = compiled.mask_from_edge_ids(existing)
        expected = terminals_connected(graph, terminals, edge_ids=existing)
        targets = compiled.vertex_indices(terminals)
        assert compiled.connected_in_mask(mask, targets) == expected
        assert compiled.connected_with_flags(
            compiled.flags_from_mask(mask), targets
        ) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mask_round_trips_edge_ids(self, data):
        graph = data.draw(uncertain_graphs())
        existing = data.draw(edge_subset_strategy(graph))
        compiled = compile_graph(graph)
        mask = compiled.mask_from_edge_ids(existing)
        assert set(compiled.edge_ids_in_mask(mask)) == set(existing)
        assert compiled.mask_from_flags(compiled.flags_from_mask(mask)) == mask

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_component_labels_match_connected_components(self, data):
        graph = data.draw(uncertain_graphs())
        existing = data.draw(edge_subset_strategy(graph))
        compiled = compile_graph(graph)
        labels = compiled.component_labels_in_mask(
            compiled.mask_from_edge_ids(existing)
        )
        components = {
            frozenset(component)
            for component in connected_components(graph, edge_ids=existing)
        }
        by_label = {}
        for vertex, label in zip(compiled.vertices, labels):
            by_label.setdefault(label, set()).add(vertex)
        assert {frozenset(members) for members in by_label.values()} == components

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_world_probability_accepts_every_world_form(self, data):
        graph = data.draw(uncertain_graphs())
        existing = data.draw(edge_subset_strategy(graph))
        # The possible-world bitmask contract is indexed by edge *id*
        # (CompiledGraph masks are by position; equal here only because
        # ids are the default contiguous insertion ids).
        mask = sum(1 << edge_id for edge_id in existing)
        as_list = world_probability(graph, list(existing))
        assert world_probability(graph, frozenset(existing)) == as_list
        assert world_probability(graph, mask) == as_list
        log_list = world_log_probability(graph, list(existing))
        assert world_log_probability(graph, frozenset(existing)) == log_list
        assert world_log_probability(graph, mask) == log_list

    def test_sampled_mask_matches_component_labels(self):
        graph = random_connected_graph(7, 12, rng=3)
        compiled = compile_graph(graph)
        rng_mask = random.Random(5)
        mask = compiled.sample_edge_mask(rng_mask)
        labels = compiled.component_labels_in_mask(mask)
        ids = set(compiled.edge_ids_in_mask(mask))
        for component in connected_components(graph, edge_ids=ids):
            roots = {labels[compiled.vertex_index[v]] for v in component}
            assert len(roots) == 1


# ----------------------------------------------------------------------
# Parity with the pre-kernel implementations
# ----------------------------------------------------------------------
class TestSamplerParity:
    @settings(max_examples=25, deadline=None)
    @given(uncertain_graphs(max_vertices=7, max_edges=12), st.integers(0, 2**32 - 1))
    def test_batched_labels_bit_identical_to_pre_kernel_sampler(self, graph, seed):
        compiled = compile_graph(graph)
        kernel = compiled.sample_component_labels(20, random.Random(seed))
        reference = reference_sample_labels(graph, 20, random.Random(seed))
        assert kernel == reference

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sampling_estimator_matches_dict_reference(self, seed):
        graph = random_connected_graph(8, 14, rng=1)
        estimator = SamplingEstimator(samples=200, rng=seed)
        result = estimator.estimate(graph, (0, 5, 7))
        reference = reference_sampling_estimate(
            graph, (0, 5, 7), 200, random.Random(seed)
        )
        assert result.reliability == reference

    def test_ht_estimator_unchanged_by_kernel(self):
        graph = random_connected_graph(7, 11, rng=2)
        a = SamplingEstimator(
            samples=300, estimator=EstimatorKind.HORVITZ_THOMPSON, rng=17
        ).estimate(graph, (0, 6))
        b = SamplingEstimator(
            samples=300, estimator=EstimatorKind.HORVITZ_THOMPSON, rng=17
        ).estimate(graph, (0, 6))
        assert a.reliability == b.reliability
        assert 0.0 <= a.reliability <= 1.0

    def test_world_pool_scans_match_row_reference(self):
        graph = random_connected_graph(10, 18, rng=4)
        pool = WorldPool(graph, samples=150, rng=11)
        rows = pool.labels
        index = {vertex: i for i, vertex in enumerate(graph.vertices())}
        # Reference: the pre-kernel row-major scans.
        ia, ib, ic = index[0], index[4], index[9]
        expected_pair = sum(1 for row in rows if row[ia] == row[ib]) / len(rows)
        assert pool.pair_connectivity(0, 4) == expected_pair
        expected_triple = sum(
            1 for row in rows if row[ia] == row[ib] == row[ic]
        ) / len(rows)
        assert pool.connectivity_frequency((0, 4, 9)) == expected_triple
        counts = [0] * len(index)
        for row in rows:
            root = row[ia]
            if row[ib] != root:
                continue
            for position, label in enumerate(row):
                if label == root:
                    counts[position] += 1
        expected_reach = {
            vertex: counts[position] / len(rows)
            for vertex, position in index.items()
        }
        assert pool.reachability_frequencies((0, 4)) == expected_reach

    def test_chunked_scheme_bit_identical_to_pre_kernel(self):
        graph = random_connected_graph(9, 16, rng=6)
        reference = [
            labelling
            for index, count in chunk_spans(600)
            for labelling in reference_sample_labels(
                graph, count, random.Random(chunk_seed(33, index))
            )
        ]
        assert WorldPool.from_seed(graph, samples=600, seed=33).labels == reference

    def test_partition_equivalent_to_dict_union_find_sampler(self):
        """Representatives aside, the kernel's partitions are the dict path's."""
        graph = random_connected_graph(8, 13, rng=8)
        compiled = compile_graph(graph)
        kernel_worlds = compiled.sample_component_labels(25, random.Random(3))
        generator = random.Random(3)
        vertices = list(graph.vertices())
        for labels in kernel_worlds:
            union_find = UnionFind(vertices)
            for edge in graph.edges():
                if not edge.is_loop() and generator.random() < edge.probability:
                    union_find.union(edge.u, edge.v)
            reference = tuple(
                compiled.vertex_index[union_find.find(vertex)] for vertex in vertices
            )
            assert canonical_partition(labels) == canonical_partition(reference)
