"""Tests for the interned S²BDD construction and the constructed-diagram cache.

Four contracts, bottom up:

* the interned flat-array construction loop is **bit-identical** to the
  dict-keyed reference loop (``tests/reference/s2bdd_dict.py``) — on raw
  :class:`S2BDD` runs (exact and width-capped, MC and HT, and a frontier
  too wide for one-byte merge keys) and through the engine across all six
  query kinds — and a pinned digest holds the raw runs to the values the
  construction gave before the reference left the product,
* :meth:`S2BDD.resweep` over a replay-safe construction reproduces a
  from-scratch construction with the new probabilities bit-identically,
* :class:`DiagramCache` — content-addressed keys (``None`` for the
  ``random`` ordering), hit/re-sweep/miss outcomes, the LRU bound with
  eviction counting, and the ``enabled=False`` no-op mode,
* the engine wires it all together: repeated workloads answer from the
  cache with answers bit-identical to a cache-disabled engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.core.s2bdd import S2BDD
from repro.engine import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.engine.diagrams import DiagramCache, diagram_key
from repro.engine.engine import EngineStats
from repro.engine.queries import (
    ClusteringQuery,
    KTerminalQuery,
    ReliabilitySearchQuery,
    ReliableSubgraphQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
)
from repro.datasets import load_dataset
from repro.graph.uncertain_graph import UncertainGraph
from tests.conftest import make_random_graph, random_terminals
from tests.reference.s2bdd_dict import dict_construct


@pytest.fixture
def karate():
    return load_dataset("karate")

SIX_KINDS = [
    KTerminalQuery(terminals=(1, 34)),
    ThresholdQuery(terminals=(2, 30), threshold=0.4),
    ReliabilitySearchQuery(sources=(1,), threshold=0.5),
    TopKReliableVerticesQuery(sources=(5,), k=3),
    ReliableSubgraphQuery(query_vertices=(1, 3), threshold=0.9, max_size=5),
    ClusteringQuery(num_clusters=3),
]


def run_fields(result):
    """Every field of an :class:`S2BDDResult`, for bit-identity comparison."""
    return dataclasses.astuple(result)


def construct_fields(construction):
    """The value-bearing construction fields (the replay is path-specific)."""
    return (
        dataclasses.astuple(construction.bounds),
        construction.peak_width,
        construction.layers_processed,
        construction.deleted_mass,
        [dataclasses.astuple(stratum) for stratum in construction.strata],
    )


# ----------------------------------------------------------------------
# Interned construction vs. the dict-keyed reference
# ----------------------------------------------------------------------
ESTIMATORS = [EstimatorKind.MONTE_CARLO, EstimatorKind.HORVITZ_THOMPSON]

#: SHA-256 of ``construction_digest_fields(S2BDD.construct)``: every
#: width-capped (MC and HT) and exact parity case below, recorded while the
#: dict-keyed loop was still a selectable construction path (both paths
#: gave this value).
CONSTRUCTION_GOLDEN = "00e8434f1272c0a7eb35e76f6d7680bc7be4673b616b03e1e6eca84f2b40aaa9"


def width_capped_bdd(seed):
    graph = make_random_graph(seed, num_vertices=9, num_edges=16)
    return S2BDD(graph, random_terminals(graph, seed, 3), max_width=4, rng=seed)


def exact_bdd(seed):
    graph = make_random_graph(seed)
    return S2BDD(graph, random_terminals(graph, seed, 2 + seed % 3), rng=seed)


def capped_run(bdd, construct, estimator, samples=200):
    """Construct with ``construct`` and sample; both fields, for comparison."""
    construction = construct(bdd, samples)
    result = bdd.run(samples, estimator=estimator, construction=construction)
    return construct_fields(construction), run_fields(result)


def construction_digest_fields(construct):
    """The pinned fields of all 12 width-capped and 6 exact parity cases."""
    fields = [
        capped_run(width_capped_bdd(seed), construct, estimator)
        for estimator in ESTIMATORS
        for seed in range(6)
    ]
    fields += [construct_fields(construct(exact_bdd(seed), 0)) for seed in range(6)]
    return fields


def wide_frontier_bdd():
    """``a`` and ``b`` joined through 300 middle vertices (frontier > 253)."""
    edges = []
    for index in range(300):
        probability = 0.05 + (index % 6) * 0.01
        edges.append(("a", f"m{index}", probability))
        edges.append((f"m{index}", "b", probability))
    graph = UncertainGraph.from_edge_list(edges)
    return S2BDD(graph, ["a", "b"], max_width=8, stratum_mass_cutoff=1.0, rng=0)


class TestInternedParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_width_capped_runs_bit_identical(self, seed, estimator):
        interned = capped_run(width_capped_bdd(seed), S2BDD.construct, estimator)
        reference = capped_run(width_capped_bdd(seed), dict_construct, estimator)
        assert interned == reference

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_constructions_bit_identical(self, seed):
        interned = exact_bdd(seed).construct()
        reference = dict_construct(exact_bdd(seed))
        assert construct_fields(interned) == construct_fields(reference)

    def test_constructions_match_pinned_digest(self):
        fields = construction_digest_fields(S2BDD.construct)
        blob = json.dumps(fields, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == CONSTRUCTION_GOLDEN

    def test_frontier_too_wide_for_byte_keys(self):
        bdd = wide_frontier_bdd()
        assert bdd.plan.max_frontier_size() > 253
        construction = bdd.construct(200)
        result = bdd.run(200, construction=construction)
        reference = capped_run(
            wide_frontier_bdd(), dict_construct, EstimatorKind.MONTE_CARLO
        )
        assert (construct_fields(construction), run_fields(result)) == reference
        assert not result.exact
        assert result.lower_bound <= result.reliability <= result.upper_bound

    @pytest.mark.parametrize("backend_interned", [True, False])
    def test_engine_six_kinds_one_checksum_class(
        self, karate, backend_interned, monkeypatch
    ):
        """Both constructions land in the same golden-checksum class."""
        config = EstimatorConfig(backend="s2bdd", samples=150, rng=7)
        reference = ReliabilityEngine(config).prepare(karate)
        expected = reference.query_many(SIX_KINDS, seed_indices=[0] * len(SIX_KINDS))
        if not backend_interned:
            monkeypatch.setattr(S2BDD, "construct", dict_construct)
        engine = ReliabilityEngine(config.replace(s2bdd_cache=False)).prepare(karate)
        results = engine.query_many(SIX_KINDS, seed_indices=[0] * len(SIX_KINDS))
        assert results_checksum(results) == results_checksum(expected)


# ----------------------------------------------------------------------
# Re-sweep: new probabilities over a cached arc structure
# ----------------------------------------------------------------------
class TestResweep:
    def replay_safe_pair(self, seed):
        """A replay-safe construction plus its graph and terminals."""
        graph = make_random_graph(seed)
        terminals = random_terminals(graph, seed, 2)
        bdd = S2BDD(graph, terminals, rng=seed)
        construction = bdd.construct()
        assert construction.replay_safe
        return graph, terminals, bdd, construction

    @pytest.mark.parametrize("seed", range(4))
    def test_resweep_matches_fresh_construction(self, seed):
        graph, terminals, bdd, construction = self.replay_safe_pair(seed)
        new_probability = {
            edge.id: 0.05 + ((edge.id * 37 + seed) % 90) / 100.0
            for edge in graph.edges()
        }
        probabilities = [new_probability[edge.id] for edge in bdd.plan.edges]
        reswept = bdd.resweep(construction, probabilities)

        # Rebuild the graph in its ORIGINAL insertion order (a plan-order
        # rebuild would change the fresh plan and break the comparison).
        rebuilt = UncertainGraph.from_edge_list(
            [(edge.u, edge.v, new_probability[edge.id]) for edge in graph.edges()]
        )
        fresh = S2BDD(rebuilt, terminals, rng=seed).construct()
        assert construct_fields(reswept) == construct_fields(fresh)
        assert reswept.replay_safe

    def test_resweep_rejects_unsafe_construction(self):
        graph = make_random_graph(1, num_vertices=9, num_edges=16)
        terminals = random_terminals(graph, 1, 3)
        bdd = S2BDD(graph, terminals, max_width=4, rng=1)
        construction = bdd.construct()
        assert not construction.replay_safe
        with pytest.raises(ValueError):
            bdd.resweep(construction, [0.5] * len(bdd.plan.edges))

    def test_resweep_rejects_wrong_length(self):
        _, _, bdd, construction = self.replay_safe_pair(0)
        with pytest.raises(ValueError):
            bdd.resweep(construction, [0.5])

    def test_resweep_rejects_boundary_probability(self):
        _, _, bdd, construction = self.replay_safe_pair(0)
        probabilities = [0.5] * len(bdd.plan.edges)
        probabilities[0] = 1.0
        with pytest.raises(ValueError):
            bdd.resweep(construction, probabilities)


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def entry_for(seed, probability_bump=0.0):
    """A (key, bdd, construction, graph) tuple for one small construction."""
    graph = make_random_graph(seed)
    if probability_bump:
        for edge in list(graph.edges()):
            graph.set_probability(edge.id, min(0.95, edge.probability + probability_bump))
    terminals = random_terminals(graph, seed, 2)
    config = EstimatorConfig(backend="s2bdd", samples=100, rng=seed)
    bdd = S2BDD(graph, terminals, rng=seed)
    construction = bdd.construct()
    key = diagram_key(graph, terminals, config)
    return key, bdd, construction, graph


class TestDiagramCache:
    def test_key_is_none_for_random_ordering(self, karate):
        config = EstimatorConfig(
            backend="s2bdd", samples=100, rng=7, edge_ordering=EdgeOrdering.RANDOM
        )
        assert diagram_key(karate, (1, 34), config) is None

    def test_key_covers_construction_config(self, karate):
        base = EstimatorConfig(backend="s2bdd", samples=100, rng=7)
        key = diagram_key(karate, (1, 34), base)
        assert key == diagram_key(karate, (1, 34), base)
        assert key != diagram_key(karate, (1, 33), base)
        assert key != diagram_key(karate, (1, 34), base.replace(max_width=64))
        assert key != diagram_key(karate, (1, 34), base.replace(samples=200))
        # The seed is NOT part of the key: constructions are rng-free for
        # deterministic orderings.
        assert key == diagram_key(karate, (1, 34), base.replace(rng=8))

    def test_hit_returns_stored_objects(self):
        key, bdd, construction, graph = entry_for(0)
        stats = EngineStats()
        cache = DiagramCache(stats=stats)
        assert cache.lookup(key, graph, owner=1) is None
        cache.store(key, bdd, construction, graph, owner=1)
        hit = cache.lookup(key, graph, owner=1)
        assert hit is not None and hit[0] is bdd and hit[1] is construction
        assert stats.s2bdd_cache_hits == 1
        assert stats.s2bdd_resweeps == 0

    def test_changed_probabilities_resweep_in_place(self):
        key, bdd, construction, graph = entry_for(0)
        stats = EngineStats()
        cache = DiagramCache(stats=stats)
        cache.store(key, bdd, construction, graph, owner=1)
        for edge in list(graph.edges()):
            graph.set_probability(edge.id, 0.5)
        reswept = cache.lookup(key, graph, owner=1)
        assert reswept is not None and reswept[1] is not construction
        assert stats.s2bdd_resweeps == 1
        # Same probabilities again: the updated entry is now a direct hit.
        again = cache.lookup(key, graph, owner=1)
        assert again is not None and again[1] is reswept[1]
        assert stats.s2bdd_cache_hits == 1

    def test_lru_bound_counts_evictions(self):
        stats = EngineStats()
        cache = DiagramCache(max_entries=2, stats=stats)
        entries = [entry_for(seed) for seed in range(3)]
        for owner, (key, bdd, construction, graph) in enumerate(entries):
            cache.store(key, bdd, construction, graph, owner=owner)
        assert len(cache) == 2
        assert stats.s2bdd_cache_evictions == 1
        # Oldest entry is gone; the two youngest survive.
        assert cache.lookup(entries[0][0], entries[0][3], owner=0) is None
        assert cache.lookup(entries[2][0], entries[2][3], owner=2) is not None

    def test_invalidate_owner_scopes_eviction(self):
        stats = EngineStats()
        cache = DiagramCache(stats=stats)
        first = entry_for(0)
        second = entry_for(1)
        cache.store(first[0], first[1], first[2], first[3], owner=10)
        cache.store(second[0], second[1], second[2], second[3], owner=20)
        assert cache.invalidate_owner(10) == 1
        assert len(cache) == 1
        assert stats.s2bdd_cache_evictions == 1
        assert cache.lookup(second[0], second[3], owner=20) is not None
        assert cache.clear() == 1
        assert stats.s2bdd_cache_evictions == 2

    def test_disabled_cache_is_a_noop(self):
        key, bdd, construction, graph = entry_for(0)
        stats = EngineStats()
        cache = DiagramCache(enabled=False, stats=stats)
        cache.store(key, bdd, construction, graph, owner=1)
        assert len(cache) == 0
        assert cache.lookup(key, graph, owner=1) is None
        cache.note_built()
        assert stats.s2bdds_built == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(Exception):
            DiagramCache(max_entries=0)


# ----------------------------------------------------------------------
# Engine integration: cached answers are bit-identical to fresh ones
# ----------------------------------------------------------------------
class TestEngineDiagramReuse:
    def test_repeated_workload_hits_cache_bit_identically(self, karate):
        queries = SIX_KINDS
        pinned = list(range(len(queries)))
        cached_engine = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=150, rng=7)
        ).prepare(karate)
        first = cached_engine.query_many(queries)
        built = cached_engine.stats.s2bdds_built
        assert built > 0
        second = cached_engine.query_many(queries, seed_indices=pinned)
        assert cached_engine.stats.s2bdd_cache_hits > 0
        assert cached_engine.stats.s2bdds_built == built
        assert results_checksum(second) == results_checksum(first)

        uncached_engine = ReliabilityEngine(
            EstimatorConfig(
                backend="s2bdd", samples=150, rng=7, s2bdd_cache=False
            )
        ).prepare(karate)
        plain = uncached_engine.query_many(queries)
        assert uncached_engine.stats.s2bdd_cache_hits == 0
        assert uncached_engine.stats.s2bdds_built > built
        assert results_checksum(plain) == results_checksum(first)

    def test_cache_disabled_engine_reports_enabled_false(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=100, rng=7, s2bdd_cache=False)
        ).prepare(karate)
        assert engine.diagram_cache is not None
        assert not engine.diagram_cache.enabled

    def test_sampling_backend_has_no_diagram_cache(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=100, rng=7)
        ).prepare(karate)
        assert engine.diagram_cache is None

    def test_reset_cache_clears_diagrams(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="s2bdd", samples=100, rng=7)
        ).prepare(karate)
        engine.query(KTerminalQuery(terminals=(1, 34)))
        assert len(engine.diagram_cache) > 0
        engine.reset_cache()
        assert len(engine.diagram_cache) == 0
        assert engine.stats.s2bdd_cache_evictions > 0
