"""Tests for the interned S²BDD construction and the constructed-diagram cache.

Five contracts, bottom up:

* the interned flat-array construction loop is **bit-identical** to the
  dict-keyed reference loop (``tests/reference/s2bdd_dict.py``) — on raw
  :class:`S2BDD` runs (exact and width-capped, MC and HT, and a frontier
  too wide for one-byte merge keys) and through the engine across all six
  query kinds — and a pinned digest holds the raw runs to the values the
  construction gave before the reference left the product,
* a construction keeps its strata in a :class:`StrataTable` — a constant
  number of flat columns, widened past one byte when a label or a
  terminal count needs it — that reads back as the reference's list,
* :meth:`S2BDD.resweep` over a replay-safe construction reproduces a
  from-scratch construction with the new probabilities bit-identically,
* :class:`DiagramCache` — content-addressed keys (``None`` for the
  ``random`` ordering), hit/re-sweep/miss outcomes, the LRU bound with
  eviction counting, and the ``enabled=False`` no-op mode,
* the engine wires it all together: repeated workloads answer from the
  cache with answers bit-identical to a cache-disabled engine, a
  probability delta re-sweeps cached diagrams and a topology delta evicts
  them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import sys
import threading
from array import array

import pytest

from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.core.s2bdd import S2BDD, StrataTable
from repro.engine import (
    AddEdge,
    EstimatorConfig,
    GraphDelta,
    ReliabilityEngine,
    SetEdgeProbability,
    results_checksum,
)
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
from repro.experiments.workloads import generate_searches, queries_from_searches
from repro.graph.uncertain_graph import UncertainGraph
from repro.preprocess.pipeline import preprocess
from tests.conftest import make_random_graph, random_terminals
from tests.reference.s2bdd_completion import dict_sample_completion
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
# The strata table: flat columns behind a read-only Sequence[Stratum]
# ----------------------------------------------------------------------
def ladder_bdd():
    """A 2×150 ladder with every vertex a terminal (k = 300), width 2."""
    edges = []
    for index in range(150):
        edges.append((("top", index), ("bottom", index), 0.97))
        if index + 1 < 150:
            edges.append((("top", index), ("top", index + 1), 0.97))
            edges.append((("bottom", index), ("bottom", index + 1), 0.97))
    graph = UncertainGraph.from_edge_list(edges)
    return S2BDD(
        graph, sorted(graph.vertices()), max_width=2, stratum_mass_cutoff=1.0, rng=0
    )


class TestStrataTable:
    def test_strata_live_in_a_constant_number_of_columns(self, karate):
        small = S2BDD(karate, [1, 10, 20], max_width=4, rng=3).construct().strata
        strata = S2BDD(karate, [1, 10, 20], max_width=64, rng=3).construct().strata
        assert len(strata) >= 500 > len(small) > 0
        referents = gc.get_referents(strata)
        assert len(referents) == len(gc.get_referents(small)) <= 8
        columns = [column for column in referents if isinstance(column, array)]
        assert sum(sys.getsizeof(column) for column in columns) <= 64 * len(strata)

    def test_sequence_contract(self):
        bdd = width_capped_bdd(0)
        strata = bdd.construct(200).strata
        reference = dict_construct(width_capped_bdd(0), 200).strata
        assert len(strata) == len(reference) > 1
        assert strata
        assert not exact_bdd(0).construct().strata
        assert list(strata) == reference
        assert strata[-1] == reference[-1]
        assert strata[-len(strata)] == reference[0]
        with pytest.raises(IndexError):
            strata[len(strata)]
        with pytest.raises(IndexError):
            strata[-len(strata) - 1]
        assert isinstance(strata[1::2], StrataTable)
        assert list(strata[1::2]) == reference[1::2]

    def test_more_than_255_terminals_match_dict_reference(self):
        bdd = ladder_bdd()
        construction = bdd.construct(200)
        result = bdd.run(200, construction=construction)
        assert max(max(row.terminal_counts) for row in construction.strata) > 255
        reference = capped_run(ladder_bdd(), dict_construct, EstimatorKind.MONTE_CARLO)
        assert (construct_fields(construction), run_fields(result)) == reference
        assert not result.exact


# ----------------------------------------------------------------------
# Stratum completions vs. the dict-based reference sampler
# ----------------------------------------------------------------------
def karate_capped_bdd():
    return S2BDD(load_dataset("karate"), [1, 10, 20], max_width=16, rng=3)


def tokyo_subproblem_bdd():
    graph = load_dataset("tokyo")
    vertices = sorted(graph.vertices(), key=repr)
    terminals = [vertices[0], vertices[len(vertices) // 3], vertices[-1]]
    (subproblem,) = preprocess(graph, terminals).subproblems
    return S2BDD(subproblem.graph, subproblem.terminals, max_width=16, rng=1)


def self_loop_bdd():
    graph = make_random_graph(2, num_vertices=9, num_edges=16)
    for vertex in sorted(graph.vertices())[::2]:
        graph.add_edge(vertex, vertex, 0.6)
    return S2BDD(graph, random_terminals(graph, 2, 3), max_width=4, rng=2)


COMPLETION_CASES = {
    "karate-w16": karate_capped_bdd,
    "tokyo-subproblem": tokyo_subproblem_bdd,
    "self-loops": self_loop_bdd,
    "wide-frontier": wide_frontier_bdd,
}


class TestCompletionParity:
    @pytest.mark.parametrize("track_world", [False, True])
    @pytest.mark.parametrize("case", sorted(COMPLETION_CASES))
    def test_kernel_matches_dict_reference(self, case, track_world):
        bdd = COMPLETION_CASES[case]()
        strata = bdd.construct(200).strata
        assert strata
        for index, stratum in enumerate(strata[:: max(1, len(strata) // 100)]):
            kernel_rng = random.Random(index)
            reference_rng = random.Random(index)
            kernel = bdd._sample_completion(
                stratum, kernel_rng, track_world=track_world
            )
            reference = dict_sample_completion(
                bdd, stratum, reference_rng, track_world=track_world
            )
            assert kernel == reference
            assert kernel_rng.getstate() == reference_rng.getstate()

    def test_self_loops_remain_after_strata(self):
        bdd = self_loop_bdd()
        strata = bdd.construct(200).strata
        assert all(
            any(edge.u == edge.v for edge in bdd.plan.edges[stratum.layer :])
            for stratum in strata
        )


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


def search_queries(graph, dataset, kinds):
    """One 3-terminal search of ``dataset`` as queries of each of ``kinds``."""
    searches = generate_searches(graph, dataset, 3, 1, seed=2019)
    return [
        query
        for kind in kinds
        for query in queries_from_searches(searches, kind, threshold=0.3)
    ]


class TestDiagramCacheAcrossDeltas:
    """The diagram cache's dynamic-graph contract, through the engine."""

    def test_probability_delta_resweeps_and_topology_delta_evicts(self):
        # max_width=12000 keeps this workload's diagram exact with no
        # priority sort, i.e. replay-safe; edge 7 survives preprocessing
        # into the cached subproblem (edge 0 would be pruned away).
        graph = load_dataset("karate")
        config = EstimatorConfig(
            backend="s2bdd", samples=300, rng=7, max_width=12_000
        )
        engine = ReliabilityEngine(config).prepare(graph)
        queries = search_queries(graph, "karate", ("k-terminal", "threshold"))
        repeat = list(range(len(queries)))

        engine.query_many(queries)
        built = engine.stats.s2bdds_built
        engine.query_many(queries, seed_indices=repeat)
        assert engine.stats.s2bdd_cache_hits > 0, engine.stats
        assert engine.stats.s2bdds_built == built, "repeat pass rebuilt diagrams"

        delta = GraphDelta((SetEdgeProbability(7, 0.25),))
        outcome = engine.apply_delta(delta)
        assert outcome.incremental, outcome
        assert outcome.diagrams_evicted == 0, outcome
        updated = engine.query_many(queries, seed_indices=repeat)
        assert engine.stats.s2bdd_resweeps > 0, engine.stats
        assert engine.stats.s2bdds_built == built, "probability delta rebuilt"

        mutated = graph.copy()
        delta.apply_to(mutated)
        fresh = ReliabilityEngine(config).prepare(mutated)
        expected = fresh.query_many(queries, seed_indices=repeat)
        assert results_checksum(updated) == results_checksum(expected), (
            "re-swept diagrams diverge from a fresh engine"
        )

        vertices = list(graph.vertices())
        topo = GraphDelta((AddEdge(vertices[0], vertices[-1], 0.5),))
        outcome = engine.apply_delta(topo)
        assert outcome.diagrams_evicted > 0, outcome

    def test_default_width_repeat_hits_strata_of_a_fresh_construction(
        self, monkeypatch
    ):
        """At the default width tokyo's diagram is width-capped: the repeat
        pass answers from the cached strata, equal to a rebuilt diagram's."""
        graph = load_dataset("tokyo")
        config = EstimatorConfig(backend="s2bdd", samples=300, rng=7)
        engine = ReliabilityEngine(config).prepare(graph)
        queries = search_queries(graph, "tokyo", ("k-terminal",))
        engine.query_many(queries)
        built = engine.stats.s2bdds_built

        served = []
        run = S2BDD.run

        def recording_run(bdd, samples, **kwargs):
            served.append((bdd, kwargs["construction"]))
            return run(bdd, samples, **kwargs)

        monkeypatch.setattr(S2BDD, "run", recording_run)
        engine.query_many(queries, seed_indices=list(range(len(queries))))
        assert engine.stats.s2bdd_cache_hits == len(served) > 0
        assert engine.stats.s2bdds_built == built
        for bdd, construction in served:
            fresh = bdd.construct(config.samples)
            assert len(construction.strata) > 500
            assert construct_fields(construction) == construct_fields(fresh)


class TestConcurrentQueries:
    """Threads sharing one engine's cached diagrams answer like one thread."""

    TERMINAL_SETS = [(1, 10, 20), (2, 17, 30), (5, 25, 34)]

    @pytest.mark.parametrize("estimator", ["mc", "ht"])
    def test_cached_diagrams_answer_like_a_serial_engine(self, karate, estimator):
        config = EstimatorConfig(
            backend="s2bdd", samples=2000, max_width=16, rng=3, estimator=estimator
        )
        queries = [KTerminalQuery(terminals=terminals) for terminals in self.TERMINAL_SETS]
        serial = ReliabilityEngine(config).prepare(karate)
        expected = [
            results_checksum([serial.query(query, seed_index=0)]) for query in queries
        ]
        engine = ReliabilityEngine(config).prepare(karate)
        for query in queries:
            engine.query(query, seed_index=0)
        assert engine.stats.s2bdds_built == len(queries)
        wrong = []
        errors = []

        def worker(offset):
            try:
                for call in range(6):
                    index = (offset + call) % len(queries)
                    result = engine.query(queries[index], seed_index=0)
                    if results_checksum([result]) != expected[index]:
                        wrong.append(queries[index].terminals)
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        assert engine.stats.s2bdds_built == len(queries)
