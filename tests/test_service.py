"""Tests of the query-serving subsystem (:mod:`repro.service`).

Covers the catalog, the result cache, single-flight coalescing,
the blocking service core (including its bit-exactness contract: a cached
answer equals a fresh deterministic-seed engine evaluation), the pinned
seed-index engine plumbing the service rides on, and the JSON/HTTP
front-end end to end — server + client on an ephemeral port, error
mapping, and 429 admission control.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.datasets import load_dataset
from repro.engine import (
    EstimatorConfig,
    ReliabilityEngine,
    SetEdgeProbability,
    results_checksum,
)
from repro.engine.queries import (
    KTerminalQuery,
    ReliabilitySearchQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
)
from repro.exceptions import ConfigurationError, TerminalError
from repro.service import (
    DatasetSource,
    GraphCatalog,
    ReliabilityService,
    ResultCache,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceServer,
    SharedResultStore,
    SingleFlight,
    cache_key,
    graph_fingerprint,
)


@pytest.fixture(scope="module")
def karate():
    return load_dataset("karate")


@pytest.fixture()
def config():
    return EstimatorConfig(backend="sampling", samples=200, rng=7)


@pytest.fixture()
def catalog(karate, config):
    cat = GraphCatalog(config)
    cat.register("karate", karate)
    return cat


# ----------------------------------------------------------------------
# Graph fingerprints and the catalog
# ----------------------------------------------------------------------
class TestGraphFingerprint:
    def test_identical_content_same_fingerprint(self, karate):
        assert graph_fingerprint(karate) == graph_fingerprint(load_dataset("karate"))

    def test_probability_change_changes_fingerprint(self, karate):
        copy = karate.copy()
        first_edge = next(iter(copy.edge_ids()))
        copy.set_probability(first_edge, 0.123)
        assert graph_fingerprint(copy) != graph_fingerprint(karate)

    def test_name_does_not_change_fingerprint(self, karate):
        renamed = karate.copy(name="renamed")
        assert graph_fingerprint(renamed) == graph_fingerprint(karate)


class TestGraphCatalog:
    def test_register_and_lookup(self, catalog, karate):
        entry = catalog.entry("karate")
        assert entry.graph is karate
        assert catalog.names() == ["karate"]
        assert entry.describe()["vertices"] == 34

    def test_reregistering_same_content_is_noop(self, catalog, karate):
        assert catalog.register("karate", load_dataset("karate")).fingerprint == (
            graph_fingerprint(karate)
        )

    def test_reregistering_different_content_raises(self, catalog, karate):
        other = karate.copy()
        other.set_probability(next(iter(other.edge_ids())), 0.01)
        with pytest.raises(ConfigurationError, match="different content"):
            catalog.register("karate", other)

    def test_unknown_name_is_actionable(self, catalog):
        with pytest.raises(ConfigurationError, match="registered graphs"):
            catalog.entry("nope")

    def test_one_engine_per_config_shared_across_calls(self, catalog):
        first = catalog.engine("karate")
        second = catalog.engine("karate")
        assert first is second
        assert first.stats.decompositions_computed == 1

    def test_unseeded_config_is_pinned_deterministically(self, karate):
        one = GraphCatalog(EstimatorConfig(backend="sampling", samples=100))
        two = GraphCatalog(EstimatorConfig(backend="sampling", samples=100))
        assert one.config.rng == two.config.rng
        assert one.config.fingerprint() == two.config.fingerprint()

    def test_live_random_config_is_rejected(self):
        import random

        with pytest.raises(ConfigurationError, match="int seed"):
            GraphCatalog(EstimatorConfig(rng=random.Random(1)))

    def test_register_dataset_and_unregister(self, config):
        cat = GraphCatalog(config)
        cat.register("karate", DatasetSource("karate"))
        cat.engine("karate")
        cat.unregister("karate")
        assert cat.names() == []

    def test_catalog_imports_its_backend_at_boot(self):
        # A fresh interpreter: this one imported the backends long ago.
        probe = (
            "import sys\n"
            "from repro.engine import EstimatorConfig\n"
            "from repro.service import GraphCatalog\n"
            "GraphCatalog(EstimatorConfig(backend='sampling'))\n"
            "print('repro.engine.backends' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "True"

    def test_engine_stats_exposed_per_config(self, catalog):
        engine = catalog.engine("karate")
        engine.query(KTerminalQuery(terminals=(1, 34)))
        stats = catalog.engine_stats()["karate"]
        (counters,) = stats.values()
        assert counters.queries_served == 1
        assert counters.world_pools_evicted == 0


# ----------------------------------------------------------------------
# The result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_and_stats(self):
        cache = ResultCache()
        key = cache_key("g", "q", "c")
        assert cache.get(key) is None
        assert cache.put(key, {"value": 1})
        assert cache.get(key) == {"value": 1}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert stats.current_bytes > 0

    def test_lru_eviction_by_entry_count(self):
        cache = ResultCache(max_entries=2)
        for index in range(3):
            cache.put(cache_key("g", str(index), "c"), {"value": index})
        assert cache.get(cache_key("g", "0", "c")) is None  # oldest evicted
        assert cache.get(cache_key("g", "2", "c")) == {"value": 2}
        assert cache.stats().evictions == 1

    def test_lru_order_updated_by_get(self):
        cache = ResultCache(max_entries=2)
        cache.put(cache_key("g", "a", "c"), {"value": "a"})
        cache.put(cache_key("g", "b", "c"), {"value": "b"})
        cache.get(cache_key("g", "a", "c"))  # refresh "a"
        cache.put(cache_key("g", "c", "c"), {"value": "c"})
        assert cache.get(cache_key("g", "b", "c")) is None
        assert cache.get(cache_key("g", "a", "c")) == {"value": "a"}

    def test_byte_budget_bounds_content(self):
        payload = {"blob": "x" * 100}
        size = ResultCache.payload_size(payload)
        cache = ResultCache(max_bytes=size * 2)
        for index in range(4):
            cache.put(cache_key("g", str(index), "c"), payload)
        assert cache.stats().current_bytes <= size * 2
        assert len(cache) == 2

    def test_payload_size_ignores_timing_values(self):
        def payload(elapsed, preprocess):
            return {
                "checksum": "abc",
                "result": {
                    "reliability": 0.5,
                    "estimate": {
                        "elapsed_seconds": elapsed,
                        "preprocess_seconds": preprocess,
                    },
                },
            }

        short, long = payload(0.5, 0.25), payload(0.123456789012345, 1.0000000000000002)
        assert ResultCache.payload_size(short) == ResultCache.payload_size(long)

    def test_oversized_payload_not_cached(self):
        cache = ResultCache(max_bytes=10)
        assert not cache.put(cache_key("g", "q", "c"), {"blob": "x" * 100})
        assert len(cache) == 0

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(ttl=5.0, clock=lambda: now[0])
        cache.put(cache_key("g", "q", "c"), {"value": 1})
        assert cache.get(cache_key("g", "q", "c")) == {"value": 1}
        now[0] = 6.0
        assert cache.get(cache_key("g", "q", "c")) is None
        assert cache.stats().expirations == 1

    def test_invalid_bounds_raise(self):
        with pytest.raises(ConfigurationError):
            ResultCache(ttl=0)
        with pytest.raises((ConfigurationError, ValueError)):
            ResultCache(max_bytes=0)


# ----------------------------------------------------------------------
# Single-flight
# ----------------------------------------------------------------------
def _until(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


class TestSingleFlight:
    def test_identical_keys_coalesce_to_one_evaluation(self):
        flight = SingleFlight()
        release = threading.Event()
        computed_on = []

        def compute():
            computed_on.append(threading.current_thread().name)
            release.wait(timeout=10)
            return "answer:k1"

        answers = []
        callers = [
            threading.Thread(
                target=lambda: answers.append(flight.run("k1", compute)),
                name=f"caller-{index}",
            )
            for index in range(2)
        ]
        callers[0].start()
        _until(lambda: computed_on)
        callers[1].start()
        _until(lambda: flight.stats().submitted == 2)
        release.set()
        for caller in callers:
            caller.join(timeout=10)
        assert answers == ["answer:k1", "answer:k1"]
        # The first caller computed on its own thread; the second waited.
        assert computed_on == ["caller-0"]
        stats = flight.stats()
        assert (stats.submitted, stats.coalesced) == (2, 1)
        # The key cleared once the outcome was delivered.
        assert flight.run("k1", compute) == "answer:k1"
        assert len(computed_on) == 2

    def test_errors_stay_per_key(self):
        flight = SingleFlight()
        started = threading.Event()
        release = threading.Event()

        def fail():
            started.set()
            release.wait(timeout=10)
            raise ValueError("bad")

        failures = []

        def run_bad():
            try:
                flight.run("bad", fail)
            except ValueError as error:
                failures.append(error)

        bad = threading.Thread(target=run_bad)
        bad.start()
        assert started.wait(timeout=10)
        # Another key computes while "bad" is in flight, untouched by it.
        assert flight.run("good", lambda: "ok") == "ok"
        release.set()
        bad.join(timeout=10)
        assert [str(error) for error in failures] == ["bad"]

    def test_error_reaches_waiters_and_clears_the_key(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []

        def boom():
            calls.append(1)
            release.wait(timeout=10)
            raise RuntimeError("boom")

        outcomes = []

        def caller():
            try:
                flight.run("k", boom, timeout=10)
            except RuntimeError as error:
                outcomes.append(str(error))

        threads = [threading.Thread(target=caller) for _ in range(2)]
        threads[0].start()
        _until(lambda: calls)
        threads[1].start()
        _until(lambda: flight.stats().submitted == 2)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes == ["boom", "boom"]
        assert len(calls) == 1
        # The key was cleared, so a retry computes again (and fails again).
        with pytest.raises(RuntimeError, match="boom"):
            flight.run("k", boom)
        assert len(calls) == 2

    def test_concurrent_callers_account_for_every_request(self):
        flight = SingleFlight()
        computed = []
        lock = threading.Lock()

        def compute_for(key):
            def compute():
                with lock:
                    computed.append(key)
                time.sleep(0.0005)
                return key * 2
            return compute

        wrong = []

        def caller(seed):
            for index in range(200):
                key = (seed + index) % 5
                if flight.run(key, compute_for(key), timeout=10) != key * 2:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = flight.stats()
        assert stats.submitted == 8 * 200
        assert stats.submitted - stats.coalesced == len(computed)

    def test_waiter_timeout_does_not_interrupt_the_evaluation(self):
        flight = SingleFlight()
        release = threading.Event()
        answers = []
        leader = threading.Thread(
            target=lambda: answers.append(
                flight.run("k", lambda: release.wait(timeout=10) and "done")
            )
        )
        leader.start()
        _until(lambda: flight.stats().submitted == 1)
        with pytest.raises(FutureTimeoutError):
            flight.run("k", lambda: "never", timeout=0.05)
        release.set()
        leader.join(timeout=10)
        assert answers == ["done"]


# ----------------------------------------------------------------------
# Pinned seed indices (the engine plumbing the service rides on)
# ----------------------------------------------------------------------
class TestSeedIndices:
    QUERIES = [
        KTerminalQuery(terminals=(1, 34)),
        ThresholdQuery(terminals=(2, 30), threshold=0.4),
        ReliabilitySearchQuery(sources=(1,), threshold=0.5),
        TopKReliableVerticesQuery(sources=(5,), k=3),
    ]

    def _fresh(self, karate, **overrides):
        config = EstimatorConfig(backend="sampling", samples=200, rng=7, **overrides)
        return ReliabilityEngine(config).prepare(karate)

    def test_pinned_batch_matches_fresh_first_queries(self, karate):
        batched = self._fresh(karate).query_many(
            self.QUERIES, seed_indices=[0] * len(self.QUERIES)
        )
        singles = [self._fresh(karate).query(query) for query in self.QUERIES]
        assert results_checksum(batched) == results_checksum(singles)

    def test_pinned_batch_is_worker_count_invariant(self, karate):
        serial = self._fresh(karate).query_many(
            self.QUERIES, seed_indices=[0] * len(self.QUERIES)
        )
        with pytest.warns(DeprecationWarning, match="workers"):
            ignored = self._fresh(karate).query_many(
                self.QUERIES, workers=2, seed_indices=[0] * len(self.QUERIES)
            )
        assert results_checksum(serial) == results_checksum(ignored)

    def test_pinned_s2bdd_batch_matches_fresh_first_queries(self, karate):
        queries = self.QUERIES[:2]
        config = EstimatorConfig(backend="s2bdd", samples=200, max_width=128, rng=7)
        batched = ReliabilityEngine(config).prepare(karate).query_many(
            queries, seed_indices=[0, 0]
        )
        singles = [
            ReliabilityEngine(config).prepare(karate).query(query)
            for query in queries
        ]
        assert results_checksum(batched) == results_checksum(singles)

    def test_length_mismatch_raises(self, karate):
        engine = self._fresh(karate)
        with pytest.raises(ConfigurationError, match="one index per query"):
            engine.query_many(self.QUERIES, seed_indices=[0])

    def test_default_schedule_unchanged_by_plumbing(self, karate):
        pinned_none = self._fresh(karate).query_many(self.QUERIES)
        explicit = self._fresh(karate).query_many(
            self.QUERIES, seed_indices=[0, 1, 2, 3]
        )
        assert results_checksum(pinned_none) == results_checksum(explicit)


# ----------------------------------------------------------------------
# The serving core
# ----------------------------------------------------------------------
class TestReliabilityService:
    def test_cached_response_is_bit_identical_to_fresh_engine(self, catalog, karate):
        with ReliabilityService(catalog) as service:
            query = KTerminalQuery(terminals=(1, 34))
            first = service.query("karate", query)
            second = service.query("karate", query)
        assert (first["cached"], second["cached"]) == (False, True)
        fresh = ReliabilityEngine(catalog.config).prepare(karate).query(query)
        assert first["checksum"] == results_checksum([fresh])
        assert second["checksum"] == first["checksum"]
        assert second["result"] == first["result"]

    def test_order_independence_across_service_instances(self, karate, config):
        """The same query answers identically no matter what ran before it."""
        probe = ThresholdQuery(terminals=(2, 30), threshold=0.4)

        def checksum_after(warmup):
            catalog = GraphCatalog(config)
            catalog.register("karate", karate)
            with ReliabilityService(catalog) as service:
                for query in warmup:
                    service.query("karate", query)
                return service.query("karate", probe)["checksum"]

        cold = checksum_after([])
        warm = checksum_after(
            [KTerminalQuery(terminals=(1, 34)), TopKReliableVerticesQuery(sources=(5,), k=2)]
        )
        assert cold == warm

    def test_dict_queries_accepted(self, catalog):
        with ReliabilityService(catalog) as service:
            payload = service.query(
                "karate", {"kind": "k-terminal", "terminals": [1, 34]}
            )
        assert payload["kind"] == "k-terminal"

    def test_invalid_terminals_raise_through(self, catalog):
        with ReliabilityService(catalog) as service:
            with pytest.raises(TerminalError):
                service.query("karate", KTerminalQuery(terminals=(999, 1000)))
            assert service.stats()["service"]["errors"] == 1

    def test_cache_disabled_mode_reevaluates(self, catalog):
        with ReliabilityService(catalog, cache=None) as service:
            query = KTerminalQuery(terminals=(1, 34))
            first = service.query("karate", query)
            second = service.query("karate", query)
            stats = service.stats()
        assert first["checksum"] == second["checksum"]
        assert not second["cached"]
        assert stats["cache"] is None
        assert stats["service"]["engine_evaluations"] == 2

    def test_query_batch_isolates_failures(self, catalog):
        with ReliabilityService(catalog) as service:
            outcomes = service.query_batch(
                "karate",
                [
                    KTerminalQuery(terminals=(1, 34)),
                    KTerminalQuery(terminals=(999,)),
                    {"kind": "bogus"},
                ],
            )
        assert "checksum" in outcomes[0]
        assert outcomes[1]["error_type"] == "TerminalError"
        assert "error" in outcomes[2]

    def test_bad_query_costs_its_batch_mates_no_second_evaluation(self, catalog):
        """Every request of a micro-batch is evaluated once, even when one fails."""
        with ReliabilityService(catalog, cache=None) as service:
            outcomes = service.query_batch(
                "karate",
                [
                    KTerminalQuery(terminals=(1, 34)),
                    KTerminalQuery(terminals=(2, 30)),
                    KTerminalQuery(terminals=(999,)),
                ],
            )
            stats = service.stats()
        assert [outcome.get("error_type") for outcome in outcomes] == [
            None,
            None,
            "TerminalError",
        ]
        assert stats["service"]["engine_evaluations"] == 3

    def test_batched_evaluation_matches_fresh_singles(self, catalog, karate):
        queries = [
            KTerminalQuery(terminals=(1, 34)),
            ThresholdQuery(terminals=(2, 30), threshold=0.4),
            ReliabilitySearchQuery(sources=(1,), threshold=0.5),
        ]
        with ReliabilityService(catalog) as service:
            outcomes = service.query_batch("karate", queries)
        for query, outcome in zip(queries, outcomes):
            fresh = ReliabilityEngine(catalog.config).prepare(karate).query(query)
            assert outcome["checksum"] == results_checksum([fresh])

    def test_cached_hit_reports_the_requested_graph_name(self, karate, config):
        """Content-identical graphs under two names share cached results,
        but each response names the graph the client asked for."""
        catalog = GraphCatalog(config)
        catalog.register("first", karate)
        catalog.register("second", load_dataset("karate"))
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog) as service:
            one = service.query("first", query)
            two = service.query("second", query)
        assert two["cached"]  # same content fingerprint → same cache key
        assert (one["graph"], two["graph"]) == ("first", "second")
        assert one["checksum"] == two["checksum"]

    def test_mutating_a_response_does_not_poison_the_cache(self, catalog):
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog) as service:
            first = service.query("karate", query)
            original = first["result"]["estimate"]["reliability"]
            first["result"]["estimate"]["reliability"] = -1.0
            second = service.query("karate", query)
        assert second["result"]["estimate"]["reliability"] == original

    def test_prepare_failures_counted_consistently(self, catalog):
        with ReliabilityService(catalog) as service:
            with pytest.raises(ConfigurationError):
                service.query("nope", KTerminalQuery(terminals=(1, 34)))
            service.query_batch("nope", [KTerminalQuery(terminals=(1, 34))])
            stats = service.stats()["service"]
        assert stats["requests"] == 2
        assert stats["errors"] == 2

    def test_stats_shape(self, catalog):
        with ReliabilityService(catalog) as service:
            service.query("karate", KTerminalQuery(terminals=(1, 34)))
            stats = service.stats()
        assert set(stats) >= {"service", "cache", "coalescer", "engines"}
        assert stats["service"]["requests"] == 1
        (engine_counters,) = stats["engines"]["karate"].values()
        assert "world_pools_evicted" in engine_counters

    def test_query_repeated_in_a_batch_is_evaluated_once(self, catalog):
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog, cache=None) as service:
            first, second = service.query_batch("karate", [query, query])
            stats = service.stats()
        assert stats["service"]["engine_evaluations"] == 1
        assert stats["coalescer"]["submitted"] == 2
        assert stats["coalescer"]["coalesced"] == 1
        assert first["checksum"] == second["checksum"]

    def test_delta_between_lookup_and_evaluation(self, config):
        """A miss is cached under the fingerprint read when it evaluates."""
        catalog = GraphCatalog(config)
        catalog.register("karate", load_dataset("karate"))
        delta = SetEdgeProbability(edge_id=7, probability=0.9)
        query = KTerminalQuery(terminals=(1, 34))
        stale = catalog.entry("karate").fingerprint
        with ReliabilityService(catalog) as service:
            lookup = service._lookup

            def lookup_then_update(key):
                payload, tier = lookup(key)
                if payload is None:
                    service.update("karate", delta)
                return payload, tier

            service._lookup = lookup_then_update
            answer = service.query("karate", query)
            current = catalog.entry("karate").fingerprint
            config_fingerprint = catalog.config.fingerprint()
            stale_entry = service.cache.get(
                cache_key(stale, query.canonical_key(), config_fingerprint)
            )
            current_entry = service.cache.get(
                cache_key(current, query.canonical_key(), config_fingerprint)
            )
        assert current != stale
        assert answer["graph_fingerprint"] == current
        reference = load_dataset("karate")
        delta.apply(reference)
        fresh = ReliabilityEngine(catalog.config).prepare(reference)
        assert answer["checksum"] == results_checksum([fresh.query(query)])
        assert stale_entry is None
        assert current_entry["checksum"] == answer["checksum"]

    def test_lookup_hit_counts_once_and_miss_continues(self, catalog):
        """A miss counts nothing until its continuation runs."""
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog) as service:
            response, pending = service.lookup("karate", query)
            assert response is None
            uncounted = service.stats()
            computed = service.query("karate", pending)
            hit, none = service.lookup("karate", query)
            stats = service.stats()
        assert uncounted["service"]["requests"] == 0
        assert uncounted["cache"]["misses"] == 0
        assert none is None
        assert (computed["cached"], hit["cached"]) == (False, True)
        assert hit["checksum"] == computed["checksum"]
        assert stats["service"]["requests"] == 2
        assert stats["service"]["engine_evaluations"] == 1
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 1)

    def test_miss_reuses_an_answer_finished_after_it_missed(self, catalog):
        """The memory probe runs before an evaluation thread picks the
        request up; an identical request finishing meanwhile answers the
        continuation as a counted memory hit."""
        query = KTerminalQuery(terminals=(1, 34))
        with ReliabilityService(catalog) as service:
            _, pending = service.lookup("karate", query)
            first = service.query("karate", query)  # evaluates and caches
            second = service.query("karate", pending)
            stats = service.stats()
        assert second["checksum"] == first["checksum"]
        assert (second["cached"], second["cache_tier"]) == (True, "memory")
        assert stats["service"]["requests"] == 2
        assert stats["service"]["cache_hits"] == 1
        assert stats["service"]["engine_evaluations"] == 1
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 1)

    def test_close_refuses_misses_but_serves_hits(self, catalog):
        service = ReliabilityService(catalog)
        hit = KTerminalQuery(terminals=(1, 34))
        service.query("karate", hit)
        service.close()
        assert service.query("karate", hit)["cached"] is True
        with pytest.raises(ConfigurationError, match="closed"):
            service.query("karate", KTerminalQuery(terminals=(2, 30)))
        with pytest.raises(ConfigurationError, match="closed"):
            service.query_batch("karate", [KTerminalQuery(terminals=(2, 30))])

    def test_timeout_bounds_the_wait_to_evaluate(self, catalog):
        with ReliabilityService(catalog) as service:
            with service._update_lock:  # an update in progress
                with pytest.raises(TimeoutError):
                    service.query(
                        "karate", KTerminalQuery(terminals=(1, 34)), timeout=0.05
                    )
            # The timed-out key was cleared: the retry evaluates.
            answer = service.query("karate", KTerminalQuery(terminals=(1, 34)))
        assert answer["cached"] is False


# ----------------------------------------------------------------------
# World-pool eviction accounting (satellite)
# ----------------------------------------------------------------------
class TestWorldPoolEviction:
    def test_eviction_counter_tracks_pool_churn(self, karate):
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=50, rng=7)
        ).prepare(karate)
        for samples in range(10, 10 + 12):
            engine.world_pool(samples=samples)
        assert engine.stats.world_pools_built == 12
        assert engine.stats.world_pools_evicted == 12 - 8  # bound is 8/graph


# ----------------------------------------------------------------------
# The HTTP front-end, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_server(karate):
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", karate)
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0).start_background()
    yield server, service, catalog
    server.close()
    service.close()


class TestHttpEndToEnd:
    def test_healthz_and_graphs(self, live_server):
        server, _, _ = live_server
        client = ServiceClient("127.0.0.1", server.port)
        assert client.healthz()["status"] == "ok"
        (graph,) = client.graphs()
        assert graph["name"] == "karate"
        assert graph["vertices"] == 34

    def test_query_roundtrip_and_cache_flag(self, live_server, karate):
        server, _, catalog = live_server
        client = ServiceClient("127.0.0.1", server.port)
        query = KTerminalQuery(terminals=(3, 20))
        first = client.query("karate", query)
        second = client.query("karate", query)
        assert (first.cached, second.cached) == (False, True)
        assert first.checksum == second.checksum
        fresh = ReliabilityEngine(catalog.config).prepare(karate).query(query)
        assert first.checksum == results_checksum([fresh])
        assert first.result.reliability == fresh.estimate.reliability

    def test_query_batch_over_http(self, live_server):
        server, _, _ = live_server
        client = ServiceClient("127.0.0.1", server.port)
        outcomes = client.query_batch(
            "karate",
            [
                KTerminalQuery(terminals=(5, 6)),
                {"kind": "threshold", "terminals": [7, 8], "threshold": 0.5},
                {"kind": "bogus"},
            ],
        )
        assert outcomes[0].kind == "k-terminal"
        assert outcomes[1].kind == "threshold"
        assert outcomes[2]["error_type"] == "ConfigurationError"

    def test_stats_endpoint_merges_all_layers(self, live_server):
        server, _, _ = live_server
        client = ServiceClient("127.0.0.1", server.port)
        client.query("karate", KTerminalQuery(terminals=(9, 10)))
        stats = client.stats()
        assert stats["service"]["requests"] >= 1
        assert stats["cache"]["max_bytes"] > 0
        assert "admission" in stats and stats["admission"]["accepted"] >= 1
        assert "world_pools_evicted" in next(iter(stats["engines"]["karate"].values()))

    def test_error_mapping(self, live_server):
        server, _, _ = live_server
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.query("nope", KTerminalQuery(terminals=(1, 2)))
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.query("karate", {"kind": "bogus"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/query")
        assert excinfo.value.status == 405

    def test_oversized_body_rejected_413(self, live_server):
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        server, _, _ = live_server
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()  # never send the body
            assert connection.getresponse().status == 413
        finally:
            connection.close()

    def test_internal_errors_map_to_500(self, live_server):
        server, service, _ = live_server
        original = service.stats
        service.stats = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        try:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient("127.0.0.1", server.port).stats()
            assert excinfo.value.status == 500
        finally:
            service.stats = original

    def test_stream_counters_are_unchanged(self, karate, tmp_path):
        """A fixed stream over HTTP — hits of both tiers, misses, errors, a
        delta and a batch — leaves the counters it left when every request
        was evaluated on the thread pool."""
        config = EstimatorConfig(backend="sampling", samples=200, rng=7)
        warm_catalog = GraphCatalog(config)
        warm_catalog.register("karate", karate)
        catalog = GraphCatalog(config)
        catalog.register("karate", load_dataset("karate"))  # the delta mutates it
        with SharedResultStore(str(tmp_path / "shared.sqlite")) as store:
            with ReliabilityService(warm_catalog, store=store) as warm:
                warm.query("karate", KTerminalQuery(terminals=(5, 17)))
            service = ReliabilityService(catalog, store=store)
            server = ServiceServer(service, port=0).start_background()
            try:
                with ServiceClient(port=server.port) as client:
                    for terminals in [(1, 34), (2, 30), (1, 34), (5, 17), (5, 17)]:
                        client.query("karate", KTerminalQuery(terminals=terminals))
                    with pytest.raises(ServiceError):
                        client.query("nope", KTerminalQuery(terminals=(1, 34)))
                    with pytest.raises(ServiceError):
                        client.query("karate", {"kind": "bogus"})
                    client.update(
                        "karate",
                        {"kind": "set-probability", "edge_id": 7, "probability": 0.9},
                    )
                    for terminals in [(1, 34), (1, 34), (2, 30)]:
                        client.query("karate", KTerminalQuery(terminals=terminals))
                    batch = [(2, 30), (3, 20), (3, 20)]
                    client.query_batch(
                        "karate", [KTerminalQuery(terminals=t) for t in batch]
                    )
                    client.query("karate", KTerminalQuery(terminals=(3, 20)))
                stats = service.stats()
            finally:
                server.close()
                service.close()
        observed = {
            "service": {
                name: stats["service"][name]
                for name in ("requests", "cache_hits", "shared_store_hits",
                             "engine_evaluations", "errors")
            },
            "cache": {name: stats["cache"][name] for name in ("hits", "misses")},
            "store": {name: stats["shared_store"][name] for name in ("hits", "misses")},
        }
        # Recorded with the server that evaluated every request on its pool.
        assert observed == {
            "service": {
                "requests": 14,
                "cache_hits": 6,
                "shared_store_hits": 1,
                "engine_evaluations": 5,
                "errors": 2,
            },
            "cache": {"hits": 5, "misses": 7},
            "store": {"hits": 1, "misses": 7},
        }

    def test_admission_control_sheds_overload(self, karate):
        """With one evaluation slot and no queue, a concurrent burst 429s."""
        release = threading.Event()

        class SlowService:
            catalog = GraphCatalog(EstimatorConfig(rng=7))

            def describe_graphs(self):
                return []

            def stats(self):
                return {}

            def lookup(self, graph, query, timings=False):
                return None, query  # a memory miss: evaluate on the pool

            def query(self, graph, query, timeout=None, timings=False):
                release.wait(timeout=10)
                return {"graph": graph, "kind": "k-terminal", "checksum": "x",
                        "result": {"kind": "k-terminal", "terminals": [1],
                                   "estimate": {}}, "cached": False}

        server = ServiceServer(
            SlowService(), port=0, max_inflight=1, queue_limit=0
        ).start_background()
        try:
            statuses = []
            lock = threading.Lock()

            def hit():
                client = ServiceClient("127.0.0.1", server.port, timeout=30)
                try:
                    client._request(
                        "POST", "/query",
                        {"graph": "karate", "query": {"kind": "k-terminal",
                                                      "terminals": [1, 2]}},
                    )
                    outcome = 200
                except ServiceOverloadedError as error:
                    outcome = error.status
                with lock:
                    statuses.append(outcome)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for thread in threads:
                thread.start()
                time.sleep(0.05)  # let each request register before the next
            time.sleep(0.2)
            release.set()
            for thread in threads:
                thread.join(timeout=15)
            assert statuses.count(200) == 1
            assert statuses.count(429) == 3
            stats = server._admission_snapshot()
            assert stats.rejected == 3
            assert stats.accepted == 1
        finally:
            server.close()
