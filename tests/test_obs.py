"""Tests of the observability subsystem (:mod:`repro.obs`).

Bottom up: histogram bucket math (including the ``+Inf`` overflow
bucket), registry declaration and thread-safety under concurrent
recording, Prometheus text round-trips, trace/span mechanics and the
``X-Repro-Trace`` header, the slow-query log, the declared stats fields
and the samples both endpoints render from them, the service's opt-in
``timings`` section, the ``repro-obs`` CLI, and — end
to end — trace-header propagation across a live router → replica hop
plus the router's aggregated ``/metrics``.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.datasets import load_dataset
from repro.engine import EngineStats, EstimatorConfig
from repro.engine.deltas import SetEdgeProbability
from repro.engine.queries import KTerminalQuery
from repro.obs import (
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    SlowQueryLog,
    activate,
    new_trace,
    parse_header,
    parse_prometheus_text,
    run_with_trace,
    span,
)
from repro.obs import trace as trace_mod
from repro.obs.cli import main as obs_cli
from repro.obs.metrics import stats_samples
from repro.obs.trace import SlowQueryStats
from repro.cluster import ClusterClient, ReplicaSupervisor, Router
from repro.cluster.router import RouterStats, router_samples
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceServer,
)
from repro.service.cache import CacheStats
from repro.service.coalesce import CoalesceStats
from repro.service.core import ServiceStats
from repro.service.server import AdmissionStats
from repro.service.store import SharedResultStore, StoreStats


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_math_including_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 2.0, 3.0, 100.0):
            histogram.observe(value)
        snapshot = registry.to_dict()["h"]["values"][0]
        # Bounds are inclusive upper edges (Prometheus `le`): 1.0 lands
        # in le="1", 2.0 in le="2"; 100.0 only in the +Inf overflow.
        assert snapshot["buckets"] == {"1": 2, "2": 3, "5": 4, "+Inf": 5}
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(106.5)

    def test_render_emits_cumulative_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(10.0)
        text = registry.render()
        assert "# TYPE h histogram" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_sum 10.5" in text
        assert "h_count 2" in text

    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", "test", labels=("path",), buckets=(1.0,)
        )
        histogram.labels(path="/query").observe(0.5)
        histogram.labels(path="/query").observe(0.5)
        histogram.labels(path="/stats").observe(2.0)
        values = {
            value["labels"]["path"]: value
            for value in registry.to_dict()["h"]["values"]
        }
        assert values["/query"]["count"] == 2
        assert values["/stats"]["buckets"] == {"1": 0, "+Inf": 1}

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("empty", "x", buckets=())
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("bad", "x", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("dup", "x", buckets=(1.0, 1.0))

    def test_injectable_clock_drives_time(self):
        ticks = iter([10.0, 10.25])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        histogram = registry.histogram("h", "test", buckets=(0.1, 0.5))
        with histogram.time():
            pass
        snapshot = registry.to_dict()["h"]["values"][0]
        assert snapshot["count"] == 1
        assert snapshot["sum"] == pytest.approx(0.25)
        assert snapshot["buckets"]["0.5"] == 1
        assert snapshot["buckets"]["0.1"] == 0


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_redeclaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", labels=("path",))
        assert registry.counter("c", "help", labels=("path",)) is first
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("c", "help", labels=("path",))
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("c", "help")  # different labels
        histogram = registry.histogram("h", "help", buckets=(1.0,))
        assert registry.histogram("h", "help", buckets=(1.0,)) is histogram
        with pytest.raises(ValueError, match="already declared"):
            registry.histogram("h", "help", buckets=(2.0,))

    def test_identical_registries_render_byte_identically(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_requests", "b", labels=("path",)).labels(
                path="/query"
            ).inc(3)
            registry.gauge("a_pending", "a").set(2)
            registry.histogram("c_seconds", "c", buckets=(1.0,)).observe(0.5)
            return registry.render()

        assert build() == build()

    def test_render_round_trips_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "counts", labels=("kind",)).labels(
            kind='we"ird\nname'
        ).inc(7)
        registry.histogram("h_seconds", "hist", buckets=(0.5,)).observe(0.1)
        samples, types, helps = parse_prometheus_text(registry.render())
        assert types == {"c_total": "counter", "h_seconds": "histogram"}
        assert helps["c_total"] == "counts"
        by_name = {name: (labels, value) for name, labels, value in samples}
        assert by_name["c_total"][0] == {"kind": 'we"ird\nname'}
        assert by_name["c_total"][1] == 7.0
        assert by_name["h_seconds_count"][1] == 1.0
        assert "charset=utf-8" in PROMETHEUS_CONTENT_TYPE

    def test_extra_samples_grouped_after_registry_metrics(self):
        registry = MetricsRegistry()
        registry.counter("own_total", "mine").inc()
        text = registry.render(
            extra_samples=[
                ("zz_total", "counter", "bridged", {"replica": "r-1"}, 4.0),
                ("zz_total", "counter", "bridged", {"replica": "r-0"}, 2.0),
            ]
        )
        samples, types, _ = parse_prometheus_text(text)
        assert types == {"own_total": "counter", "zz_total": "counter"}
        zz = [s for s in samples if s[0] == "zz_total"]
        assert [labels["replica"] for _, labels, _ in zz] == ["r-0", "r-1"]

    def test_concurrent_recording_loses_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "x")
        labeled = registry.counter("l_total", "x", labels=("worker",))
        histogram = registry.histogram("h", "x", buckets=(0.5,))
        threads, per_thread = 8, 1000
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            child = labeled.labels(worker=str(worker))
            for _ in range(per_thread):
                counter.inc()
                child.inc()
                histogram.observe(0.1)

        pool = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        snapshot = registry.to_dict()
        assert snapshot["c_total"]["values"][0]["value"] == threads * per_thread
        assert all(
            value["value"] == per_thread
            for value in snapshot["l_total"]["values"]
        )
        assert len(snapshot["l_total"]["values"]) == threads
        assert snapshot["h"]["values"][0]["count"] == threads * per_thread


# ----------------------------------------------------------------------
# Traces and spans
# ----------------------------------------------------------------------
class TestTrace:
    def test_spans_record_and_sort_by_start_offset(self):
        trace = new_trace("abcdef12")
        assert trace is not None and trace.trace_id == "abcdef12"
        with activate(trace):
            with span("outer"):
                with span("inner"):
                    pass
        payload = trace.to_dict()
        names = [item["name"] for item in payload["spans"]]
        assert names == ["outer", "inner"]  # outer started first
        assert all(item["wall_ms"] >= 0 for item in payload["spans"])
        assert "dropped_spans" not in payload

    def test_span_without_active_trace_is_shared_noop(self):
        assert span("anything") is span("something else")

    def test_run_with_trace_bridges_threads(self):
        trace = new_trace()
        collected = []

        def work():
            with span("thread.stage"):
                collected.append(True)

        thread = threading.Thread(
            target=run_with_trace, args=(trace, work)
        )
        thread.start()
        thread.join()
        assert collected == [True]
        assert [s.name for s in trace.spans()] == ["thread.stage"]

    def test_span_cap_degrades_to_dropped_counter(self):
        trace = new_trace()
        for index in range(trace_mod._MAX_SPANS + 40):
            with trace.span(f"s{index}"):
                pass
        payload = trace.to_dict()
        assert len(payload["spans"]) == trace_mod._MAX_SPANS
        assert payload["dropped_spans"] == 40

    def test_parse_header_validation(self):
        assert parse_header("ABCDEF0123456789") == "abcdef0123456789"
        assert parse_header("  deadbeef  ") == "deadbeef"
        assert parse_header("a" * 64) == "a" * 64
        assert parse_header(None) is None
        assert parse_header("") is None
        assert parse_header("abc") is None  # too short
        assert parse_header("a" * 65) is None  # too long
        assert parse_header("not-hex-chars!!!") is None

    def test_disable_refuses_new_traces(self):
        try:
            trace_mod.disable()
            assert not trace_mod.enabled()
            assert new_trace() is None
        finally:
            trace_mod.enable()
        assert trace_mod.enabled()
        assert new_trace() is not None


class TestSlowQueryLog:
    def test_threshold_and_keep_validated(self):
        with pytest.raises(ValueError, match="> 0"):
            SlowQueryLog(0)
        with pytest.raises(ValueError, match="keep"):
            SlowQueryLog(1.0, keep=0)

    def test_records_only_slow_queries_in_bounded_ring(self):
        log = SlowQueryLog(0.1, keep=2)
        assert not log.record(graph="g", kind="search", elapsed_seconds=0.05)
        for index in range(3):
            assert log.record(
                graph="g",
                kind="threshold",
                elapsed_seconds=0.2 + index,
                trace_id="abcd1234",
            )
        snapshot = log.snapshot()
        assert snapshot["threshold_seconds"] == 0.1
        assert snapshot["total"] == 3
        assert len(snapshot["recent"]) == 2  # ring dropped the oldest
        assert snapshot["recent"][-1]["elapsed_ms"] == pytest.approx(2200.0)
        assert snapshot["recent"][-1]["trace_id"] == "abcd1234"


# ----------------------------------------------------------------------
# Declared stats fields and their samples
# ----------------------------------------------------------------------
STATS_CLASSES = (
    EngineStats,
    CacheStats,
    StoreStats,
    CoalesceStats,
    ServiceStats,
    AdmissionStats,
    RouterStats,
    SlowQueryStats,
)


class TestStatsSamples:
    @pytest.mark.parametrize("cls", STATS_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_stats_field_declares_kind_and_help(self, cls):
        for field in dataclasses.fields(cls):
            kind, help = field.metadata["metric"]
            assert kind in ("counter", "gauge"), (cls.__name__, field.name)
            assert help.strip(), (cls.__name__, field.name)

    def test_cache_byte_budget_is_a_gauge(self):
        samples = stats_samples("repro_cache", CacheStats(max_bytes=1024))
        kinds = {name: (kind, value) for name, kind, _, _, value in samples}
        assert kinds["repro_cache_max_bytes"] == ("gauge", 1024.0)
        assert "repro_cache_max_bytes_total" not in kinds

    def test_router_samples_label_respawns_per_replica(self):
        samples = router_samples(
            RouterStats(forwarded=12),
            {"replica-1": 2, "replica-0": 0},
        )
        restarts = {
            labels["replica"]: value
            for name, _, _, labels, value in samples
            if name == "repro_replica_restarts_total"
        }
        assert restarts == {"replica-0": 0.0, "replica-1": 2.0}
        values = {name: value for name, _, _, _, value in samples}
        assert values["repro_router_forwarded_total"] == 12.0


def _fresh_service() -> ReliabilityService:
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    return ReliabilityService(catalog)


class TestBridges:
    """``ReliabilityService.metric_samples``: the live stats snapshots, as samples."""

    def test_service_samples_cover_every_family(self):
        query = KTerminalQuery(terminals=(11, 24))
        with _fresh_service() as service:
            service.query("karate", query)
            service.query("karate", query)
            samples = service.metric_samples()
            fingerprint = service.catalog.config.fingerprint()
        by_name = {name: (labels, value) for name, _, _, labels, value in samples}
        # One miss then one hit: every family's counters are exact.
        assert by_name["repro_service_requests_total"][1] == 2.0
        assert by_name["repro_service_cache_hits_total"][1] == 1.0
        assert by_name["repro_service_engine_evaluations_total"][1] == 1.0
        assert by_name["repro_cache_hits_total"][1] == 1.0
        assert by_name["repro_cache_misses_total"][1] == 1.0
        assert by_name["repro_cache_hit_rate"][1] == 0.5
        assert by_name["repro_coalesce_submitted_total"][1] == 1.0
        assert by_name["repro_coalesce_coalesced_total"][1] == 0.0
        assert by_name["repro_engine_queries_served_total"] == (
            {"graph": "karate", "fingerprint": fingerprint},
            1.0,
        )
        kinds = {name: kind for name, kind, _, _, _ in samples}
        assert kinds["repro_cache_hit_rate"] == "gauge"
        assert kinds["repro_cache_hits_total"] == "counter"
        assert kinds["repro_coalesce_coalesced_total"] == "counter"
        for prefix, cls in (
            ("repro_service", ServiceStats),
            ("repro_cache", CacheStats),
            ("repro_coalesce", CoalesceStats),
            ("repro_engine", EngineStats),
        ):
            declared = {name for name, _, _, _, _ in stats_samples(prefix, cls())}
            assert declared <= set(kinds), prefix

    def test_service_samples_accept_fingerprint_nested_engines(self, monkeypatch):
        # The live shape: catalog.engine_stats() nests one EngineStats per
        # engine fingerprint under each graph name.
        with _fresh_service() as service:
            monkeypatch.setattr(
                service.catalog,
                "engine_stats",
                lambda: {
                    "karate": {
                        "abc123": EngineStats(queries_served=5),
                        "def456": EngineStats(queries_served=2),
                    }
                },
            )
            samples = service.metric_samples()
        served = {
            labels["fingerprint"]: value
            for name, _, _, labels, value in samples
            if name == "repro_engine_queries_served_total"
        }
        assert served == {"abc123": 5.0, "def456": 2.0}
        assert all(
            labels["graph"] == "karate"
            for name, _, _, labels, _ in samples
            if name.startswith("repro_engine_")
        )


# ----------------------------------------------------------------------
# The service's opt-in timings section, in process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_service():
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    with ReliabilityService(catalog) as service:
        yield service


class TestServiceTimings:
    def test_traced_query_carries_spans(self, obs_service):
        service = obs_service
        query = KTerminalQuery(terminals=(1, 34))
        trace = new_trace("feedc0de")
        with activate(trace):
            payload = service.query("karate", query, timings=True)
        timings = payload["timings"]
        assert timings["trace_id"] == "feedc0de"
        names = [item["name"] for item in timings["spans"]]
        assert "service.lookup" in names
        assert any(name.startswith("engine.") for name in names)
        # The miss is evaluated on this thread under this trace: every
        # engine span lies inside the wait for it.
        (wait,) = [item for item in trace.spans() if item.name == "service.wait"]
        engine_spans = [item for item in trace.spans() if item.name.startswith("engine.")]
        for item in engine_spans:
            assert wait.start_offset <= item.start_offset
            assert (
                item.start_offset + item.wall_seconds
                <= wait.start_offset + wait.wall_seconds
            )

    def test_timings_absent_without_trace_and_checksum_stable(self, obs_service):
        service = obs_service
        query = KTerminalQuery(terminals=(2, 30))
        untraced = service.query("karate", query, timings=True)
        assert "timings" not in untraced
        trace = new_trace()
        with activate(trace):
            traced = service.query("karate", query, timings=True)
        assert "timings" in traced
        assert traced["checksum"] == untraced["checksum"]

    def test_first_traced_miss_records_the_lazy_prepare(self):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
        catalog.register("karate", load_dataset("karate"))
        trace = new_trace()
        with ReliabilityService(catalog) as service, activate(trace):
            service.query("karate", KTerminalQuery(terminals=(1, 34)))
        spans = {item.name: item for item in trace.spans()}
        wait = spans["service.wait"]
        for name in ("engine.prepare", "kernel.compile"):
            inner = spans[name]
            assert wait.start_offset <= inner.start_offset
            assert (
                inner.start_offset + inner.wall_seconds
                <= wait.start_offset + wait.wall_seconds
            )

    def test_untraced_miss_creates_no_trace(self, obs_service, monkeypatch):
        created = []
        init = trace_mod.Trace.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(trace_mod.Trace, "__init__", counting_init)
        payload = obs_service.query("karate", KTerminalQuery(terminals=(5, 17)))
        assert payload["cached"] is False
        assert created == []


# ----------------------------------------------------------------------
# The HTTP server's /metrics and trace-header handling, in process
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_server():
    registry = MetricsRegistry()
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0, registry=registry).start_background()
    yield server
    server.close()
    service.close()


class TestServerMetrics:
    def test_metrics_endpoint_serves_parseable_text(self, obs_server):
        client = ServiceClient("127.0.0.1", obs_server.port)
        client.query("karate", KTerminalQuery(terminals=(3, 20)))
        text = client.metrics()
        samples, types, _ = parse_prometheus_text(text)
        present = {name for name, _, _ in samples}
        assert "repro_http_request_seconds_bucket" in present
        assert "repro_http_responses_total" in present
        assert "repro_service_requests_total" in present
        assert "repro_coalesce_submitted_total" in present
        assert types["repro_http_request_seconds"] == "histogram"

    def test_traced_http_query_returns_callers_trace_id(self, obs_server):
        client = ServiceClient("127.0.0.1", obs_server.port)
        response = client.query(
            "karate",
            KTerminalQuery(terminals=(4, 28)),
            timings=True,
            trace_id="cafe0123cafe0123",
        )
        timings = response.raw["timings"]
        assert timings["trace_id"] == "cafe0123cafe0123"
        assert [s["name"] for s in timings["spans"]]

    def test_untraced_query_has_no_timings_section(self, obs_server):
        client = ServiceClient("127.0.0.1", obs_server.port)
        response = client.query("karate", KTerminalQuery(terminals=(6, 29)))
        assert "timings" not in response.raw


# ----------------------------------------------------------------------
# The /metrics family table of a server with both cache tiers
# ----------------------------------------------------------------------
_ENGINE = ("fingerprint", "graph")

#: ``(name, # TYPE, label names)`` of every family the service's
#: ``/metrics`` serves after ``tiered_server``'s workload.  Series names,
#: types and labels are what scrapers and dashboards key on, so any
#: change to this table is a breaking change to the endpoint.
SERVICE_FAMILIES = [
    ("repro_admission_accepted_total", "counter", ()),
    ("repro_admission_max_pending", "gauge", ()),
    ("repro_admission_peak_pending", "gauge", ()),
    ("repro_admission_pending", "gauge", ()),
    ("repro_admission_rejected_total", "counter", ()),
    ("repro_cache_bytes_evicted_total", "counter", ()),
    ("repro_cache_bytes_expired_total", "counter", ()),
    ("repro_cache_bytes_invalidated_total", "counter", ()),
    ("repro_cache_current_bytes", "gauge", ()),
    ("repro_cache_entries", "gauge", ()),
    ("repro_cache_evictions_total", "counter", ()),
    ("repro_cache_expirations_total", "counter", ()),
    ("repro_cache_hit_rate", "gauge", ()),
    ("repro_cache_hits_total", "counter", ()),
    ("repro_cache_invalidations_total", "counter", ()),
    ("repro_cache_max_bytes", "gauge", ()),
    ("repro_cache_misses_total", "counter", ()),
    ("repro_cache_stores_total", "counter", ()),
    ("repro_coalesce_coalesced_total", "counter", ()),
    ("repro_coalesce_submitted_total", "counter", ()),
    ("repro_engine_compiled_cache_hits_total", "counter", _ENGINE),
    ("repro_engine_decomposition_cache_hits_total", "counter", _ENGINE),
    ("repro_engine_decompositions_computed_total", "counter", _ENGINE),
    ("repro_engine_deltas_applied_total", "counter", _ENGINE),
    ("repro_engine_full_prepares_total", "counter", _ENGINE),
    ("repro_engine_graphs_compiled_total", "counter", _ENGINE),
    ("repro_engine_incremental_prepares_total", "counter", _ENGINE),
    ("repro_engine_pools_invalidated_total", "counter", _ENGINE),
    ("repro_engine_queries_served_total", "counter", _ENGINE),
    ("repro_engine_s2bdd_cache_evictions_total", "counter", _ENGINE),
    ("repro_engine_s2bdd_cache_hits_total", "counter", _ENGINE),
    ("repro_engine_s2bdd_resweeps_total", "counter", _ENGINE),
    ("repro_engine_s2bdds_built_total", "counter", _ENGINE),
    ("repro_engine_world_pool_hits_total", "counter", _ENGINE),
    ("repro_engine_world_pools_built_total", "counter", _ENGINE),
    ("repro_engine_world_pools_evicted_total", "counter", _ENGINE),
    ("repro_engine_worlds_sampled_total", "counter", _ENGINE),
    ("repro_http_request_seconds", "histogram", ("path",)),
    ("repro_http_responses_total", "counter", ("path", "status")),
    ("repro_service_cache_hits_total", "counter", ()),
    ("repro_service_engine_evaluations_total", "counter", ()),
    ("repro_service_errors_total", "counter", ()),
    ("repro_service_requests_total", "counter", ()),
    ("repro_service_shared_store_hits_total", "counter", ()),
    ("repro_service_updates_applied_total", "counter", ()),
    ("repro_store_errors_total", "counter", ()),
    ("repro_store_hit_rate", "gauge", ()),
    ("repro_store_hits_total", "counter", ()),
    ("repro_store_invalidations_total", "counter", ()),
    ("repro_store_misses_total", "counter", ()),
    ("repro_store_stores_total", "counter", ()),
]


def _family_table(text):
    samples, types, _ = parse_prometheus_text(text)
    labels = {name: set() for name in types}
    for name, sample_labels, _ in samples:
        # Histogram series (_bucket/_sum/_count) belong to their family.
        family = name if name in types else name.rsplit("_", 1)[0]
        labels[family] |= set(sample_labels) - {"le"}
    return sorted((name, types[name], tuple(sorted(labels[name]))) for name in types)


def _assert_typed_and_helped(text):
    samples, types, helps = parse_prometheus_text(text)
    assert types
    assert set(helps) == set(types)
    assert all(helps[name].strip() for name in types), helps
    for name, _, _ in samples:
        assert name in types or name.rsplit("_", 1)[0] in types, name


@pytest.fixture(scope="module")
def tiered_server(tmp_path_factory):
    """A server with the memory cache and a shared store, after six
    queries (one repeat before and two after a delta) and one delta."""
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    store = SharedResultStore(str(tmp_path_factory.mktemp("tiered") / "store.sqlite"))
    service = ReliabilityService(catalog, store=store)
    server = ServiceServer(service, port=0, registry=MetricsRegistry()).start_background()
    client = ServiceClient("127.0.0.1", server.port)
    for terminals in ((1, 34), (2, 30), (1, 34), (3, 20)):
        client.query("karate", KTerminalQuery(terminals=terminals))
    client.update("karate", SetEdgeProbability(0, 0.5))
    for terminals in ((1, 34), (2, 30)):
        client.query("karate", KTerminalQuery(terminals=terminals))
    yield client
    server.close()
    service.close()
    store.close()


class TestServiceMetricFamilies:
    def test_family_table_is_pinned(self, tiered_server):
        assert _family_table(tiered_server.metrics()) == SERVICE_FAMILIES

    def test_every_family_has_type_and_help(self, tiered_server):
        _assert_typed_and_helped(tiered_server.metrics())

    def test_counters_match_stats(self, tiered_server):
        samples, _, _ = parse_prometheus_text(tiered_server.metrics())
        values = {name: value for name, labels, value in samples if not labels}
        stats = tiered_server.stats()
        assert values["repro_service_requests_total"] == stats["service"]["requests"] == 6
        assert values["repro_cache_hit_rate"] == stats["cache"]["hit_rate"]
        assert values["repro_store_misses_total"] == stats["shared_store"]["misses"]
        assert values["repro_admission_max_pending"] == stats["admission"]["max_pending"]

    def test_slow_query_count_is_exported(self):
        catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
        catalog.register("karate", load_dataset("karate"))
        service = ReliabilityService(catalog, slow_query_log=SlowQueryLog(1e-9))
        server = ServiceServer(service, port=0, registry=MetricsRegistry()).start_background()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.query("karate", KTerminalQuery(terminals=(1, 34)))
            samples, types, _ = parse_prometheus_text(client.metrics())
            total = client.stats()["slow_queries"]["total"]
        finally:
            server.close()
            service.close()
        assert total == 1
        assert types["repro_slow_queries_total"] == "counter"
        assert [
            value for name, _, value in samples if name == "repro_slow_queries_total"
        ] == [float(total)]


# ----------------------------------------------------------------------
# Cross-hop tracing and aggregated /metrics over a live cluster
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_cluster(tmp_path_factory):
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    snapshot = tmp_path_factory.mktemp("obs-cluster") / "snap"
    catalog.save_snapshot(str(snapshot))
    supervisor = ReplicaSupervisor(str(snapshot), replicas=2, poll_interval=0.1)
    supervisor.start()
    router = Router(supervisor, port=0)
    router.start_background()
    try:
        yield supervisor, router
    finally:
        router.close()
        supervisor.stop()


class TestClusterObservability:
    def test_one_trace_id_spans_router_replica_engine(self, obs_cluster):
        _, router = obs_cluster
        client = ClusterClient(port=router.port)
        trace_id = "0123456789abcdef"
        response = client.query(
            "karate",
            KTerminalQuery(terminals=(9, 31)),
            timings=True,
            trace_id=trace_id,
        )
        timings = response.raw["timings"]
        assert timings["trace_id"] == trace_id
        names = [item["name"] for item in timings["spans"]]
        # The router's enveloping span leads; the replica's own spans —
        # produced under the id the router forwarded — follow.
        assert names[0] == "router.forward"
        assert "service.lookup" in names
        assert any(name.startswith("engine.") for name in names)
        assert response.raw["served_by"]

    def test_timings_flag_alone_mints_one_id(self, obs_cluster):
        _, router = obs_cluster
        client = ClusterClient(port=router.port)
        response = client.query(
            "karate", KTerminalQuery(terminals=(8, 25)), timings=True
        )
        timings = response.raw["timings"]
        assert parse_header(timings["trace_id"]) == timings["trace_id"]
        assert [s["name"] for s in timings["spans"]][0] == "router.forward"

    def test_router_metrics_aggregate_under_replica_labels(self, obs_cluster):
        supervisor, router = obs_cluster
        client = ClusterClient(port=router.port)
        for terminals in ((1, 20), (2, 21), (3, 22), (4, 23)):
            client.query("karate", KTerminalQuery(terminals=terminals))
        samples, types, _ = parse_prometheus_text(client.metrics())
        present = {name for name, _, _ in samples}
        assert "repro_router_request_seconds_bucket" in present
        assert "repro_router_forwarded_total" in present
        assert types["repro_router_request_seconds"] == "histogram"
        replicas = {
            labels["replica"]
            for name, labels, _ in samples
            if name == "repro_service_requests_total"
        }
        assert replicas == set(supervisor.keys())
        restarts = {
            labels["replica"]
            for name, labels, _ in samples
            if name == "repro_replica_restarts_total"
        }
        assert restarts == set(supervisor.keys())

    def test_router_metrics_families_have_type_and_help(self, obs_cluster):
        _, router = obs_cluster
        client = ClusterClient(port=router.port)
        client.query("karate", KTerminalQuery(terminals=(5, 26)))
        _assert_typed_and_helped(client.metrics())

    def test_aggregated_stats_attribute_each_replica(self, obs_cluster):
        supervisor, router = obs_cluster
        client = ClusterClient(port=router.port)
        client.query("karate", KTerminalQuery(terminals=(7, 27)))
        sections = client.replica_stats()
        assert set(sections) == set(supervisor.keys())
        for member, section in sections.items():
            assert section["member"] == member
            assert section["endpoint"]
            assert section["restarts"] == 0
            assert section["service"]["requests"] >= 0


# ----------------------------------------------------------------------
# The repro-obs CLI
# ----------------------------------------------------------------------
class TestCli:
    def _snapshot(self, tmp_path, name, hits):
        registry = MetricsRegistry()
        registry.counter("repro_cache_hits_total", "hits").inc(hits)
        registry.gauge("repro_cache_hit_rate", "rate").set(hits / 10)
        path = tmp_path / name
        path.write_text(registry.render(), encoding="utf-8")
        return str(path)

    def test_show_renders_a_table(self, tmp_path, capsys):
        source = self._snapshot(tmp_path, "snap.txt", hits=4)
        assert obs_cli(["show", source]) == 0
        output = capsys.readouterr().out
        assert "repro_cache_hits_total" in output
        assert "4" in output

    def test_show_filter_narrows_output(self, tmp_path, capsys):
        source = self._snapshot(tmp_path, "snap.txt", hits=4)
        assert obs_cli(["show", source, "--filter", "hit_rate"]) == 0
        output = capsys.readouterr().out
        assert "repro_cache_hit_rate" in output
        assert "repro_cache_hits_total" not in output

    def test_diff_prints_only_changed_series(self, tmp_path, capsys):
        before = self._snapshot(tmp_path, "before.txt", hits=4)
        after = self._snapshot(tmp_path, "after.txt", hits=9)
        assert obs_cli(["diff", before, after]) == 0
        output = capsys.readouterr().out
        assert "repro_cache_hits_total" in output
        assert "(+5)" in output

    def test_missing_source_is_a_clean_error(self, tmp_path, capsys):
        assert obs_cli(["show", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err
