"""Tests of the observability subsystem (:mod:`repro.obs`).

Bottom up: histogram bucket math (including the ``+Inf`` overflow
bucket), registry declaration and thread-safety under concurrent
recording, Prometheus text round-trips, trace/span mechanics and the
``X-Repro-Trace`` header, the slow-query log, the stats bridges, the
service's opt-in ``timings`` section, the ``repro-obs`` CLI, and — end
to end — trace-header propagation across a live router → replica hop
plus the router's aggregated ``/metrics``.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig
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
from repro.obs.bridge import router_samples, service_samples
from repro.obs.cli import main as obs_cli
from repro.cluster import ClusterClient, ReplicaSupervisor, Router
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceServer,
)


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
# The stats bridges
# ----------------------------------------------------------------------
class TestBridges:
    def test_service_samples_cover_every_family(self):
        stats = {
            "service": {"requests": 10, "cache_hits": 4, "errors": 0},
            "cache": {"hits": 4, "misses": 6, "hit_rate": 0.4},
            "coalescer": {"submitted": 3, "coalesced": 1},
            "engines": {"karate": {"queries": 6}},
        }
        samples = service_samples(stats)
        by_name = {name: (labels, value) for name, _, _, labels, value in samples}
        assert by_name["repro_service_requests_total"][1] == 10.0
        assert by_name["repro_cache_hit_rate"][1] == 0.4
        assert by_name["repro_cache_hits_total"][1] == 4.0
        assert by_name["repro_coalesce_coalesced_total"][1] == 1.0
        assert by_name["repro_engine_queries_total"][0] == {"graph": "karate"}
        kinds = {name: kind for name, kind, _, _, _ in samples}
        assert kinds["repro_cache_hit_rate"] == "gauge"
        assert kinds["repro_cache_hits_total"] == "counter"

    def test_cache_byte_budget_is_a_gauge(self):
        samples = service_samples({"cache": {"max_bytes": 1024, "current_bytes": 0}})
        kinds = {name: (kind, value) for name, kind, _, _, value in samples}
        assert kinds["repro_cache_max_bytes"] == ("gauge", 1024.0)
        assert "repro_cache_max_bytes_total" not in kinds

    def test_service_samples_accept_fingerprint_nested_engines(self):
        # The live shape: catalog.engine_stats() nests one counter dict
        # per engine fingerprint under each graph name.
        stats = {
            "service": {},
            "engines": {
                "karate": {
                    "abc123": {"queries_served": 5},
                    "def456": {"queries_served": 2},
                }
            },
        }
        samples = service_samples(stats)
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

    def test_router_samples_label_respawns_per_replica(self):
        samples = router_samples(
            {"forwarded": 12, "retries": 1},
            {"replica-1": 2, "replica-0": 0},
        )
        restarts = {
            labels["replica"]: value
            for name, _, _, labels, value in samples
            if name == "repro_replica_restarts_total"
        }
        assert restarts == {"replica-0": 0.0, "replica-1": 2.0}
        names = {name for name, _, _, _, _ in samples}
        assert "repro_router_forwarded_total" in names


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
