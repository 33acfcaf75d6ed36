"""Tests of the scale-out serving subsystem (:mod:`repro.cluster`).

Three layers, bottom up: the consistent-hash ring (determinism, balance,
minimal movement), the shared sqlite result tier (cross-instance reuse,
degrade-to-miss), the retrying client (429 + ``Retry-After``), and the
supervised replica cluster end to end — parity through the router,
replica kill/failover, and respawn.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter

import pytest

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig
from repro.engine.queries import KTerminalQuery
from repro.exceptions import ClusterError
from repro.cluster import (
    ClusterClient,
    HashRing,
    ReplicaSupervisor,
    Router,
    SharedResultStore,
)
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceOverloadedError,
    cache_key,
)


# ----------------------------------------------------------------------
# The hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        members = ["replica-0", "replica-1", "replica-2"]
        first, second = HashRing(members), HashRing(reversed(members))
        keys = [f"key-{index}" for index in range(200)]
        assert [first.owner(key) for key in keys] == [
            second.owner(key) for key in keys
        ]

    def test_load_spreads_over_members(self):
        ring = HashRing([f"replica-{index}" for index in range(4)])
        counts = Counter(ring.owner(f"key-{index}") for index in range(2000))
        assert len(counts) == 4
        assert min(counts.values()) > 2000 / 4 / 3  # no starved member

    def test_removal_moves_only_the_removed_members_keys(self):
        ring = HashRing(["replica-0", "replica-1", "replica-2"])
        keys = [f"key-{index}" for index in range(500)]
        before = {key: ring.owner(key) for key in keys}
        ring.remove("replica-2")
        moved = [key for key in keys if ring.owner(key) != before[key]]
        assert all(before[key] == "replica-2" for key in moved)
        assert moved  # replica-2 did own something

    def test_preference_list_starts_at_owner_and_covers_all(self):
        ring = HashRing(["replica-0", "replica-1", "replica-2"])
        order = ring.preference("some-key")
        assert order[0] == ring.owner("some-key")
        assert sorted(order) == ring.members()

    def test_empty_ring_raises(self):
        with pytest.raises(ClusterError, match="no members"):
            HashRing().owner("key")

    def test_duplicate_member_rejected(self):
        ring = HashRing(["replica-0"])
        with pytest.raises(ClusterError, match="already"):
            ring.add("replica-0")


# ----------------------------------------------------------------------
# The shared result store
# ----------------------------------------------------------------------
class TestSharedResultStore:
    def test_round_trip_and_persistence(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        key = cache_key("gfp", "qkey", "cfp")
        payload = {"kind": "k-terminal", "checksum": "abc", "result": {"x": 1}}
        with SharedResultStore(path) as store:
            assert store.get(key) is None
            assert store.put(key, payload)
            assert store.get(key) == payload
        with SharedResultStore(path) as reopened:  # survives the handle
            assert reopened.get(key) == payload
            assert len(reopened) == 1

    def test_stats_count_hits_misses_stores(self, tmp_path):
        with SharedResultStore(str(tmp_path / "s.sqlite")) as store:
            key = cache_key("g", "q", "c")
            store.get(key)
            store.put(key, {"a": 1})
            store.get(key)
            stats = store.stats()
            assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
            assert stats.hit_rate == 0.5

    def test_closed_store_degrades_to_miss(self, tmp_path):
        store = SharedResultStore(str(tmp_path / "s.sqlite"))
        key = cache_key("g", "q", "c")
        store.put(key, {"a": 1})
        store.close()
        assert store.get(key) is None
        assert not store.put(key, {"a": 2})

    def test_second_service_instance_reuses_answers(self, tmp_path):
        """A fresh service over the same store answers from the shared tier."""
        config = EstimatorConfig(backend="sampling", samples=200, rng=7)
        karate = load_dataset("karate")
        path = str(tmp_path / "shared.sqlite")
        query = KTerminalQuery(terminals=(1, 34))

        first_catalog = GraphCatalog(config)
        first_catalog.register("karate", karate)
        with SharedResultStore(path) as store:
            with ReliabilityService(first_catalog, store=store) as service:
                computed = service.query("karate", query)
        assert computed["cached"] is False

        second_catalog = GraphCatalog(config)
        second_catalog.register("karate", karate)
        with SharedResultStore(path) as store:
            with ReliabilityService(second_catalog, store=store) as service:
                warm = service.query("karate", query)
                again = service.query("karate", query)
                stats = service.stats()
        assert warm["cache_tier"] == "shared"
        assert warm["checksum"] == computed["checksum"]
        assert again["cache_tier"] == "memory"  # promoted on the store hit
        assert stats["service"]["shared_store_hits"] == 1
        assert stats["shared_store"]["hits"] == 1


# ----------------------------------------------------------------------
# Client retry on 429
# ----------------------------------------------------------------------
class _Stub429Server:
    """Answers 429 (+ Retry-After) a set number of times, then 200."""

    def __init__(self, rejections: int, retry_after: str = "0.01") -> None:
        import http.server

        self.requests = 0
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                stub.requests += 1
                if stub.requests <= rejections:
                    body = b'{"error": "overloaded"}'
                    self.send_response(429)
                    self.send_header("Retry-After", retry_after)
                else:
                    body = b'{"status": "ok", "graphs": 0}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: A003
                pass

        self._server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._server.server_port
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()


class TestClientRetry:
    def test_default_client_fails_fast(self):
        server = _Stub429Server(rejections=1)
        try:
            with pytest.raises(ServiceOverloadedError) as excinfo:
                ServiceClient(port=server.port).healthz()
            assert excinfo.value.retry_after == pytest.approx(0.01)
            assert server.requests == 1
        finally:
            server.close()

    def test_retrying_client_honors_retry_after(self):
        server = _Stub429Server(rejections=2, retry_after="0.5")
        waits = []
        try:
            client = ServiceClient(
                port=server.port, max_retries=3, backoff=0.001, sleep=waits.append
            )
            assert client.healthz()["status"] == "ok"
            assert server.requests == 3
            # The server's hint (0.5s) beats the tiny client backoff.
            assert waits == [pytest.approx(0.5), pytest.approx(0.5)]
        finally:
            server.close()

    def test_retry_budget_exhausts(self):
        server = _Stub429Server(rejections=10)
        try:
            client = ServiceClient(
                port=server.port, max_retries=2, backoff=0.001, sleep=lambda _: None
            )
            with pytest.raises(ServiceOverloadedError):
                client.healthz()
            assert server.requests == 3  # initial + 2 retries
        finally:
            server.close()

    def test_cluster_client_retries_by_default(self):
        server = _Stub429Server(rejections=1, retry_after="0")
        try:
            client = ClusterClient(port=server.port, sleep=lambda _: None)
            assert client.healthz()["status"] == "ok"
            assert server.requests == 2
        finally:
            server.close()


# ----------------------------------------------------------------------
# The supervised cluster, end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    path = tmp_path_factory.mktemp("cluster") / "snap"
    catalog.save_snapshot(str(path))
    return str(path)


@pytest.fixture(scope="module")
def reference_service():
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    with ReliabilityService(catalog, cache=None) as service:
        yield service


@pytest.fixture(scope="module")
def cluster(snapshot_dir, tmp_path_factory):
    store = str(tmp_path_factory.mktemp("store") / "shared.sqlite")
    supervisor = ReplicaSupervisor(
        snapshot_dir, replicas=2, shared_store=store, poll_interval=0.1
    )
    supervisor.start()
    router = Router(supervisor, port=0)
    router.start_background()
    try:
        yield supervisor, router
    finally:
        router.close()
        supervisor.stop()


class TestCluster:
    def test_supervisor_requires_a_snapshot(self, tmp_path):
        with pytest.raises(ClusterError, match="save_snapshot"):
            ReplicaSupervisor(str(tmp_path / "missing"))

    def test_router_answers_match_direct_evaluation(
        self, cluster, reference_service
    ):
        _, router = cluster
        client = ClusterClient(port=router.port)
        queries = [
            KTerminalQuery(terminals=(1, 34)),
            KTerminalQuery(terminals=(2, 20, 30)),
            KTerminalQuery(terminals=(5, 17)),
        ]
        for query in queries:
            expected = reference_service.query("karate", query)["checksum"]
            assert client.query("karate", query).checksum == expected
        batch = client.query_batch("karate", queries)
        for query, response in zip(queries, batch):
            expected = reference_service.query("karate", query)["checksum"]
            assert response.checksum == expected

    def test_repeats_stay_on_one_replica(self, cluster):
        _, router = cluster
        client = ClusterClient(port=router.port)
        query = KTerminalQuery(terminals=(3, 33))
        first = client.query("karate", query)
        second = client.query("karate", query)
        assert first.raw["served_by"] == second.raw["served_by"]
        assert second.cached

    def test_aggregated_endpoints(self, cluster):
        supervisor, router = cluster
        client = ClusterClient(port=router.port)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["healthy"] == 2
        stats = client.stats()
        assert set(stats["restarts"]) == set(supervisor.keys())
        assert stats["router"]["forwarded"] > 0
        assert stats["totals"]["requests"] > 0
        assert [g["name"] for g in client.graphs()] == ["karate"]

    def test_replica_kill_fails_over_and_respawns(
        self, cluster, reference_service
    ):
        supervisor, router = cluster
        client = ClusterClient(port=router.port)
        query = KTerminalQuery(terminals=(9, 31))
        expected = reference_service.query("karate", query)["checksum"]
        victim = client.query("karate", query).raw["served_by"]
        old_endpoint = supervisor.live_endpoints()[victim]
        dead = supervisor._handles[victim].process

        supervisor.notify_failure(victim)  # kill the owning replica
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if supervisor.live_endpoints().get(victim) != old_endpoint:
                break
            time.sleep(0.05)

        # The cluster answers throughout — failover or respawned owner,
        # same checksum either way.
        assert client.query("karate", query).checksum == expected

        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if victim in supervisor.live_endpoints():
                break
            time.sleep(0.1)
        assert victim in supervisor.live_endpoints()
        assert supervisor.restart_counts()[victim] >= 1
        assert supervisor.live_endpoints()[victim] != old_endpoint
        assert client.query("karate", query).checksum == expected
        # The dead replica's stdout pipe is closed once drained, not leaked.
        deadline = time.monotonic() + 5.0
        while not dead.stdout.closed and time.monotonic() < deadline:
            time.sleep(0.05)
        assert dead.stdout.closed


# ----------------------------------------------------------------------
# Updates through the router
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def updatable_cluster(snapshot_dir, tmp_path_factory):
    """A cluster whose replicas opt in to updates (``--allow-updates``)."""
    store = str(tmp_path_factory.mktemp("update-store") / "shared.sqlite")
    supervisor = ReplicaSupervisor(
        snapshot_dir,
        replicas=2,
        shared_store=store,
        poll_interval=0.1,
        extra_args=["--allow-updates"],
    )
    supervisor.start()
    router = Router(supervisor, port=0)
    router.start_background()
    try:
        yield supervisor, router
    finally:
        router.close()
        supervisor.stop()


class TestClusterUpdates:
    DELTA = {
        "kind": "batch",
        "operations": [
            {"kind": "set-probability", "edge_id": 0, "probability": 0.25},
            {"kind": "set-probability", "edge_id": 7, "probability": 0.9},
        ],
    }

    def test_snapshot_warmed_replicas_reject_updates(self, cluster):
        _, router = cluster
        client = ClusterClient(port=router.port)
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.update("karate", self.DELTA)
        assert excinfo.value.status == 403
        replicas = excinfo.value.payload["replicas"]
        assert len(replicas) == 2
        assert all(entry["status"] == 403 for entry in replicas.values())

    def test_update_broadcasts_to_every_replica(self, updatable_cluster):
        from repro.engine import ReliabilityEngine
        from repro.engine import results_checksum
        from repro.engine.deltas import delta_from_dict

        _, router = updatable_cluster
        client = ClusterClient(port=router.port)
        query = KTerminalQuery(terminals=(1, 34))
        stale = client.query("karate", query)

        payload = client.update("karate", self.DELTA)
        assert payload["incremental"] is True
        assert payload["version"] == 2
        replicas = payload["replicas"]
        assert len(replicas) == 2
        assert all(entry["status"] == 200 for entry in replicas.values())
        assert len({entry["fingerprint"] for entry in replicas.values()}) == 1

        # Post-update answers are fresh (no stale cache hit) and
        # bit-identical to a fresh prepare of the mutated graph.
        reference = load_dataset("karate")
        delta_from_dict(self.DELTA).apply_to(reference)
        fresh = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=200, rng=7)
        ).prepare(reference)
        expected = results_checksum([fresh.query(query, seed_index=0)])
        answer = client.query("karate", query)
        assert answer.cached is False
        assert answer.checksum == expected
        assert answer.checksum != stale.checksum
        assert router.stats().updates == 1
