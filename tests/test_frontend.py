"""Tests of the shared HTTP front-end (:mod:`repro.service.frontend`).

A replica (:class:`ServiceServer`) and the cluster's address
(:class:`Router`) run on one :class:`HttpFrontEnd`, so every status the
front-end decides — and every status a replica decides that the router
relays — must read the same at either address, and so must the life of
a kept-alive connection.  The router here sits over a stub supervisor
holding one in-process replica, so no subprocess is needed.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import select
import socket
import sys
import threading
import time
from typing import Dict, List, Set, Tuple

import pytest

from repro.cluster import ClusterClient, Router
from repro.datasets import load_dataset
from repro.engine import EstimatorConfig
from repro.engine.queries import KTerminalQuery
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceOverloadedError,
    ServiceServer,
)
from repro.service import frontend as frontend_module
from repro.service.server import MAX_BODY_BYTES


class _OneReplica:
    """The supervisor calls a :class:`Router` makes, over one replica."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint
        self.failures = []

    def keys(self):
        return ["replica-0"]

    def live_endpoints(self):
        return {"replica-0": self.endpoint}

    def notify_failure(self, member):
        self.failures.append(member)

    def restart_counts(self):
        return {"replica-0": 0}


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}"
    return (head + "\r\n\r\n").encode("ascii") + body


def _exchange(port: int, raw: bytes) -> Tuple[int, Dict[str, str]]:
    """Send ``raw`` on a fresh connection; the response's status and headers."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock)
        response.begin()
        response.read()
        return response.status, {
            name.lower(): value for name, value in response.getheaders()
        }


_QUERY = {"kind": "k-terminal", "terminals": [1, 34]}

#: Requests that parse, so they reach dispatch (and the router's counter).
_PARSED_ROWS = [
    ("unknown path", _request("GET", "/missing"), 404),
    *[
        (f"{method} {path}", _request(method, path), 405)
        for path, method in [
            ("/healthz", "POST"),
            ("/graphs", "POST"),
            ("/stats", "POST"),
            ("/metrics", "POST"),
            ("/query", "GET"),
            ("/query_batch", "GET"),
            ("/update", "GET"),
        ]
    ],
    ("body not an object", _request("POST", "/query", b"[1]"), 400),
    (
        "unknown graph",
        _request(
            "POST",
            "/query",
            json.dumps({"graph": "nope", "query": _QUERY}).encode("utf-8"),
        ),
        400,
    ),
]

_STATUS_ROWS = [
    (
        "oversized body",
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        413,
    ),
    ("garbage request line", b"GARBAGE\r\n\r\n", 400),
    *_PARSED_ROWS,
]


@pytest.fixture(scope="module")
def frontends():
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0).start_background()
    supervisor = _OneReplica(server.address)
    router = Router(supervisor, port=0).start_background()
    yield {"service": server, "router": router, "core": service}
    router.close()
    server.close()
    service.close()
    assert supervisor.failures == []


@pytest.mark.parametrize("frontend", ["service", "router"])
@pytest.mark.parametrize(
    "raw, expected",
    [(raw, expected) for _, raw, expected in _STATUS_ROWS],
    ids=[name for name, _, _ in _STATUS_ROWS],
)
def test_one_status_table(frontends, frontend, raw, expected):
    status, _ = _exchange(frontends[frontend].port, raw)
    assert status == expected


def test_router_counts_every_parsed_request(frontends):
    router = frontends["router"]
    before = router.stats()
    for _, raw, _ in _PARSED_ROWS:
        _exchange(router.port, raw)
    after = router.stats()
    assert after.requests - before.requests == len(_PARSED_ROWS)
    assert after.errors == before.errors


def test_routed_query_carries_served_by(frontends):
    client = ClusterClient(port=frontends["router"].port)
    response = client.query("karate", KTerminalQuery(terminals=(1, 34)))
    assert response.raw["served_by"] == "replica-0"


def test_relayed_429_keeps_retry_after():
    """A replica's 429 reaches the client through the router with its hint."""
    entered, release = threading.Event(), threading.Event()

    class SlowService:
        catalog = GraphCatalog(EstimatorConfig(rng=7))

        def describe_graphs(self):
            return []

        def stats(self):
            return {}

        def lookup(self, graph, query, timings=False):
            return None, query  # a memory miss: evaluate on the pool

        def query(self, graph, query, timeout=None, timings=False):
            entered.set()
            release.wait(timeout=10)
            return {"graph": graph, "kind": "k-terminal", "checksum": "x",
                    "result": {"kind": "k-terminal", "terminals": [1],
                               "estimate": {}}, "cached": False}

    server = ServiceServer(
        SlowService(), port=0, max_inflight=1, queue_limit=0
    ).start_background()
    router = Router(_OneReplica(server.address), port=0).start_background()
    body = {"graph": "karate", "query": _QUERY}
    holder = threading.Thread(
        target=ServiceClient(port=server.port, timeout=30)._request,
        args=("POST", "/query", body),
    )
    try:
        holder.start()
        assert entered.wait(timeout=10)  # the one evaluation slot is taken

        status, headers = _exchange(
            router.port, _request("POST", "/query", json.dumps(body).encode())
        )
        assert status == 429
        assert headers.get("retry-after") == "1"

        waits = []
        client = ClusterClient(port=router.port, max_retries=1, sleep=waits.append)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.query("karate", KTerminalQuery(terminals=(1, 34)))
        assert waits == [1.0]
        assert excinfo.value.retry_after == 1.0
    finally:
        release.set()
        holder.join(timeout=15)
        router.close()
        server.close()
    assert not holder.is_alive()


# ----------------------------------------------------------------------
# Kept-alive connections
# ----------------------------------------------------------------------
class _Wire:
    """One raw client connection: requests in turn, responses read whole."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.stream = self.sock.makefile("rb")

    def exchange(self, raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
        self.sock.sendall(raw)
        status_line = self.stream.readline()
        headers = {}
        while True:
            line = self.stream.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("ascii").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers.get("content-length", 0)))
        return int(status_line.split()[1]), headers, body

    def still_open(self) -> bool:
        """Nothing to read — in particular no end of stream — for 0.1 s."""
        readable, _, _ = select.select([self.sock], [], [], 0.1)
        return not readable

    def closed_by_server(self) -> bool:
        """The server closes the connection without sending another byte."""
        return self.stream.read(1) == b""

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def _query_request(terminals=(1, 34)) -> bytes:
    query = {"kind": "k-terminal", "terminals": list(terminals)}
    return _request(
        "POST", "/query", json.dumps({"graph": "karate", "query": query}).encode()
    )


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_one_connection_serves_requests_in_turn(frontends, frontend):
    wire = _Wire(frontends[frontend].port)
    try:
        status, headers, _ = wire.exchange(_request("GET", "/healthz"))
        assert (status, headers["connection"]) == (200, "keep-alive")
        assert wire.still_open()
        status, headers, body = wire.exchange(_query_request())
        assert (status, headers["connection"]) == (200, "keep-alive")
        assert json.loads(body)["kind"] == "k-terminal"
        assert wire.still_open()
    finally:
        wire.close()


_CLOSING_ROWS = [
    (
        "Connection: close",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        200,
    ),
    ("HTTP/1.0", b"GET /healthz HTTP/1.0\r\n\r\n", 200),
    (
        "oversized body",
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
        413,
    ),
    ("malformed request", b"GARBAGE\r\n\r\n", 400),
]


@pytest.mark.parametrize("frontend", ["service", "router"])
@pytest.mark.parametrize(
    "raw, expected",
    [(raw, expected) for _, raw, expected in _CLOSING_ROWS],
    ids=[name for name, _, _ in _CLOSING_ROWS],
)
def test_connection_closes_after_the_response(frontends, frontend, raw, expected):
    wire = _Wire(frontends[frontend].port)
    try:
        status, headers, _ = wire.exchange(raw)
        assert (status, headers["connection"]) == (expected, "close")
        assert wire.closed_by_server()
    finally:
        wire.close()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_http10_keep_alive_is_honoured(frontends, frontend):
    wire = _Wire(frontends[frontend].port)
    try:
        raw = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        status, headers, _ = wire.exchange(raw)
        assert (status, headers["connection"]) == (200, "keep-alive")
        assert wire.still_open()
    finally:
        wire.close()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_idle_connection_closes_silently(frontends, frontend, monkeypatch):
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.3)
    served, untouched = _Wire(frontends[frontend].port), _Wire(frontends[frontend].port)
    try:
        assert served.exchange(_request("GET", "/healthz"))[0] == 200
        started = time.monotonic()
        assert served.closed_by_server()  # no 400, no byte at all
        assert untouched.closed_by_server()
        assert time.monotonic() - started < 5.0
    finally:
        served.close()
        untouched.close()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_request_cut_short_answers_400_and_closes(frontends, frontend, monkeypatch):
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.3)
    wire = _Wire(frontends[frontend].port)
    try:
        status, headers, body = wire.exchange(
            b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
        )
        assert (status, headers["connection"]) == (400, "close")
        assert json.loads(body)["error"] == "request read timed out"
        assert wire.closed_by_server()
    finally:
        wire.close()


def test_close_ends_open_connections():
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    server = ServiceServer(ReliabilityService(catalog), port=0).start_background()
    wire = _Wire(server.port)
    try:
        assert wire.exchange(_request("GET", "/healthz"))[0] == 200
        assert server._connections
        server.close()
        assert wire.closed_by_server()
        assert not server._connections
    finally:
        wire.close()
        server.close()


def test_routed_query_is_the_replica_answer_plus_served_by(frontends):
    """The router appends served_by to the replica's body and changes nothing else."""
    for port in (frontends["service"].port, frontends["router"].port):  # warm the cache
        _exchange(port, _query_request((2, 33)))
    wire = _Wire(frontends["service"].port)
    relayed = _Wire(frontends["router"].port)
    try:
        direct = wire.exchange(_query_request((2, 33)))[2]
        routed = relayed.exchange(_query_request((2, 33)))[2]
    finally:
        wire.close()
        relayed.close()
    assert routed == direct[:-1] + b', "served_by": "replica-0"}'
    # The bytes decoding and re-encoding would produce.
    expected = {**json.loads(direct), "served_by": "replica-0"}
    assert routed == json.dumps(expected).encode("utf-8")


# ----------------------------------------------------------------------
# Reused connections that went stale
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A raw HTTP/1.1 server that answers every request but the listed ones.

    Requests are numbered in arrival order over all connections; on a
    listed one the server closes the connection after reading it, without
    a response byte.  ``GET /graphs`` answers a one-graph catalog, every
    other path ``body``.
    """

    def __init__(self, body: bytes, drop: Set[int]) -> None:
        self.requests: List[Tuple[int, str]] = []  # (connection, path)
        self._body = body
        self._drop = drop
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            worker = threading.Thread(
                target=self._serve, args=(connection, len(self._threads)), daemon=True
            )
            self._threads.append(worker)
            worker.start()

    def _serve(self, connection: socket.socket, index: int) -> None:
        connection.settimeout(10)
        with connection, connection.makefile("rb") as stream:
            while True:
                line = stream.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = stream.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _, value = header.decode("ascii").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                stream.read(length)
                path = line.decode("ascii").split()[1]
                ordinal = len(self.requests)
                self.requests.append((index, path))
                if ordinal in self._drop:
                    return
                body = (
                    b'{"graphs": [{"name": "karate", "fingerprint": "f"}]}'
                    if path == "/graphs"
                    else self._body
                )
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )

    def close(self) -> None:
        self._stop.set()
        self._acceptor.join(timeout=5)
        self._listener.close()
        for worker in self._threads:
            worker.join(timeout=5)


@pytest.fixture(scope="module")
def query_payload(frontends):
    return frontends["core"].query("karate", KTerminalQuery(terminals=(4, 30)))


def test_client_reuses_one_connection(query_payload):
    server = _ScriptedServer(json.dumps(query_payload).encode(), drop=set())
    try:
        with ServiceClient(port=server.port) as client:
            client.healthz()
            client.query("karate", KTerminalQuery(terminals=(4, 30)))
            client.update("karate", {"kind": "set-probability", "edge_id": 1,
                                     "probability": 0.5})
    finally:
        server.close()
    # An update always goes out on a fresh connection of its own.
    assert server.requests == [(0, "/healthz"), (0, "/query"), (1, "/update")]


def test_query_on_a_dropped_connection_is_resent_on_a_fresh_one(query_payload):
    server = _ScriptedServer(json.dumps(query_payload).encode(), drop={1})
    try:
        with ServiceClient(port=server.port) as client:
            client.healthz()
            answer = client.query("karate", KTerminalQuery(terminals=(4, 30)))
    finally:
        server.close()
    assert answer.checksum == query_payload["checksum"]
    assert server.requests == [(0, "/healthz"), (0, "/query"), (1, "/query")]


def test_update_on_a_dropped_connection_is_never_resent(query_payload):
    server = _ScriptedServer(json.dumps(query_payload).encode(), drop={1})
    delta = {"kind": "set-probability", "edge_id": 1, "probability": 0.5}
    try:
        with ServiceClient(port=server.port) as client:
            client.healthz()
            with pytest.raises(ConnectionError):
                client.update("karate", delta)
    finally:
        server.close()
    assert server.requests == [(0, "/healthz"), (1, "/update")]


def test_client_pool_is_shared_safely_across_threads(frontends):
    """Threads on one client never share a connection or lose one."""
    answers, errors = [], []
    client = ServiceClient(port=frontends["service"].port)

    def calls() -> None:
        for _ in range(25):
            try:
                answers.append(client.healthz()["status"])
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        idle = list(client._idle)
    finally:
        sys.setswitchinterval(switch)
        client.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert answers == ["ok"] * 200
    assert 1 <= len({id(connection) for connection in idle}) == len(idle) <= 8


def test_client_skips_a_connection_the_server_closed(frontends, monkeypatch):
    """An idle connection closed by the server is never written to."""
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.2)
    with ServiceClient(port=frontends["service"].port) as client:
        client.healthz()
        (idle,) = client._idle
        time.sleep(0.6)
        assert client.healthz()["status"] == "ok"
        assert client._idle[0] is not idle


def test_router_replaces_a_stale_pooled_connection(query_payload):
    """Not a failover: the replica is fine, and is not reported."""
    replica = _ScriptedServer(json.dumps(query_payload).encode(), drop={2})
    supervisor = _OneReplica(f"127.0.0.1:{replica.port}")
    router = Router(supervisor, port=0).start_background()
    try:
        with ServiceClient(port=router.port) as client:
            first = client.query("karate", KTerminalQuery(terminals=(4, 30)))
            second = client.query("karate", KTerminalQuery(terminals=(4, 30)))
        stats = router.stats()
    finally:
        router.close()
        replica.close()
    assert first.checksum == second.checksum == query_payload["checksum"]
    assert second.raw["served_by"] == "replica-0"
    assert replica.requests == [
        (0, "/graphs"), (0, "/query"), (0, "/query"), (1, "/query")
    ]
    assert stats.failovers == 0
    assert supervisor.failures == []


def test_router_skips_a_connection_the_replica_closed(frontends, monkeypatch):
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.2)
    router = frontends["router"]
    before = router.stats()
    with ServiceClient(port=router.port) as client:
        client.query("karate", KTerminalQuery(terminals=(1, 34)))
        time.sleep(0.6)  # the replica and the router close their idle ends
        answer = client.query("karate", KTerminalQuery(terminals=(1, 34)))
    assert answer.cached
    assert router.stats().failovers == before.failovers


def test_router_pool_drops_connections_the_replica_closed(frontends, monkeypatch):
    """After a burst, the pool's extra connections go stale while one stays
    busy; returning the busy one closes and drops them."""
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.2)
    router = frontends["router"]
    endpoint = frontends["service"].address

    def on_loop(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, router._loop).result(10)

    async def burst():
        await asyncio.gather(
            *(router._http_request(endpoint, "GET", "/healthz") for _ in range(4))
        )

    on_loop(burst())
    pooled = list(router._idle[endpoint])
    assert len(pooled) >= 4
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:  # one connection stays in use
        on_loop(router._http_request(endpoint, "GET", "/healthz"))
        time.sleep(0.05)
    idle = router._idle[endpoint]
    assert len(idle) == 1
    assert all(
        writer.is_closing() for reader, writer in pooled if (reader, writer) not in idle
    )


def test_client_pool_drops_connections_the_server_closed(frontends, monkeypatch):
    monkeypatch.setattr(frontend_module, "IO_TIMEOUT", 0.2)
    with ServiceClient(port=frontends["service"].port) as client:
        burst = [client._connect() for _ in range(4)]  # as four threads would
        for connection in burst:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            client._checkin(connection)
        assert len(client._idle) == 4
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:  # one connection stays in use
            client.healthz()
            time.sleep(0.05)
        idle = list(client._idle)
    assert len(idle) == 1
    assert all(connection.sock is None for connection in burst if connection not in idle)


# ----------------------------------------------------------------------
# Memory-tier hits are answered on the replica's event loop
# ----------------------------------------------------------------------
@pytest.fixture()
def one_slot():
    """A replica with one evaluation slot and no queue, and a router over it."""
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0, max_inflight=1, queue_limit=0)
    server.start_background()
    router = Router(_OneReplica(server.address), port=0).start_background()
    try:
        yield {"service": server, "router": router, "core": service, "catalog": catalog}
    finally:
        router.close()
        server.close()
        service.close()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_hit_answers_while_the_evaluation_slot_is_held(one_slot, frontend):
    port = one_slot[frontend].port
    with ServiceClient(port=port) as client:
        client.query("karate", KTerminalQuery(terminals=(1, 34)))  # now cached
    def miss() -> None:
        with ServiceClient(port=port) as client:
            client.query("karate", KTerminalQuery(terminals=(2, 30)))

    holder = threading.Thread(target=miss)
    with one_slot["core"]._update_lock:  # an admitted miss blocks before evaluating
        holder.start()
        deadline = time.monotonic() + 10
        while one_slot["service"]._admission_snapshot().pending < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with ServiceClient(port=port) as client:
            hit = client.query("karate", KTerminalQuery(terminals=(1, 34)))
            with pytest.raises(ServiceOverloadedError):
                client.query("karate", KTerminalQuery(terminals=(3, 20)))
    holder.join(timeout=15)
    assert hit.cached
    assert not holder.is_alive()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_shed_query_counts_only_as_rejected(one_slot, frontend):
    """A query shed with 429 moves neither the service's requests nor the
    cache's misses: the memory probe before admission counts no miss."""
    core, server = one_slot["core"], one_slot["service"]
    port = one_slot[frontend].port

    def counts():
        stats = core.stats()
        return stats["service"]["requests"], stats["cache"]["misses"]

    def miss() -> None:
        with ServiceClient(port=port) as client:
            client.query("karate", KTerminalQuery(terminals=(2, 30)))

    holder = threading.Thread(target=miss)
    with core._update_lock:  # the admitted miss blocks before evaluating
        holder.start()
        deadline = time.monotonic() + 10
        while counts() != (1, 1):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        rejected = server._admission_snapshot().rejected
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceOverloadedError):
                client.query("karate", KTerminalQuery(terminals=(3, 20)))
        assert counts() == (1, 1)
        assert server._admission_snapshot().rejected == rejected + 1
    holder.join(timeout=15)
    assert not holder.is_alive()


@pytest.mark.parametrize("frontend", ["service", "router"])
def test_hit_answers_while_the_catalog_lock_is_held(one_slot, frontend):
    with ServiceClient(port=one_slot[frontend].port, timeout=10) as client:
        client.query("karate", KTerminalQuery(terminals=(1, 34)))
        with one_slot["catalog"]._lock:  # as GraphCatalog.update holds it
            hit = client.query("karate", KTerminalQuery(terminals=(1, 34)))
    assert hit.cached
