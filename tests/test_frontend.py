"""Tests of the shared HTTP front-end (:mod:`repro.service.frontend`).

A replica (:class:`ServiceServer`) and the cluster's address
(:class:`Router`) run on one :class:`HttpFrontEnd`, so every status the
front-end decides — and every status a replica decides that the router
relays — must read the same at either address.  The router here sits
over a stub supervisor holding one in-process replica, so no subprocess
is needed.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, Tuple

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
    yield {"service": server, "router": router}
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
