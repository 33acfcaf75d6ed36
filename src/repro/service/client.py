"""A small blocking client for the service's JSON/HTTP protocol.

:class:`ServiceClient` wraps :mod:`http.client` (stdlib only) and
translates the wire format back into typed objects:
``query`` / ``query_batch`` accept :class:`~repro.engine.queries.Query`
objects (or their ``to_dict`` forms) and return
:class:`ServiceResponse` values whose ``result`` is rebuilt through
:func:`~repro.engine.queries.result_from_dict`.

Example
-------
>>> from repro.service import ServiceClient
>>> from repro.engine.queries import KTerminalQuery
>>> client = ServiceClient("127.0.0.1", 8350)            # doctest: +SKIP
>>> answer = client.query("karate", KTerminalQuery(terminals=(1, 34)))  # doctest: +SKIP
>>> answer.result.reliability, answer.cached             # doctest: +SKIP
(0.63, False)
>>> client.close()                                       # doctest: +SKIP

Connections are kept alive between calls: each call takes an idle
connection from the client's pool (or opens one) and returns it after a
complete response, so one client serves any number of threads.  A
reused connection the server closed in the meantime (its idle timeout,
or a restart) fails before any response byte; the request is then sent
once more on a fresh connection.  An :meth:`ServiceClient.update` is
never sent twice: it goes out once, on a fresh connection.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.deltas import DeltaOp
from repro.engine.queries import Query, QueryResult, result_from_dict
from repro.exceptions import ReproError
from repro.obs.trace import TRACE_HEADER

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceResponse",
]

QueryLike = Union[Query, Mapping[str, Any]]
DeltaLike = Union[DeltaOp, Mapping[str, Any]]


class ServiceError(ReproError):
    """The server answered with an error status.

    Attributes
    ----------
    status:
        The HTTP status code.
    payload:
        The decoded JSON error body (``{}`` when undecodable).
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(
            f"service answered {status}: {payload.get('error', payload)!r}"
        )


class ServiceOverloadedError(ServiceError):
    """The server shed this request (HTTP 429); retry after a backoff.

    Attributes
    ----------
    retry_after:
        The server's ``Retry-After`` hint in seconds, or ``None`` when the
        header was absent or unparseable.  :class:`ServiceClient` honors
        it when retries are enabled.
    """

    def __init__(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        self.retry_after = retry_after
        super().__init__(status, payload)


@dataclass
class ServiceResponse:
    """One answered query: the typed result plus serving metadata."""

    graph: str
    kind: str
    cached: bool
    checksum: str
    result: QueryResult
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ServiceResponse":
        return cls(
            graph=payload["graph"],
            kind=payload["kind"],
            cached=bool(payload.get("cached", False)),
            checksum=payload["checksum"],
            result=result_from_dict(payload["result"]),
            raw=payload,
        )


class ServiceClient:
    """Blocking client of one service endpoint.

    Parameters
    ----------
    host / port:
        The server address (e.g. from ``ServiceServer.port``).
    timeout:
        Per-request socket timeout in seconds.
    max_retries:
        How many times a request shed with 429 is retried before the
        :class:`ServiceOverloadedError` propagates.  ``0`` (the default)
        keeps the historical fail-fast behavior — retrying is opt-in
        because it can amplify load on an already saturated server; the
        cluster client turns it on, where the router's replica pool makes
        a short wait productive.
    backoff:
        Base of the exponential backoff: retry ``i`` waits
        ``backoff * 2**i`` seconds — unless the server's ``Retry-After``
        header names a longer wait, which takes precedence (the server
        knows its queue depth; the client is guessing).
    max_backoff:
        Upper bound on any single wait, whatever its source.
    sleep:
        Injectable sleep function, for tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8350,
        *,
        timeout: float = 300.0,
        max_retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._sleep = sleep
        # Kept-alive connections not in use by any call.  A client dropped
        # without close() closes them when it is collected.
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle kept-alive connections; later calls open new ones."""
        with self._idle_lock:
            idle = list(self._idle)
            self._idle.clear()
        _close_all(idle)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """The liveness payload of ``GET /healthz``."""
        return self._request("GET", "/healthz")

    def graphs(self) -> List[Dict[str, Any]]:
        """The catalog summaries of ``GET /graphs``."""
        return self._request("GET", "/graphs")["graphs"]

    def stats(self) -> Dict[str, Any]:
        """The counters of ``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The Prometheus text exposition of ``GET /metrics``."""
        return self._request("GET", "/metrics")

    def query(
        self,
        graph: str,
        query: QueryLike,
        *,
        timings: bool = False,
        trace_id: Optional[str] = None,
    ) -> ServiceResponse:
        """Answer one query on the named graph.

        ``timings=True`` asks the server for the per-stage ``"timings"``
        section (available on ``response.raw["timings"]``); ``trace_id``
        pins the request's trace id — propagated in the
        ``X-Repro-Trace`` header, so one id follows the request across
        hops.
        """
        body = {"graph": graph, "query": _query_dict(query)}
        if timings:
            body["timings"] = True
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        payload = self._request("POST", "/query", body, extra_headers=headers)
        return ServiceResponse.from_payload(payload)

    def query_batch(
        self, graph: str, queries: Sequence[QueryLike]
    ) -> List[Union[ServiceResponse, Dict[str, Any]]]:
        """Answer a batch; failed items come back as their error dicts."""
        payload = self._request(
            "POST",
            "/query_batch",
            {"graph": graph, "queries": [_query_dict(query) for query in queries]},
        )
        outcomes: List[Union[ServiceResponse, Dict[str, Any]]] = []
        for item in payload["results"]:
            if "error" in item:
                outcomes.append(item)
            else:
                outcomes.append(ServiceResponse.from_payload(item))
        return outcomes

    def update(self, graph: str, delta: DeltaLike) -> Dict[str, Any]:
        """Apply a typed graph delta through ``POST /update``.

        Accepts any :mod:`repro.engine.deltas` value or its ``to_dict``
        wire form; returns the server's update payload (old/new
        fingerprint, version, ``incremental`` flag, invalidation counts).

        Deliberately *never sent twice*, unlike every other endpoint: not
        on 429, and not after a connection failure (that error
        propagates).  It goes out on a fresh connection, which cannot
        have gone stale while idle.  An update is not idempotent (an
        ``add-edge`` without a pinned ``edge_id`` allocates a fresh id
        per application), and neither failure says whether it was
        applied.  A 403 (read-only replica) surfaces as a
        :class:`ServiceError`.
        """
        return self._request_once(
            "POST",
            "/update",
            {"graph": graph, "delta": _delta_dict(delta)},
            pooled=False,
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One logical request: a 429 is retried up to ``max_retries`` times.

        Safe to retry unconditionally: every endpoint routed through here
        is idempotent (the service's answers are pure functions of the
        request), so a shed request repeated is the same request.
        :meth:`update` is the exception — it calls ``_request_once``
        directly because applying a delta twice is not applying it once.
        """
        for attempt in range(self._max_retries + 1):
            try:
                return self._request_once(
                    method, path, body, extra_headers=extra_headers
                )
            except ServiceOverloadedError as error:
                if attempt >= self._max_retries:
                    raise
                wait = self._backoff * (2 ** attempt)
                if error.retry_after is not None:
                    wait = max(wait, error.retry_after)
                self._sleep(min(max(wait, 0.0), self._max_backoff))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
        pooled: bool = True,
    ) -> Any:
        """One exchange, on a kept-alive connection from the pool.

        A reused connection that fails before any response byte is
        replaced by a fresh one and the request sent once more.
        ``pooled=False`` sends the request once, on a fresh connection
        that closes after the response.
        """
        blob = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if blob else {}
        if extra_headers:
            headers.update(extra_headers)
        if pooled:
            connection, reused = self._checkout()
        else:
            connection, reused = self._connect(), False
            headers["Connection"] = "close"
        try:
            try:
                connection.request(method, path, body=blob, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                connection.request(method, path, body=blob, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            self._checkin(connection)
        text = raw.decode("utf-8", "replace")
        content_type = response.getheader("Content-Type", "")
        if response.status == 200 and not content_type.startswith(
            "application/json"
        ):
            return text  # /metrics answers Prometheus text, not JSON
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {"error": text}
        if response.status == 429:
            raise ServiceOverloadedError(
                response.status,
                payload,
                retry_after=_parse_retry_after(response.getheader("Retry-After")),
            )
        if response.status != 200:
            raise ServiceError(response.status, payload)
        return payload

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )

    def _checkout(self) -> Tuple[http.client.HTTPConnection, bool]:
        """``(connection, reused)``: an idle connection still open, else a new one."""
        while True:
            with self._idle_lock:
                connection = self._idle.pop() if self._idle else None
            if connection is None:
                return self._connect(), False
            if not _closed_by_peer(connection):
                return connection, True
            connection.close()

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        """Put ``connection`` back in the idle pool.

        Pooled connections the server has closed meanwhile are closed and
        dropped here: left in the pool, each would hold a half-closed
        socket until a call happened to pop it.
        """
        with self._idle_lock:
            kept, stale = [], []
            for idle in self._idle:
                if _closed_by_peer(idle):
                    stale.append(idle)
                else:
                    kept.append(idle)
            self._idle[:] = kept + [connection]
        _close_all(stale)


def _close_all(connections: List[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection has something to read: the server's close
    (or stray bytes), either way unusable for the next request."""
    if connection.sock is None:
        return True
    try:
        readable, _, _ = select.select([connection.sock], [], [], 0)
    except (OSError, ValueError):  # closed, or past select()'s fd limit
        return True
    return bool(readable)


def _parse_retry_after(header: Optional[str]) -> Optional[float]:
    """The ``Retry-After`` header as non-negative seconds, else ``None``.

    Only the delta-seconds form is parsed (it is all the server sends);
    the HTTP-date form and garbage both fall back to the client's own
    backoff schedule.
    """
    if header is None:
        return None
    try:
        seconds = float(header.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _query_dict(query: QueryLike) -> Dict[str, Any]:
    if isinstance(query, Query):
        return query.to_dict()
    return dict(query)


def _delta_dict(delta: DeltaLike) -> Dict[str, Any]:
    if isinstance(delta, DeltaOp):
        return delta.to_dict()
    return dict(delta)
