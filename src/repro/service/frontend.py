"""The one asyncio HTTP/1.1 front-end behind every serving address.

:class:`HttpFrontEnd` is the protocol half of both
:class:`~repro.service.server.ServiceServer` (a replica) and
:class:`~repro.cluster.router.Router` (the cluster's address): binding,
lifecycle, reading the request, routing it by path and method, metering
it and writing the JSON or Prometheus text response.  The subclasses pass
in their routes and instruments, so a client cannot tell a router from a
replica but by an answer's ``served_by``.

Connections are one-request (``Connection: close``), which keeps the
protocol parser trivial; the blocking
:class:`~repro.service.client.ServiceClient` opens one connection per
call.  Statuses mean the same at every address; the front-end itself
decides 404, 405, 413, and 400/500 for a request that does not parse or
a handler that raises:

=======  ============================================================
``400``  unparseable request line or headers, a request not read in
         :data:`IO_TIMEOUT` seconds, or a client error in the body (not
         a JSON object, unknown graph, malformed query, bad terminals)
``403``  an update on a read-only service
``404``  a path outside the route table
``405``  a known path with the wrong method
``413``  a declared body over :data:`MAX_BODY_BYTES`, refused unread
``429``  admission control shed the request; always with
         ``Retry-After: 1``, relayed ones included
``500``  anything else, including an exception escaping a handler
``502``  (router) every live replica failed the request
``503``  (router) no replica is live
=======  ============================================================
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import Future
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple, Type, TypeVar

from repro.exceptions import ReproError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, Counter, Histogram

__all__ = [
    "HttpFrontEnd",
    "IO_TIMEOUT",
    "MAX_BODY_BYTES",
    "Response",
    "json_object",
    "read_head",
    "wait_for_stop_signal",
]

#: Largest request body a front-end will buffer (a query batch of
#: thousands of queries fits in a fraction of this).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a front-end waits for one request's head and body (the router
#: also bounds each replica's answer to an aggregation probe by it).
IO_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: ``(status, payload)``: a JSON-able payload, or ``str`` for Prometheus text.
Response = Tuple[int, Any]
#: A route's handler: ``await handler(body, headers)``.
Handler = Callable[[bytes, Dict[str, str]], Awaitable[Response]]

_FrontEnd = TypeVar("_FrontEnd", bound="HttpFrontEnd")


class _BodyTooLarge(ValueError):
    """A declared Content-Length beyond :data:`MAX_BODY_BYTES`."""


async def read_head(reader: asyncio.StreamReader) -> Tuple[str, Dict[str, str]]:
    """An HTTP start line and its headers (names lower-cased).

    A blank start line (the peer sent nothing) comes back with no headers.
    """
    start_line = (await reader.readline()).decode("ascii", "replace").strip()
    headers: Dict[str, str] = {}
    while start_line:  # a blank start line has no headers to read
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    return start_line, headers


def json_object(body: bytes) -> Dict[str, Any]:
    """Decode a request body that must be a JSON object (else ``ValueError``)."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def wait_for_stop_signal() -> None:
    """Block until the process receives SIGINT or SIGTERM."""
    stop = threading.Event()

    def _signal_handler(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _signal_handler)
        except ValueError:  # not the main thread (embedded use)
            break
    stop.wait()


class HttpFrontEnd:
    """Serve a route table over HTTP/1.1, one request per connection.

    Parameters
    ----------
    routes:
        ``{path: (method, handler)}``.  A known path with the wrong
        method answers 405; other paths answer 404 and are metered under
        ``path="other"``, so a scanner cannot blow up a metric's
        cardinality.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` once started).
    request_seconds:
        Histogram labelled ``path`` that times every parsed request.
    responses_total:
        Optional counter of those requests' responses by ``path``, ``status``.
    """

    #: What :attr:`port` raises before the front-end has started.
    _not_started_error: Type[ReproError] = ReproError
    #: Name of the :meth:`start_background` thread.
    _thread_name = "repro-http"

    def __init__(
        self,
        routes: Dict[str, Tuple[str, Handler]],
        *,
        host: str,
        port: int,
        request_seconds: Histogram,
        responses_total: Optional[Counter] = None,
    ) -> None:
        self._routes = routes
        self._host = host
        self._requested_port = port
        self._request_seconds = request_seconds
        self._responses_total = responses_total
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (available once started)."""
        if self._port is None:
            raise self._not_started_error(f"{type(self).__name__} is not started yet")
        return self._port

    @property
    def address(self) -> str:
        """``host:port`` of the running front-end."""
        return f"{self._host}:{self.port}"

    async def start(self: _FrontEnd) -> _FrontEnd:
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    def start_background(self: _FrontEnd) -> _FrontEnd:
        """Run the front-end on a daemon thread; returns once it is bound.

        This is how tests, the benchmark harness, and the command-line
        entry points embed a live server: ``start_background()``, talk to
        :attr:`port`, then :meth:`close`.
        """
        bound: "Future[None]" = Future()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as error:  # surface bind failures to the caller
                bound.set_exception(error)
                loop.close()
                return
            bound.set_result(None)
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        bound.result()
        return self

    def close(self) -> None:
        """Stop accepting and stop the loop thread."""
        loop, server = self._loop, self._server
        if loop is not None and server is not None and loop.is_running():
            loop.call_soon_threadsafe(server.close)
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # ------------------------------------------------------------------
    # One request per connection
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: Dict[str, str]
    ) -> Response:
        """Run ``path``'s handler; 404 off the table, 405 on a wrong method."""
        route = self._routes.get(path)
        if route is None:
            return 404, {"error": f"unknown endpoint {path!r}"}
        expected, handler = route
        if method != expected:
            return 405, {"error": f"{path} expects {expected}"}
        return await handler(body, headers)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._respond(reader)
            if response is not None:
                writer.write(response)
                await writer.drain()
        except ConnectionError:
            pass  # the client went away; there is no one left to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> Optional[bytes]:
        """The response to the connection's one request; ``None`` if none came."""
        try:
            request = await asyncio.wait_for(_read_request(reader), IO_TIMEOUT)
        except asyncio.TimeoutError:
            return _encode_response(400, {"error": "request read timed out"})
        except _BodyTooLarge as error:
            return _encode_response(413, {"error": str(error)})
        except Exception as error:
            return _encode_response(400, {"error": f"malformed request: {error}"})
        if request is None:
            return None
        method, path, body, headers = request
        route = path.split("?", 1)[0]
        started = time.perf_counter()
        try:
            status, payload = await self._dispatch(method, route, body, headers)
        except Exception as error:
            # Parse errors are the client's fault (400); anything escaping
            # a handler is ours (500).
            status, payload = 500, {
                "error": str(error),
                "error_type": type(error).__name__,
            }
        label = route if route in self._routes else "other"
        self._request_seconds.labels(path=label).observe(
            time.perf_counter() - started
        )
        if self._responses_total is not None:
            self._responses_total.labels(path=label, status=str(status)).inc()
        return _encode_response(status, payload)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
    """``(method, path, body, headers)``, or ``None`` when nothing was sent."""
    request_line, headers = await read_head(reader)
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) < 2:
        raise ValueError(f"bad request line {request_line!r}")
    content_length = int(headers.get("content-length", 0))
    if content_length > MAX_BODY_BYTES:
        raise _BodyTooLarge(
            f"request body of {content_length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(content_length) if content_length else b""
    return parts[0].upper(), parts[1], body, headers


def _encode_response(status: int, payload: Any) -> bytes:
    """The wire bytes of one response: JSON, or Prometheus text for a ``str``."""
    if isinstance(payload, str):  # text exposition (/metrics)
        blob = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        blob = json.dumps(payload, default=repr).encode("utf-8")
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(blob)}",
        "Connection: close",
    ]
    if status == 429:
        head.append("Retry-After: 1")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + blob
