"""The one asyncio HTTP/1.1 front-end behind every serving address.

:class:`HttpFrontEnd` is the protocol half of both
:class:`~repro.service.server.ServiceServer` (a replica) and
:class:`~repro.cluster.router.Router` (the cluster's address): binding,
lifecycle, reading the request, routing it by path and method, metering
it and writing the JSON or Prometheus text response.  The subclasses pass
in their routes and instruments, so a client cannot tell a router from a
replica but by an answer's ``served_by``.

Connections are kept alive: one connection serves requests in turn
until the client sends ``Connection: close``, speaks HTTP/1.0 without
``Connection: keep-alive``, or leaves it idle for :data:`IO_TIMEOUT`
seconds (closed silently, with no response written).  Every response
says which with its ``Connection`` header.  A 413 (its body was never
read), a 400 for a request that does not parse, and a read that times
out in the middle of a request also close the connection after the
response.  :meth:`HttpFrontEnd.close` closes open connections too.
Statuses mean the same at every address; the front-end itself decides
404, 405, 413, and 400/500 for a request that does not parse or a
handler that raises:

=======  ============================================================
``400``  unparseable request line or headers, a started request not
         read in :data:`IO_TIMEOUT` seconds, or a client error in the
         body (not a JSON object, unknown graph, malformed query, bad
         terminals)
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
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple, Type, TypeVar

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

#: Seconds a front-end waits for one request's head and body, and for the
#: next request on an idle kept-alive connection (the router also bounds
#: each replica's answer to an aggregation probe by it).
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


async def read_head(
    reader: asyncio.StreamReader, first_line: Optional[bytes] = None
) -> Tuple[str, Dict[str, str]]:
    """An HTTP start line and its headers (names lower-cased).

    ``first_line`` is the start line when the caller already read it.  A
    blank start line (the peer sent nothing) comes back with no headers.
    """
    if first_line is None:
        first_line = await reader.readline()
    start_line = first_line.decode("ascii", "replace").strip()
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
    """Serve a route table over HTTP/1.1 on kept-alive connections.

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
        # The handler task of every open connection (loop thread only).
        self._connections: Set["asyncio.Task[None]"] = set()

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
        """Stop accepting, close open connections, stop the loop thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            shutdown = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            try:
                shutdown.result(timeout=10.0)
            except FutureTimeoutError:
                pass  # stopping the loop abandons what is still closing
            finally:
                loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    async def _shutdown(self) -> None:
        """Stop accepting and end every connection's handler task."""
        if self._server is not None:
            self._server.close()
        await asyncio.sleep(0)  # a connection accepted just now registers first
        while self._connections:
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)

    # ------------------------------------------------------------------
    # Requests on a kept-alive connection
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
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            keep_alive = True
            while keep_alive:
                response, keep_alive = await self._respond(reader)
                if response is None:
                    break
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # The client went away, or close() cancelled this task.  Either
            # way it ends normally: on Python 3.11 asyncio's stream callback
            # reads a cancelled connection task's exception and logs it.
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[Optional[bytes], bool]:
        """The response to the connection's next request, and whether the
        connection stays open after it; ``(None, False)`` when the client
        closed the connection or left it idle."""
        try:
            request = await _read_request(reader)
        except asyncio.TimeoutError:
            return _encode_response(400, {"error": "request read timed out"}), False
        except _BodyTooLarge as error:
            return _encode_response(413, {"error": str(error)}), False
        except ConnectionError:
            return None, False  # the client went away mid-request
        except Exception as error:
            return (
                _encode_response(400, {"error": f"malformed request: {error}"}),
                False,
            )
        if request is None:
            return None, False
        method, path, body, headers, keep_alive = request
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
        return _encode_response(status, payload, keep_alive=keep_alive), keep_alive


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes, Dict[str, str], bool]]:
    """``(method, path, body, headers, keep_alive)``, or ``None`` when the
    client closed the connection, or left it idle for :data:`IO_TIMEOUT`
    seconds, before a request line arrived.

    The rest of the request must then arrive within another
    :data:`IO_TIMEOUT` seconds (else ``asyncio.TimeoutError``).
    """
    timer = _expire_reads(reader)
    try:
        first_line = await reader.readline()
    except asyncio.TimeoutError:
        return None  # an idle connection: close it without a word
    finally:
        timer.cancel()
    timer = _expire_reads(reader)
    try:
        request_line, headers = await read_head(reader, first_line)
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
    finally:
        timer.cancel()
    connection = headers.get("connection", "").lower()
    if len(parts) > 2 and parts[2].upper() == "HTTP/1.1":
        keep_alive = connection != "close"
    else:  # HTTP/1.0 (or older) closes unless asked not to
        keep_alive = connection == "keep-alive"
    return parts[0].upper(), parts[1], body, headers, keep_alive


def _expire_reads(reader: asyncio.StreamReader) -> asyncio.TimerHandle:
    """Fail ``reader``'s pending and later reads with ``asyncio.TimeoutError``
    in :data:`IO_TIMEOUT` seconds, unless the handle is cancelled first.

    A timer costs a fraction of an ``asyncio.wait_for`` task per read; the
    connection is not read again after it fires.
    """
    return asyncio.get_running_loop().call_later(
        IO_TIMEOUT, reader.set_exception, asyncio.TimeoutError("read timed out")
    )


def _encode_response(status: int, payload: Any, *, keep_alive: bool = False) -> bytes:
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
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    if status == 429:
        head.append("Retry-After: 1")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + blob
