"""The cluster front-end: one address, consistent routing, failover.

The :class:`Router` speaks exactly the service's JSON/HTTP wire format —
it runs on the same :class:`~repro.service.frontend.HttpFrontEnd` as
every replica, so a :class:`~repro.service.client.ServiceClient` pointed
at the router cannot tell it from a single replica — and forwards each
query to the replica that owns its routing key on the consistent-hash
ring:

    ``graph_fingerprint | query.canonical_key()``

The graph fingerprint leads (a replica accumulates affinity for the
graphs it serves), and the query key refines it so a workload on *one*
graph — the common case — still spreads over every replica instead of
saturating a single owner.  Placement is per-*key*, which is exactly the
unit of the replicas' result caches: repeats of a query hit the same
replica's warm memory cache, while distinct queries fan out.

Failure handling is two-layer.  The router walks the ring's preference
list when a forward fails (the answer is deterministic, so *any* replica
can serve any key — affinity is an optimization, never a correctness
constraint), counting a ``failovers``; and it reports the replica to the
supervisor, whose monitor respawns it with backoff.  ``/stats`` and
``/healthz`` aggregate over every live replica, adding the router's own
counters and the supervisor's restart counts.

``POST /update`` is the one write path and the one *broadcast*: a graph
delta must reach every live replica or the shared-nothing fleet forks,
so the router fans it out to all of them and only answers 200 when all
of them did (replicas launched without ``--allow-updates`` answer 403,
surfacing the read-only default).  A successful update drops the learned
fingerprint map so routing keys re-learn the new content fingerprint.

Connections to replicas are kept alive, in a small idle pool per replica
endpoint.  A pooled connection that fails before any response byte (the
replica closed it while idle) is replaced once by a fresh connection —
the replica is fine, so that is neither a failover nor a failure report.
Updates always go out on a fresh connection and are never sent twice.

Observability: an ``X-Repro-Trace`` header (or a ``"timings": true``
request field) rides through to the owning replica, so one trace id
spans router → replica → engine and the replica's ``timings`` section
comes back with the router's own forwarding span stitched in.  ``GET
/metrics`` scrapes every live replica's exposition, re-labels each
series with ``replica="..."``, and merges them with the router's own
registry and forwarding counters into one Prometheus text page.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.engine.queries import query_from_dict
from repro.exceptions import ClusterError
from repro.cluster.ring import HashRing
from repro.cluster.supervisor import ReplicaSupervisor
from repro.obs import get_registry
from repro.obs.metrics import (
    MetricsRegistry,
    Sample,
    counter_field,
    parse_prometheus_text,
    stats_samples,
)
from repro.obs.trace import TRACE_HEADER, new_trace, parse_header
from repro.service.frontend import (
    IO_TIMEOUT,
    HttpFrontEnd,
    Response,
    json_object,
    read_head,
)

#: One open connection to a replica.
_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _Unanswered(ConnectionError):
    """A connection failed before any byte of the response arrived."""

__all__ = ["Router", "RouterStats", "router_samples"]


@dataclass
class RouterStats:
    """Forwarding counters of one :class:`Router`."""

    requests: int = counter_field("Requests the router parsed, 404s and 405s included.")
    forwarded: int = counter_field(
        "Forwards a replica answered (each replica of an update broadcast counts)."
    )
    failovers: int = counter_field(
        "Forwards that failed in transport and moved to the next replica."
    )
    errors: int = counter_field(
        "Requests that failed: a handler raised, an update broadcast failed, "
        "or every replica failed."
    )
    no_replica: int = counter_field("Requests that found no live replica.")
    updates: int = counter_field("Graph deltas every live replica applied.")


def router_samples(stats: RouterStats, restarts: Mapping[str, int]) -> List[Sample]:
    """The router's own ``/metrics`` samples: its counters plus respawns."""
    samples = stats_samples("repro_router", stats)
    for member in sorted(restarts):
        samples.append(
            (
                "repro_replica_restarts_total",
                "counter",
                "Replica respawns performed by the supervisor.",
                {"replica": str(member)},
                float(restarts[member]),
            )
        )
    return samples


class Router(HttpFrontEnd):
    """Route service requests onto a supervised replica pool.

    Parameters
    ----------
    supervisor:
        The (started) :class:`ReplicaSupervisor` owning the replicas.
        The ring is built over its slot identities, so respawns (new
        ports) never move keys.
    host / port:
        The router's own bind address (``port=0`` for ephemeral).
    forward_timeout:
        Seconds one forwarded request may take end to end.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` behind the
        router's own series on ``GET /metrics`` (front-end latency by
        path).  Defaults to the process-global registry.
    """

    _not_started_error = ClusterError
    _thread_name = "repro-cluster-router"

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        forward_timeout: float = 300.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._supervisor = supervisor
        self._forward_timeout = forward_timeout
        self._registry = registry if registry is not None else get_registry()
        self._ring = HashRing(supervisor.keys())
        self._stats = RouterStats()
        self._stats_lock = threading.Lock()
        self._fingerprints: Dict[str, str] = {}
        # Kept-alive connections per replica endpoint (loop thread only).
        self._idle: Dict[str, List[_Connection]] = {}
        super().__init__(
            {
                "/healthz": ("GET", self._aggregate_healthz),
                "/graphs": ("GET", self._forward_graphs),
                "/stats": ("GET", self._aggregate_stats),
                "/metrics": ("GET", self._aggregate_metrics),
                "/query": ("POST", self._forward_query),
                "/query_batch": ("POST", self._forward_batch),
                "/update": ("POST", self._forward_update),
            },
            host=host,
            port=port,
            request_seconds=self._registry.histogram(
                "repro_router_request_seconds",
                "Router front-end latency by path.",
                labels=("path",),
            ),
        )

    def stats(self) -> RouterStats:
        """An independent snapshot of the router's forwarding counters."""
        with self._stats_lock:
            return replace(self._stats)

    async def _shutdown(self) -> None:
        """Close client connections, then every pooled replica connection."""
        await super()._shutdown()
        for endpoint in list(self._idle):
            await self._drop_pool(endpoint)

    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: Dict[str, str]
    ) -> Response:
        # Every parsed request counts, 404s and 405s included; every
        # exception escaping a handler counts as an error.
        with self._stats_lock:
            self._stats.requests += 1
        try:
            return await super()._dispatch(method, path, body, headers)
        except Exception:
            with self._stats_lock:
                self._stats.errors += 1
            raise

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def routing_key(self, graph: str, query_payload: Any) -> str:
        """The ring key of one query (public so tests can predict owners)."""
        fingerprint = self._fingerprints.get(graph, graph)
        try:
            canonical = query_from_dict(query_payload).canonical_key()
        except Exception:
            # Malformed queries still route (the replica will answer 400
            # with the real error); any stable key works.
            canonical = json.dumps(query_payload, sort_keys=True, default=repr)
        return f"{fingerprint}|{canonical}"

    async def _refresh_fingerprints(self) -> None:
        """Learn ``{graph name: content fingerprint}`` from a live replica.

        Best-effort: until it succeeds, names themselves serve as ring
        keys — still deterministic, merely not content-addressed.
        """
        # Slot order (replica-0, replica-1, ...) is insertion-ordered and
        # only picks which replica answers first; the learned mapping is
        # identical whichever one does.
        for key, endpoint in self._supervisor.live_endpoints().items():  # reprolint: ok(ORD001)
            try:
                status, payload = await self._http_request(
                    endpoint, "GET", "/graphs"
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                continue
            if status == 200:
                self._fingerprints = {
                    entry["name"]: entry["fingerprint"]
                    for entry in payload.get("graphs", [])
                }
                return

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _forward_query(self, body: bytes, headers: Dict[str, str]) -> Response:
        try:
            payload = json_object(body)
            graph = payload["graph"]
        except (ValueError, KeyError) as error:
            return 400, {"error": f"bad request body: {error}"}
        if not self._fingerprints:
            await self._refresh_fingerprints()
        key = self.routing_key(graph, payload.get("query"))
        # Adopt the caller's trace id (or mint one when the body asks for
        # timings) and propagate it to the replica, so one id spans
        # router → replica → engine.
        trace_id = parse_header(headers.get(TRACE_HEADER.lower()))
        trace = (
            new_trace(trace_id)
            if (trace_id or bool(payload.get("timings")))
            else None
        )
        extra_headers = {TRACE_HEADER: trace.trace_id} if trace is not None else None
        started = time.perf_counter()
        status, answer = await self._forward_keyed(
            "POST", "/query", body, key, extra_headers=extra_headers
        )
        if trace is not None and isinstance(answer, dict):
            timings = answer.get("timings")
            if isinstance(timings, dict):
                # The replica built its trace from the forwarded id; add
                # the router's enveloping span so the timeline shows the
                # hop's full cost (forward + failovers + transport).
                timings.setdefault("spans", []).insert(
                    0,
                    {
                        "name": "router.forward",
                        "start_ms": 0.0,
                        "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
                    },
                )
        return status, answer

    async def _forward_batch(self, body: bytes, headers: Dict[str, str]) -> Response:
        """Scatter a batch over the ring, gather in submission order.

        Items are partitioned by owning replica and each partition goes
        out as one ``/query_batch`` sub-request, concurrently; each
        replica coalesces repeats among the items it owns.  A
        failed partition degrades to per-item error entries — batch
        semantics stay per-item, exactly like a single replica's.
        """
        try:
            payload = json_object(body)
            graph = payload["graph"]
            queries = payload["queries"]
            if not isinstance(queries, list):
                raise ValueError("'queries' must be a list")
        except (ValueError, KeyError) as error:
            return 400, {"error": f"bad request body: {error}"}
        if not self._fingerprints:
            await self._refresh_fingerprints()
        trace_id = parse_header(headers.get(TRACE_HEADER.lower()))
        extra_headers = {TRACE_HEADER: trace_id} if trace_id else None

        partitions: Dict[str, List[int]] = {}
        for position, query in enumerate(queries):
            owner_key = self.routing_key(graph, query)
            try:
                owner = self._preferred_live(owner_key)[0]
            except ClusterError:
                with self._stats_lock:
                    self._stats.no_replica += 1
                return 503, {"error": "no live replica to serve the batch"}
            partitions.setdefault(owner, []).append(position)

        results: List[Optional[Dict[str, Any]]] = [None] * len(queries)

        async def _run_partition(member: str, positions: List[int]) -> None:
            sub_body = json.dumps(
                {"graph": graph, "queries": [queries[i] for i in positions]}
            ).encode("utf-8")
            # Failover starts from the partition's owner and walks the
            # same preference order every router would.
            status, payload = await self._forward_with_failover(
                "POST",
                "/query_batch",
                sub_body,
                first=member,
                extra_headers=extra_headers,
            )
            if status == 200:
                sub_results = payload.get("results", [])
                for offset, position in enumerate(positions):
                    if offset < len(sub_results):
                        results[position] = sub_results[offset]
                    else:  # pragma: no cover - defensive
                        results[position] = {
                            "error": "replica returned too few results",
                            "error_type": "ClusterError",
                        }
            else:
                error = {
                    "error": str(payload.get("error", f"status {status}")),
                    "error_type": payload.get("error_type", "ClusterError"),
                }
                for position in positions:
                    results[position] = dict(error)

        await asyncio.gather(
            *(
                _run_partition(member, positions)
                for member, positions in partitions.items()
            )
        )
        return 200, {"graph": graph, "results": results}

    async def _forward_update(self, body: bytes, headers: Dict[str, str]) -> Response:
        """Broadcast a graph delta to *every* live replica.

        Queries route to one owner, but replicas are shared-nothing: a
        delta applied to only one would silently fork the fleet, so an
        update is all-or-error.  Every live replica gets the same
        ``POST /update``; the response reports each replica's outcome
        under ``"replicas"`` and carries the first replica's payload as
        the summary (the catalog's update result is deterministic, so
        all successful replicas report the same fingerprints/version).
        Any non-200 answer comes back as that failure's status — the
        caller must treat the fleet as divergent and rebuild or retry.
        Transport failures are reported to the supervisor like any
        failed forward, but never failed over: the point is reaching
        *this* replica, not any replica.
        """
        try:
            payload = json_object(body)
            payload["graph"]
        except (ValueError, KeyError) as error:
            return 400, {"error": f"bad request body: {error}"}
        live = self._supervisor.live_endpoints()
        if not live:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": "no live replica to apply the update"}

        outcomes: Dict[str, Tuple[int, Dict[str, Any]]] = {}

        async def _apply(member: str, endpoint: str) -> None:
            try:
                # A fresh connection: a delta must never be sent twice,
                # so it cannot ride a pooled connection that may have
                # gone stale.
                status, answer = await asyncio.wait_for(
                    self._http_request(endpoint, "POST", "/update", body, pooled=False),
                    self._forward_timeout,
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
                self._supervisor.notify_failure(member)
                outcomes[member] = (502, {
                    "error": f"replica unreachable: {error}",
                    "error_type": "ClusterError",
                })
                return
            with self._stats_lock:
                self._stats.forwarded += 1
            outcomes[member] = (
                status, answer if isinstance(answer, dict) else {"result": answer}
            )

        await asyncio.gather(
            *(_apply(member, endpoint) for member, endpoint in live.items())
        )
        per_replica = {
            member: {"status": status, **answer}
            for member, (status, answer) in sorted(outcomes.items())
        }
        failures = [
            (status, answer)
            for status, answer in (outcomes[m] for m in sorted(outcomes))
            if status != 200
        ]
        if failures:
            with self._stats_lock:
                self._stats.errors += 1
            status, answer = failures[0]
            return status, {
                "error": str(answer.get("error", f"status {status}")),
                "error_type": answer.get("error_type", "ClusterError"),
                "replicas": per_replica,
            }
        with self._stats_lock:
            self._stats.updates += 1
        # The graph's content fingerprint changed on every replica: drop
        # the learned mapping so the next query re-learns it and routing
        # keys follow the new content.
        self._fingerprints = {}
        first = outcomes[sorted(outcomes)[0]][1]
        return 200, {**first, "replicas": per_replica}

    # ------------------------------------------------------------------
    # Forwarding primitives
    # ------------------------------------------------------------------
    def _preferred_live(self, key: str) -> List[str]:
        """The ring's preference list for ``key``, filtered to live replicas."""
        live = self._supervisor.live_endpoints()
        order = [member for member in self._ring.preference(key) if member in live]
        if not order:
            raise ClusterError("no live replica to serve the request")
        return order

    async def _forward_keyed(
        self,
        method: str,
        path: str,
        body: bytes,
        key: str,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            first = self._preferred_live(key)[0]
        except ClusterError as error:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": str(error)}
        return await self._forward_with_failover(
            method, path, body, first=first, extra_headers=extra_headers
        )

    async def _forward_with_failover(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        first: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Forward to ``first``, then down the live member list on failure.

        Only transport-level failures (connect/read errors, timeouts)
        fail over — an HTTP error status is the replica's *answer* and is
        passed through; retrying a 400 elsewhere would just repeat it.
        """
        live = self._supervisor.live_endpoints()
        members = [first] + [key for key in sorted(live) if key != first]
        last_error: Optional[BaseException] = None
        for attempt, member in enumerate(members):
            endpoint = live.get(member)
            if endpoint is None:
                continue
            try:
                status, payload = await asyncio.wait_for(
                    self._http_request(
                        endpoint, method, path, body, extra_headers=extra_headers
                    ),
                    self._forward_timeout,
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as error:
                last_error = error
                self._supervisor.notify_failure(member)
                await self._drop_pool(endpoint)
                with self._stats_lock:
                    self._stats.failovers += 1
                live = self._supervisor.live_endpoints()
                continue
            with self._stats_lock:
                self._stats.forwarded += 1
            if isinstance(payload, dict):
                payload.setdefault("served_by", member)
            return status, payload
        with self._stats_lock:
            self._stats.errors += 1
        return 502, {
            "error": f"every live replica failed the request: {last_error}",
            "error_type": "ClusterError",
        }

    async def _forward_graphs(self, body: bytes, headers: Dict[str, str]) -> Response:
        """Forward ``GET /graphs`` to the first live replica in slot order."""
        live = self._supervisor.live_endpoints()
        if not live:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": "no live replica"}
        first = sorted(live)[0]
        return await self._forward_with_failover("GET", "/graphs", b"", first=first)

    async def _http_request(
        self,
        endpoint: str,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        extra_headers: Optional[Dict[str, str]] = None,
        raw: bool = False,
        pooled: bool = True,
    ) -> Tuple[int, Any]:
        """One HTTP exchange with a replica: its status and parsed JSON body.

        Runs on an idle kept-alive connection to ``endpoint`` when there
        is one, and puts the connection back after a complete response.
        A pooled connection that fails before any response byte is
        replaced by a fresh connection and the request sent once more;
        that is not a failover.  ``pooled=False`` uses a fresh
        connection only and never sends the request twice.

        With ``raw`` the response body comes back as decoded text instead
        of parsed JSON — the ``/metrics`` scrape path, where the replica
        answers Prometheus text.
        """
        answer = None
        idle = self._idle.get(endpoint) if pooled else None
        while idle and answer is None:
            connection = idle.pop()
            if _closed_by_replica(connection):
                connection[1].close()
                continue
            try:
                answer = await self._exchange(
                    endpoint, connection, method, path, body, extra_headers
                )
            except _Unanswered:
                break
        if answer is None:
            host, _, port = endpoint.rpartition(":")
            connection = await asyncio.open_connection(host, int(port))
            answer = await self._exchange(
                endpoint, connection, method, path, body, extra_headers, pooled=pooled
            )
        status, blob = answer
        if raw:
            return status, blob.decode("utf-8", "replace")
        try:
            return status, json.loads(blob.decode("utf-8"))
        except ValueError:
            return status, {"error": blob.decode("utf-8", "replace")}

    async def _exchange(
        self,
        endpoint: str,
        connection: _Connection,
        method: str,
        path: str,
        body: bytes,
        extra_headers: Optional[Dict[str, str]],
        *,
        pooled: bool = True,
    ) -> Tuple[int, bytes]:
        """Send one request on ``connection`` and read its response.

        Raises :class:`_Unanswered` when the connection failed before any
        response byte.  The connection is closed on any failure, and
        pooled again after a complete response unless the replica (or
        ``pooled=False``) closes it.
        """
        reader, writer = connection
        lines = [f"{method} {path} HTTP/1.1", f"Host: {endpoint}"]
        if not pooled:
            lines.append("Connection: close")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        if body:
            lines += [
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
        try:
            try:
                writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
                await writer.drain()
                first_line = await reader.readline()
            except ConnectionError as error:
                raise _Unanswered(str(error)) from error
            if not first_line:
                raise _Unanswered("connection closed before the response")
            status_line, response_headers = await read_head(reader, first_line)
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"bad status line {status_line!r}")
            content_length = int(response_headers.get("content-length", 0))
            blob = await reader.readexactly(content_length) if content_length else b""
        except BaseException:
            writer.close()
            raise
        if pooled and response_headers.get("connection", "").lower() != "close":
            self._park(endpoint, connection)
        else:
            writer.close()
        return int(parts[1]), blob

    def _park(self, endpoint: str, connection: _Connection) -> None:
        """Put ``connection`` back in ``endpoint``'s idle pool.

        Pooled connections the replica has closed meanwhile are closed and
        dropped here: left in the pool, each would hold a half-closed
        socket until a request happened to pop it.
        """
        idle = self._idle.setdefault(endpoint, [])
        kept = []
        for pooled in idle:
            if _closed_by_replica(pooled):
                pooled[1].close()
            else:
                kept.append(pooled)
        idle[:] = kept + [connection]

    async def _drop_pool(self, endpoint: str) -> None:
        """Close every idle connection to ``endpoint``."""
        writers = [writer for _, writer in self._idle.pop(endpoint, [])]
        for writer in writers:
            writer.close()
        await asyncio.gather(
            *(writer.wait_closed() for writer in writers), return_exceptions=True
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def _aggregate_healthz(
        self, body: bytes, headers: Dict[str, str]
    ) -> Response:
        live = self._supervisor.live_endpoints()
        replicas: Dict[str, Any] = {}

        async def _probe(member: str, endpoint: str) -> None:
            try:
                status, payload = await asyncio.wait_for(
                    self._http_request(endpoint, "GET", "/healthz"), IO_TIMEOUT
                )
                replicas[member] = payload if status == 200 else {
                    "status": f"error {status}"
                }
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                replicas[member] = {"status": "unreachable"}

        await asyncio.gather(
            *(_probe(member, endpoint) for member, endpoint in live.items())
        )
        for member in self._supervisor.keys():
            replicas.setdefault(member, {"status": "down"})
        healthy = sum(
            1 for payload in replicas.values() if payload.get("status") == "ok"
        )
        status = "ok" if healthy else "down"
        return (200 if healthy else 503), {
            "status": status,
            "replicas": replicas,
            "healthy": healthy,
            "expected": len(self._supervisor.keys()),
        }

    async def _aggregate_stats(self, body: bytes, headers: Dict[str, str]) -> Response:
        live = self._supervisor.live_endpoints()
        restarts = self._supervisor.restart_counts()
        per_replica: Dict[str, Any] = {}

        async def _collect(member: str, endpoint: str) -> None:
            # Each replica's section leads with its identity — slot key,
            # endpoint, supervisor respawn count — so aggregated numbers
            # stay attributable to the process that produced them.
            identity = {
                "member": member,
                "endpoint": endpoint,
                "restarts": int(restarts.get(member, 0)),
            }
            try:
                status, payload = await asyncio.wait_for(
                    self._http_request(endpoint, "GET", "/stats"), IO_TIMEOUT
                )
                if status == 200:
                    per_replica[member] = {**identity, **payload}
                else:
                    per_replica[member] = {**identity, "status": f"error {status}"}
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                per_replica[member] = {**identity, "status": "unreachable"}

        await asyncio.gather(
            *(_collect(member, endpoint) for member, endpoint in live.items())
        )
        for member in self._supervisor.keys():
            per_replica.setdefault(
                member,
                {
                    "member": member,
                    "endpoint": None,
                    "restarts": int(restarts.get(member, 0)),
                    "status": "down",
                },
            )
        totals = {
            "requests": 0,
            "cache_hits": 0,
            "shared_store_hits": 0,
            "engine_evaluations": 0,
            "errors": 0,
        }
        for payload in per_replica.values():
            service = payload.get("service", {})
            for field in totals:
                totals[field] += int(service.get(field, 0))
        return 200, {
            "router": asdict(self.stats()),
            "totals": totals,
            "replicas": dict(sorted(per_replica.items())),
            "restarts": restarts,
        }

    async def _aggregate_metrics(
        self, body: bytes, headers: Dict[str, str]
    ) -> Response:
        """One Prometheus text page for the whole cluster.

        Scrapes every live replica's ``/metrics``, re-emits each parsed
        series with a ``replica="<member>"`` label, and appends the
        router's own registry plus its forwarding counters and the
        supervisor's respawn counts.  Replicas that fail to answer or
        serve unparseable text are skipped — a scrape must never take
        the router down.
        """
        live = self._supervisor.live_endpoints()
        scraped: Dict[str, Tuple[Any, Dict[str, str], Dict[str, str]]] = {}

        async def _scrape(member: str, endpoint: str) -> None:
            try:
                status, text = await asyncio.wait_for(
                    self._http_request(endpoint, "GET", "/metrics", raw=True),
                    IO_TIMEOUT,
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                return
            if status != 200 or not isinstance(text, str):
                return
            try:
                scraped[member] = parse_prometheus_text(text)
            except ValueError:
                return

        await asyncio.gather(
            *(_scrape(member, endpoint) for member, endpoint in live.items())
        )
        extra = router_samples(self.stats(), self._supervisor.restart_counts())
        for member in sorted(scraped):
            samples, types, helps = scraped[member]
            for name, labels, value in samples:
                # Histogram component series (_bucket/_sum/_count) carry
                # their family's TYPE line; re-emitted standalone they
                # must go out untyped to stay valid exposition.
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix) and name[: -len(suffix)] in types:
                        base = name[: -len(suffix)]
                        break
                kind = types.get(base, "untyped") if base == name else "untyped"
                extra.append(
                    (
                        name,
                        kind,
                        helps.get(base, ""),
                        {**labels, "replica": member},
                        value,
                    )
                )
        return 200, self._registry.render(extra_samples=extra)


def _closed_by_replica(connection: _Connection) -> bool:
    """Whether the replica closed an idle pooled connection."""
    reader, writer = connection
    return reader.at_eof() or writer.is_closing()
