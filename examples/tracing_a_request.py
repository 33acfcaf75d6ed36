#!/usr/bin/env python3
"""Tracing one request through the serving stack.

The observability layer (:mod:`repro.obs`) follows a single request —
identified by an ``X-Repro-Trace`` header the caller pins — through the
HTTP server, the cache lookup, the evaluation of a miss (on the server
thread serving the request), the engine's lazy first ``prepare()``, and
the compiled kernel, and hands the per-stage wall/CPU timings back
in the response's opt-in ``timings`` section.  This example

1. serves the karate graph from an in-process :class:`ServiceServer`,
2. sends one *traced* query (``timings=True`` plus a pinned trace id)
   and prints the span timeline the response carries,
3. repeats the identical query to show what a cache hit's timeline
   looks like — and that the answer checksum is byte-identical, traced
   or not (timing is response metadata, never part of the payload), and
4. scrapes ``GET /metrics`` and pretty-prints a few of the Prometheus
   series the request left behind.

Run with::

    python examples/tracing_a_request.py
"""

from __future__ import annotations

from repro import EstimatorConfig
from repro.datasets import load_dataset
from repro.engine.queries import KTerminalQuery
from repro.obs import parse_prometheus_text
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceServer,
)


def print_timeline(timings: dict) -> None:
    print(f"  trace id: {timings['trace_id']}")
    print(f"  {'span':<28} {'start':>9} {'wall':>9} {'cpu':>9}")
    for span in timings["spans"]:
        cpu = f"{span['cpu_ms']:.3f}" if "cpu_ms" in span else "-"
        print(
            f"  {span['name']:<28} {span['start_ms']:>7.3f}ms "
            f"{span['wall_ms']:>7.3f}ms {cpu:>9}"
        )


def main() -> None:
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=800, rng=7))
    catalog.register("karate", load_dataset("karate"))
    service = ReliabilityService(catalog)
    server = ServiceServer(service, port=0).start_background()
    print(f"serving on http://{server.address}\n")

    try:
        client = ServiceClient("127.0.0.1", server.port)
        query = KTerminalQuery(terminals=(1, 34))

        # --- 1. A traced cache miss: the full evaluation timeline -------
        traced = client.query(
            "karate", query, timings=True, trace_id="cafe0123cafe0123"
        )
        print("traced cache miss (full evaluation):")
        print_timeline(traced.raw["timings"])
        print()

        # --- 2. The same query again: a cache hit's timeline ------------
        hit = client.query("karate", query, timings=True)
        print(f"traced cache hit (cached={hit.cached}):")
        print_timeline(hit.raw["timings"])
        print()

        # --- 3. Tracing never changes the answer -------------------------
        plain = client.query("karate", query)
        assert "timings" not in plain.raw
        assert plain.checksum == traced.checksum == hit.checksum
        print(f"checksum {plain.checksum[:16]}… identical traced or not\n")

        # --- 4. What the requests left behind in /metrics ----------------
        samples, _, _ = parse_prometheus_text(client.metrics())
        print("a few of the Prometheus series on GET /metrics:")
        show = (
            "repro_http_request_seconds_count",
            "repro_service_requests_total",
            "repro_service_cache_hits_total",
            "repro_service_engine_evaluations_total",
            "repro_coalesce_submitted_total",
        )
        for name, labels, value in samples:
            if name in show:
                inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
                suffix = f"{{{inner}}}" if inner else ""
                print(f"  {name}{suffix} = {value:g}")
    finally:
        server.close()
        service.close()


if __name__ == "__main__":
    main()
