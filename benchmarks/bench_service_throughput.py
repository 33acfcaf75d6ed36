#!/usr/bin/env python
"""Benchmark: the query service under zipf-skewed concurrent load.

Starts a live in-process :class:`~repro.service.server.ServiceServer`
(JSON over HTTP on an ephemeral port) and replays a zipf-skewed request
stream (:func:`repro.experiments.workloads.service_workload`) against it
from 1, 8, and 32 concurrent blocking clients, recording throughput,
p50/p95 latency, and the cache hit rate per concurrency level into a
machine-readable ``BENCH_service.json``.

Three gates make the run a correctness check, not just a stopwatch:

* **Parity** — every response's checksum (cached or not) must equal the
  checksum of a direct ``engine.query(q, seed_index=0)`` evaluation on a
  fresh deterministic-seed engine; any divergence exits non-zero.
* **Cache effectiveness** — the same repeated zipf workload is replayed
  with the cache on and off; the cache + coalescer must cut engine
  evaluations by at least 2× (``--min-reduction``), or the run exits
  non-zero.
* **Tracing overhead** — the stream is replayed with the tracing
  subsystem enabled (but no request traced, the production default) and
  with it disabled process-wide; enabled-untraced throughput must stay
  within ``--max-trace-overhead`` (default 2%) of disabled, best of
  alternating rounds.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_service_throughput.py \
        --dataset karate --distinct 18 --requests 240 --clients 1,8,32
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.engine.queries import Query
from repro.experiments.workloads import service_workload
from repro.obs import trace as obs_trace
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ResultCache,
    ServiceClient,
    ServiceServer,
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``values`` (nearest-rank)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def reference_checksums(
    graph, config: EstimatorConfig, queries: Sequence[Query]
) -> List[str]:
    """Direct-engine checksums: each query as a fresh session's query 0."""
    engine = ReliabilityEngine(config).prepare(graph)
    return [
        results_checksum([engine.query(query, seed_index=0)]) for query in queries
    ]


def build_service(
    graph, dataset: str, config: EstimatorConfig, *, cache_on: bool
) -> Tuple[ReliabilityService, ServiceServer]:
    catalog = GraphCatalog(config)
    catalog.register(dataset, graph, label=f"dataset:{dataset}")
    service = ReliabilityService(catalog, cache=ResultCache() if cache_on else None)
    server = ServiceServer(
        service, port=0, max_inflight=16, queue_limit=256
    ).start_background()
    return service, server


def replay(
    port: int,
    dataset: str,
    queries: Sequence[Query],
    stream: Sequence[int],
    clients: int,
) -> Tuple[float, List[float], List[Tuple[int, str]], int]:
    """Replay the stream from ``clients`` threads against a live server.

    Returns ``(wall_seconds, per-request latencies, (query index, checksum)
    observations, error count)``.  Requests are pulled from one shared
    cursor, so the actual interleaving is raced — exactly the contention a
    cache and coalescer must stay correct under.
    """
    cursor_lock = threading.Lock()
    cursor = iter(stream)
    latencies: List[float] = []
    observations: List[Tuple[int, str]] = []
    errors = [0]
    results_lock = threading.Lock()

    def worker() -> None:
        with ServiceClient("127.0.0.1", port) as client:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    response = client.query(dataset, queries[index])
                except Exception:
                    with results_lock:
                        errors[0] += 1
                    continue
                elapsed = time.perf_counter() - started
                with results_lock:
                    latencies.append(elapsed)
                    observations.append((index, response.checksum))

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, latencies, observations, errors[0]


def tracing_overhead(
    graph,
    dataset: str,
    config: EstimatorConfig,
    queries: Sequence[Query],
    stream: Sequence[int],
    *,
    max_overhead: float,
    rounds: int = 3,
) -> Dict:
    """Throughput cost of the tracing subsystem when no request is traced.

    One warmed service, alternating replays with tracing enabled (the
    production default — no ``X-Repro-Trace`` header and no ``timings``
    request, so the cost is the per-request header lookup) and disabled
    process-wide.  Best-of-``rounds`` throughput per mode damps scheduler
    noise; the gate holds the enabled deficit under ``max_overhead``.
    """
    best = {True: 0.0, False: 0.0}
    service, server = build_service(graph, dataset, config, cache_on=True)
    try:
        # One untimed pass warms the cache so both modes measure the same
        # (mostly cache-hit) fast path, where fixed per-request costs are
        # proportionally largest.
        replay(server.port, dataset, queries, stream, clients=8)
        for _ in range(rounds):
            for enabled in (True, False):
                (obs_trace.enable if enabled else obs_trace.disable)()
                seconds, latencies, _, errors = replay(
                    server.port, dataset, queries, stream, clients=8
                )
                if errors == 0 and seconds > 0:
                    best[enabled] = max(best[enabled], len(latencies) / seconds)
    finally:
        obs_trace.enable()
        server.close()
        service.close()
    overhead = (
        (best[False] - best[True]) / best[False] if best[False] > 0 else 0.0
    )
    return {
        "rounds": rounds,
        "throughput_rps_tracing_enabled": round(best[True], 2),
        "throughput_rps_tracing_disabled": round(best[False], 2),
        "overhead_fraction": round(overhead, 4),
        "max_allowed": max_overhead,
        "ok": overhead <= max_overhead,
    }


def benchmark(
    *,
    dataset: str,
    distinct: int,
    requests: int,
    skew: float,
    samples: int,
    client_counts: Sequence[int],
    seed: int,
    backend: str,
    min_reduction: float,
    passes: int,
    max_trace_overhead: float,
) -> Dict:
    graph = load_dataset(dataset)
    config = EstimatorConfig(backend=backend, samples=samples, rng=seed)
    queries, stream = service_workload(
        graph, dataset, distinct=distinct, length=requests, skew=skew, seed=seed
    )
    expected = reference_checksums(graph, config, queries)

    runs = []
    parity_ok = True
    for clients in client_counts:
        service, server = build_service(graph, dataset, config, cache_on=True)
        try:
            seconds, latencies, observations, errors = replay(
                server.port, dataset, queries, stream, clients
            )
            stats = service.stats()
        finally:
            server.close()
            service.close()
        mismatches = sum(
            1 for index, checksum in observations if checksum != expected[index]
        )
        parity_ok = parity_ok and mismatches == 0 and errors == 0
        cache_stats = stats["cache"]
        runs.append(
            {
                "clients": clients,
                "requests": len(latencies),
                "errors": errors,
                "seconds": round(seconds, 4),
                "throughput_rps": round(len(latencies) / seconds, 2) if seconds else None,
                "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
                "p95_ms": round(percentile(latencies, 0.95) * 1000, 3),
                "cache_hit_rate": cache_stats["hit_rate"],
                "engine_evaluations": stats["service"]["engine_evaluations"],
                "coalesced": stats["coalescer"]["coalesced"],
                "parity_mismatches": mismatches,
            }
        )

    # Cache effectiveness: replay the stream `passes` times on one service
    # with the cache on, then with it off, and compare how many queries the
    # engine actually had to evaluate.
    effectiveness = {}
    evaluations = {}
    for cache_on in (True, False):
        service, server = build_service(graph, dataset, config, cache_on=cache_on)
        try:
            for _ in range(passes):
                _, _, observations, errors = replay(
                    server.port, dataset, queries, stream, clients=8
                )
                parity_ok = parity_ok and errors == 0
                parity_ok = parity_ok and all(
                    checksum == expected[index] for index, checksum in observations
                )
            evaluations[cache_on] = service.stats()["service"]["engine_evaluations"]
        finally:
            server.close()
            service.close()
    reduction = (
        evaluations[False] / evaluations[True] if evaluations[True] else float("inf")
    )
    effectiveness = {
        "passes": passes,
        "requests_per_pass": requests,
        "engine_evaluations_cache_on": evaluations[True],
        "engine_evaluations_cache_off": evaluations[False],
        "reduction_factor": round(reduction, 3),
        "min_required": min_reduction,
        "ok": reduction >= min_reduction,
    }

    tracing = tracing_overhead(
        graph,
        dataset,
        config,
        queries,
        stream,
        max_overhead=max_trace_overhead,
    )

    return {
        "benchmark": "service_throughput",
        "dataset": dataset,
        "backend": backend,
        "samples": samples,
        "distinct_queries": distinct,
        "requests": requests,
        "zipf_skew": skew,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "runs": runs,
        "cache_effectiveness": effectiveness,
        "tracing_overhead": tracing,
        "parity": {
            "all_equal": parity_ok,
            "reference": "engine.query(q, seed_index=0) on a fresh seeded engine",
            "excludes": ["elapsed_seconds", "preprocess_seconds"],
            "workload_checksum": results_checksum(
                [queries[index].to_dict() for index in stream]
            ),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Throughput/latency/hit-rate of the query service under zipf load."
    )
    parser.add_argument("--dataset", default="karate", help="bench-scale dataset key")
    parser.add_argument("--distinct", type=int, default=18, help="distinct queries")
    parser.add_argument("--requests", type=int, default=240, help="requests per run")
    parser.add_argument("--skew", type=float, default=1.1, help="zipf skew exponent")
    parser.add_argument("--samples", type=int, default=600, help="world-pool budget")
    parser.add_argument("--clients", default="1,8,32", help="client counts to time")
    parser.add_argument("--seed", type=int, default=2019, help="workload/engine seed")
    parser.add_argument("--backend", default="sampling", help="reliability backend")
    parser.add_argument(
        "--min-reduction", type=float, default=2.0,
        help="required cache-off/cache-on engine-evaluation ratio",
    )
    parser.add_argument(
        "--passes", type=int, default=2,
        help="times the stream is replayed in the effectiveness check",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=0.02,
        help=(
            "largest tolerated throughput deficit of tracing-enabled-but-"
            "untraced vs tracing-disabled (fraction, default 0.02 = 2%%)"
        ),
    )
    parser.add_argument("--out", default="BENCH_service.json", help="output JSON path")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: 10 distinct, 60 requests, 1 and 4 clients",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.distinct = 10
        args.requests = 60
        args.samples = 300
        args.clients = "1,4"

    client_counts = [int(token) for token in args.clients.split(",") if token.strip()]
    payload = benchmark(
        dataset=args.dataset,
        distinct=args.distinct,
        requests=args.requests,
        skew=args.skew,
        samples=args.samples,
        client_counts=client_counts,
        seed=args.seed,
        backend=args.backend,
        min_reduction=args.min_reduction,
        passes=args.passes,
        max_trace_overhead=args.max_trace_overhead,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")

    print(
        f"{payload['requests']} zipf requests over {payload['distinct_queries']} "
        f"distinct queries on {payload['dataset']!r} ({payload['backend']}, "
        f"s={payload['samples']}, {payload['cpu_count']} CPUs)"
    )
    for run in payload["runs"]:
        print(
            f"  clients={run['clients']}: {run['throughput_rps']} req/s, "
            f"p50 {run['p50_ms']}ms, p95 {run['p95_ms']}ms, "
            f"hit rate {run['cache_hit_rate']:.2f}, "
            f"{run['engine_evaluations']} engine evals"
        )
    eff = payload["cache_effectiveness"]
    print(
        f"  cache effectiveness over {eff['passes']} passes: "
        f"{eff['engine_evaluations_cache_off']} evals uncached vs "
        f"{eff['engine_evaluations_cache_on']} cached "
        f"({eff['reduction_factor']}x, need >= {eff['min_required']}x)"
    )
    tracing = payload["tracing_overhead"]
    print(
        f"  tracing overhead (untraced requests): "
        f"{tracing['throughput_rps_tracing_enabled']} req/s enabled vs "
        f"{tracing['throughput_rps_tracing_disabled']} req/s disabled "
        f"({tracing['overhead_fraction'] * 100:.2f}%, "
        f"allowed <= {tracing['max_allowed'] * 100:.0f}%)"
    )
    print(f"wrote {args.out}")

    if not payload["parity"]["all_equal"]:
        print("error: service results diverged from direct engine evaluation",
              file=sys.stderr)
        return 1
    if not eff["ok"]:
        print("error: cache + coalescer did not reduce engine evaluations enough",
              file=sys.stderr)
        return 1
    if not tracing["ok"]:
        print("error: tracing (disabled) costs more than the allowed "
              "throughput overhead",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
