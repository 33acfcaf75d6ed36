#!/usr/bin/env python
"""Benchmark: snapshot warm starts and replica scale-out through the router.

Two questions, each with a hard gate:

* **Warm starts** — how fast does a catalog come back from a
  prepared-state snapshot (:mod:`repro.service.snapshot`) compared to
  preparing from scratch, and is the warm engine *bit-identical*?  The
  load must finish in under ``--max-cold-fraction`` (default 25%) of the
  full prepare time on the ``--cold-dataset`` (default tokyo), and the
  snapshot's probe checksum must verify; either failure exits non-zero.
* **Scale-out** — what aggregate req/s does a zipf workload reach
  through the consistent-hash router at 1, 2, and 4 replicas, and does
  every response — router, failover, shared tier and all — still carry
  the checksum of a direct ``engine.query(q, seed_index=0)`` evaluation?
  Each level starts ``python -m repro.cluster`` as a child process, so
  the router runs in its own process as in production, not under the
  client threads' interpreter lock.
  Parity is always gated.  The ≥ ``--min-speedup`` two-replica speedup
  (default 1.8×) is gated **only on multicore hosts** — shared-nothing
  processes cannot beat one process on one core, so single-CPU runs
  record the numbers and print a note instead of failing.

Results land in a machine-readable ``BENCH_cluster.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py \
        --dataset karate --replicas 1,2,4 --requests 240 --clients 16
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.cluster import ClusterClient
from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.engine.queries import Query
from repro.experiments.workloads import service_workload
from repro.service import GraphCatalog


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


# ----------------------------------------------------------------------
# Cold start: snapshot load vs full prepare
# ----------------------------------------------------------------------
def time_cold_start(
    dataset: str, config: EstimatorConfig, snapshot_dir: str, *, repeats: int = 3
) -> Dict:
    """Time full prepare vs snapshot load of ``dataset``, checksum-verified.

    Both paths are timed from nothing in memory to a catalog ready to
    serve its first pooled answer: the full prepare pays dataset load,
    decomposition, compilation, and the default world-pool sampling pass;
    the snapshot load pays graph rebuild, integrity checks, pool
    adoption, and the probe re-evaluation (``verify=True``).  Each path
    takes the best of ``repeats`` runs, so the gate compares steady costs
    rather than scheduler noise.
    """
    prepare_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        graph = load_dataset(dataset)
        catalog = GraphCatalog(config)
        catalog.register(dataset, graph, label=f"dataset:{dataset}")
        engine = catalog.engine(dataset)
        engine.world_pool(graph)
        prepare_seconds = min(prepare_seconds, time.perf_counter() - started)

    catalog.save_snapshot(snapshot_dir)

    load_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        loaded = GraphCatalog.load_snapshot(snapshot_dir, verify=True)
        load_seconds = min(load_seconds, time.perf_counter() - started)

    warm = loaded.engine(dataset).stats
    return {
        "dataset": dataset,
        "samples": config.samples,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "repeats": repeats,
        "full_prepare_seconds": round(prepare_seconds, 4),
        "snapshot_load_seconds": round(load_seconds, 4),
        "load_fraction": round(load_seconds / prepare_seconds, 4)
        if prepare_seconds
        else None,
        "probe_verified": True,  # load_snapshot(verify=True) raised otherwise
        "warm_decompositions_computed": warm.decompositions_computed,
        "warm_world_pools_built": warm.world_pools_built,
    }


# ----------------------------------------------------------------------
# Scale-out: replicas behind the router
# ----------------------------------------------------------------------
def replay(
    port: int,
    dataset: str,
    queries: Sequence[Query],
    stream: Sequence[int],
    clients: int,
) -> Tuple[float, List[float], List[Tuple[int, str]], int]:
    """Replay the stream from ``clients`` threads against the router."""
    cursor_lock = threading.Lock()
    cursor = iter(stream)
    latencies: List[float] = []
    observations: List[Tuple[int, str]] = []
    errors = [0]
    results_lock = threading.Lock()

    def worker() -> None:
        with ClusterClient("127.0.0.1", port) as client:
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


def start_cluster(
    snapshot_dir: str, store_path: Optional[str], replicas: int
) -> Tuple[subprocess.Popen, int]:
    """Start ``python -m repro.cluster`` over the snapshot; ``(process, port)``.

    Returns once the router answers ``/healthz`` with every replica up.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cluster", "--port", "0",
            "--snapshot-dir", snapshot_dir, "--replicas", str(replicas),
            "--shared-store", store_path if store_path is not None else "none",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
        text=True,
    )
    # The banner is a few lines, so the pipe never fills while unread.
    match = re.search(r"http://[^:]+:(\d+)", process.stdout.readline())
    if match is None:
        stop_cluster(process)
        raise RuntimeError("the cluster process printed no address")
    port = int(match.group(1))
    deadline = time.monotonic() + 120.0
    with ClusterClient("127.0.0.1", port, max_retries=0) as client:
        while True:
            try:
                if client.healthz().get("healthy") == replicas:
                    return process, port
            except Exception:
                pass
            if time.monotonic() > deadline or process.poll() is not None:
                stop_cluster(process)
                raise RuntimeError("the cluster never became healthy")
            time.sleep(0.05)


def stop_cluster(process: subprocess.Popen) -> None:
    """SIGTERM the cluster (router and, through it, its replicas) and wait."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


def run_cluster_level(
    snapshot_dir: str,
    store_path: Optional[str],
    replicas: int,
    dataset: str,
    queries: Sequence[Query],
    stream: Sequence[int],
    expected: Sequence[str],
    clients: int,
) -> Dict:
    """One replica count: launch, replay, gather stats, tear down."""
    process, port = start_cluster(snapshot_dir, store_path, replicas)
    try:
        seconds, latencies, observations, errors = replay(
            port, dataset, queries, stream, clients
        )
        with ClusterClient("127.0.0.1", port) as client:
            stats = client.stats()
    finally:
        stop_cluster(process)
    mismatches = sum(
        1 for index, checksum in observations if checksum != expected[index]
    )
    shared_hits = sum(
        (replica.get("shared_store") or {}).get("hits", 0)
        for replica in stats["replicas"].values()
    )
    return {
        "replicas": replicas,
        "clients": clients,
        "requests": len(latencies),
        "errors": errors,
        "seconds": round(seconds, 4),
        "throughput_rps": round(len(latencies) / seconds, 2) if seconds else None,
        "p50_ms": round(percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(percentile(latencies, 0.95) * 1000, 3),
        "parity_mismatches": mismatches,
        "router": stats["router"],
        "totals": stats["totals"],
        "shared_store_hits": shared_hits,
    }


def benchmark(
    *,
    dataset: str,
    cold_dataset: str,
    distinct: int,
    requests: int,
    skew: float,
    samples: int,
    cold_samples: int,
    replica_counts: Sequence[int],
    clients: int,
    seed: int,
    backend: str,
    min_speedup: float,
    max_cold_fraction: float,
    workdir: str,
) -> Dict:
    graph = load_dataset(dataset)
    config = EstimatorConfig(backend=backend, samples=samples, rng=seed)
    queries, stream = service_workload(
        graph, dataset, distinct=distinct, length=requests, skew=skew, seed=seed
    )
    expected = reference_checksums(graph, config, queries)

    # The cold-start question is about production economics, so it is
    # always asked at the production sample budget (``--cold-samples``),
    # even when --quick shrinks the serving workload.
    cold_config = EstimatorConfig(backend=backend, samples=cold_samples, rng=seed)
    cold = time_cold_start(
        cold_dataset, cold_config, os.path.join(workdir, "snap-cold")
    )

    snapshot_dir = os.path.join(workdir, "snap-serve")
    catalog = GraphCatalog(config)
    catalog.register(dataset, graph, label=f"dataset:{dataset}")
    catalog.save_snapshot(snapshot_dir)

    runs = []
    for replicas in replica_counts:
        # A fresh store per level: levels must not warm each other up.
        store_path = os.path.join(workdir, f"shared-{replicas}.sqlite")
        runs.append(
            run_cluster_level(
                snapshot_dir,
                store_path,
                replicas,
                dataset,
                queries,
                stream,
                expected,
                clients,
            )
        )

    by_count = {run["replicas"]: run for run in runs}
    speedup_2 = None
    if 1 in by_count and 2 in by_count and by_count[1]["throughput_rps"]:
        speedup_2 = round(
            by_count[2]["throughput_rps"] / by_count[1]["throughput_rps"], 3
        )
    multicore = (os.cpu_count() or 1) >= 2
    parity_ok = all(
        run["parity_mismatches"] == 0 and run["errors"] == 0 for run in runs
    )
    cold_ok = (
        cold["load_fraction"] is not None
        and cold["load_fraction"] <= max_cold_fraction
    )

    return {
        "benchmark": "cluster_scaling",
        "dataset": dataset,
        "backend": backend,
        "samples": samples,
        "distinct_queries": distinct,
        "requests": requests,
        "zipf_skew": skew,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cold_start": {**cold, "max_fraction": max_cold_fraction, "ok": cold_ok},
        "runs": runs,
        "scaling": {
            "speedup_2_replicas": speedup_2,
            "min_required": min_speedup,
            "multicore": multicore,
            # On one CPU the speedup gate is informational: N processes
            # time-slice one core, so aggregate req/s cannot scale.
            "gated": multicore,
            "ok": (speedup_2 is None or speedup_2 >= min_speedup)
            if multicore
            else None,
        },
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
        description="Snapshot cold-start and replica scale-out benchmark."
    )
    parser.add_argument("--dataset", default="karate", help="serving dataset key")
    parser.add_argument(
        "--cold-dataset", default="tokyo",
        help="dataset for the cold-start comparison (bigger = fairer)",
    )
    parser.add_argument("--distinct", type=int, default=18, help="distinct queries")
    parser.add_argument("--requests", type=int, default=240, help="requests per level")
    parser.add_argument("--skew", type=float, default=1.1, help="zipf skew exponent")
    parser.add_argument("--samples", type=int, default=600, help="world-pool budget")
    parser.add_argument(
        "--cold-samples", type=int, default=1000,
        help="world-pool budget of the cold-start comparison (production default)",
    )
    parser.add_argument(
        "--replicas", default="1,2,4", help="replica counts to time"
    )
    parser.add_argument("--clients", type=int, default=16, help="client threads")
    parser.add_argument("--seed", type=int, default=2019, help="workload/engine seed")
    parser.add_argument("--backend", default="sampling", help="reliability backend")
    parser.add_argument(
        "--min-speedup", type=float, default=1.8,
        help="required 2-replica/1-replica throughput ratio (multicore only)",
    )
    parser.add_argument(
        "--max-cold-fraction", type=float, default=0.25,
        help="snapshot load time as a fraction of full prepare, at most",
    )
    parser.add_argument("--out", default="BENCH_cluster.json", help="output JSON path")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: 10 distinct, 80 requests, 1 and 2 replicas",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.distinct = 10
        args.requests = 80
        args.samples = 300
        args.replicas = "1,2"
        args.clients = 8

    replica_counts = [
        int(token) for token in args.replicas.split(",") if token.strip()
    ]
    workdir = tempfile.mkdtemp(prefix="bench-cluster-")
    try:
        payload = benchmark(
            dataset=args.dataset,
            cold_dataset=args.cold_dataset,
            distinct=args.distinct,
            requests=args.requests,
            skew=args.skew,
            samples=args.samples,
            cold_samples=args.cold_samples,
            replica_counts=replica_counts,
            clients=args.clients,
            seed=args.seed,
            backend=args.backend,
            min_speedup=args.min_speedup,
            max_cold_fraction=args.max_cold_fraction,
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")

    cold = payload["cold_start"]
    print(
        f"cold start on {cold['dataset']!r} (s={cold['samples']}): full prepare "
        f"{cold['full_prepare_seconds']}s vs snapshot load "
        f"{cold['snapshot_load_seconds']}s "
        f"({cold['load_fraction']:.1%} of prepare, need <= "
        f"{cold['max_fraction']:.0%}, probe verified)"
    )
    print(
        f"{payload['requests']} zipf requests over "
        f"{payload['distinct_queries']} distinct queries on "
        f"{payload['dataset']!r} ({payload['backend']}, "
        f"s={payload['samples']}, {payload['cpu_count']} CPUs, "
        f"{args.clients} clients)"
    )
    for run in payload["runs"]:
        print(
            f"  replicas={run['replicas']}: {run['throughput_rps']} req/s, "
            f"p50 {run['p50_ms']}ms, p95 {run['p95_ms']}ms, "
            f"failovers {run['router']['failovers']}, "
            f"shared-store hits {run['shared_store_hits']}"
        )
    scaling = payload["scaling"]
    if scaling["speedup_2_replicas"] is not None:
        note = (
            f"(gated, need >= {scaling['min_required']}x)"
            if scaling["gated"]
            else "(informational: single-CPU host, gate skipped)"
        )
        print(f"  2-replica speedup: {scaling['speedup_2_replicas']}x {note}")
    print(f"wrote {args.out}")

    if not payload["parity"]["all_equal"]:
        print(
            "error: cluster results diverged from direct engine evaluation",
            file=sys.stderr,
        )
        return 1
    if not cold["ok"]:
        print(
            "error: snapshot load exceeded the cold-start budget",
            file=sys.stderr,
        )
        return 1
    if scaling["gated"] and scaling["ok"] is False:
        print(
            "error: 2-replica throughput did not scale enough",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
