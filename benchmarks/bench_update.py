#!/usr/bin/env python
"""Benchmark: dynamic graph updates vs. tearing the engine down.

A probability-only delta through :meth:`GraphCatalog.update` keeps the
2ECC decomposition index and the compiled CSR topology — only the
probability column, the content fingerprint, and the (lazily rebuilt)
world pools change.  This benchmark proves the two claims that make the
incremental path trustworthy:

* **Parity** — after *any* delta (probability-only batch, then a
  topology batch on top of it), every one of the six typed query kinds
  answers **bit-identically** to a fresh ``prepare()`` of an identically
  mutated reference graph, on both the ``sampling`` and ``s2bdd``
  backends (gated via ``results_checksum``).
* **Latency** — the probability-only update is cheap: wall-clock of
  ``catalog.update`` on tokyo must stay at or below ``--max-ratio``
  (default 0.25) of a full re-prepare of the post-delta graph.

Exit status is non-zero when any checksum diverges or the tokyo update
ratio exceeds the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_update.py
    PYTHONPATH=src python benchmarks/bench_update.py --quick
    PYTHONPATH=src python benchmarks/bench_update.py --out BENCH_update.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.engine import (
    AddEdge,
    EstimatorConfig,
    GraphDelta,
    ReliabilityEngine,
    RemoveEdge,
    SetEdgeProbability,
)
from repro.engine.queries import results_checksum
from repro.experiments.workloads import (
    DatasetCache,
    generate_searches,
    queries_from_searches,
)
from repro.graph.compiled import invalidate_compiled
from repro.service import GraphCatalog, graph_fingerprint

#: Query kinds of the parity workload (all six typed kinds).
WORKLOAD_KINDS = ("k-terminal", "threshold", "search", "top-k", "clustering", "subgraph")

BACKENDS = ("sampling", "s2bdd")


class ParityError(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ParityError(message)


def best_of(fn, repeats: int = 3):
    """Run ``fn`` ``repeats`` times; return (best wall-clock, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def probability_delta(graph, touched: int, seed: int) -> GraphDelta:
    """A deterministic probability-only batch over ``touched`` edges."""
    rng = random.Random(seed)
    edge_ids = sorted(graph.edge_ids())
    picks = rng.sample(edge_ids, min(touched, len(edge_ids)))
    return GraphDelta(
        tuple(
            SetEdgeProbability(edge_id, round(0.05 + 0.9 * rng.random(), 6))
            for edge_id in picks
        )
    )


def topology_delta(graph, seed: int) -> GraphDelta:
    """A deterministic remove+add batch (forces the full-prepare path).

    The added edges pin no ``edge_id``: allocation is deterministic, so
    the live graph and the identically constructed reference graph
    allocate the same ids and stay bit-comparable.
    """
    rng = random.Random(seed)
    edge_ids = sorted(graph.edge_ids())
    removed = rng.sample(edge_ids, 2)
    vertices = sorted(graph.vertices(), key=repr)
    additions = []
    for _ in range(2):
        u, v = rng.sample(range(len(vertices)), 2)
        additions.append(
            AddEdge(vertices[u], vertices[v], round(0.05 + 0.9 * rng.random(), 6))
        )
    return GraphDelta(tuple([RemoveEdge(edge_id) for edge_id in removed] + additions))


def time_full_path(
    catalog: GraphCatalog, name: str, seeds: Sequence[int], *, reference
) -> float:
    """Best wall-clock of ``catalog.update`` forced down the full path.

    This is the honest denominator for the incremental-update gate: the
    *same* end-to-end operation (validate, apply, re-prepare, new
    fingerprint, version bump) when the delta touches topology and the
    decomposition index + compiled CSR must be rebuilt.  Each repeat
    needs a fresh delta — replaying one would remove already-removed
    edges — so repeats see identical-size work on a slightly different
    graph; every delta is mirrored onto ``reference`` so the parity
    check downstream compares identical content.
    """
    best = float("inf")
    for seed in seeds:
        delta = topology_delta(catalog.entry(name).graph, seed=seed)
        t0 = time.perf_counter()
        outcome = catalog.update(name, delta)
        best = min(best, time.perf_counter() - t0)
        check(not outcome.incremental, "topology delta took the incremental path")
        delta.apply_to(reference)
    return best


def workload(graph, dataset: str, num_searches: int):
    """The six-kind query workload (pure data — shared by both engines)."""
    searches = generate_searches(graph, dataset, 3, num_searches, seed=2019)
    return [
        query
        for kind in WORKLOAD_KINDS
        for query in queries_from_searches(searches, kind, threshold=0.3)
    ]


def checksum_of(engine: ReliabilityEngine, graph, queries) -> str:
    """First-query-of-a-fresh-session checksum (the service's contract)."""
    results = engine.query_many(queries, graph=graph, seed_indices=[0] * len(queries))
    return results_checksum(results)


def bench_dataset(dataset: str, samples: int, num_searches: int, quick: bool) -> Dict:
    cache = DatasetCache(scale="bench")
    base = cache.graph(dataset)
    entry: Dict = {
        "vertices": base.num_vertices,
        "edges": base.num_edges,
        "backends": {},
    }
    touched = max(4, base.num_edges // 8)
    for backend in BACKENDS:
        config = EstimatorConfig(backend=backend, samples=samples, rng=7)
        live = base.copy()
        reference = base.copy()
        queries = workload(base, dataset, num_searches)

        catalog = GraphCatalog(config)
        catalog.register(dataset, live)
        engine = catalog.engine(dataset)
        engine.query_many(queries, graph=live, seed_indices=[0] * len(queries))

        # --- probability-only delta: incremental path -----------------
        prob_delta = probability_delta(base, touched, seed=11)
        update_seconds, outcome = best_of(
            lambda: catalog.update(dataset, prob_delta), repeats=7
        )
        check(outcome.incremental, "probability-only delta took the full path")
        check(
            outcome.version == 8 and outcome.fingerprint != graph_fingerprint(base),
            f"{dataset}/{backend}: versioned fingerprints did not advance",
        )
        prob_delta.apply_to(reference)

        fresh = ReliabilityEngine(config)

        def full_prepare():
            fresh.forget(reference)
            invalidate_compiled(reference)
            return fresh.prepare(reference)

        prepare_seconds, _ = best_of(full_prepare)

        live_sum = checksum_of(catalog.engine(dataset), live, queries)
        fresh_sum = checksum_of(fresh, reference, queries)
        check(
            live_sum == fresh_sum,
            f"{dataset}/{backend}: post-probability-delta checksum {live_sum} "
            f"diverges from fresh prepare {fresh_sum}",
        )

        # --- topology deltas: full path, timed and still bit-identical -
        topo_seeds = (23, 29, 31, 37, 41)
        full_path_seconds = time_full_path(
            catalog, dataset, topo_seeds, reference=reference
        )
        topo_fresh = ReliabilityEngine(config).prepare(reference)
        live_sum2 = checksum_of(catalog.engine(dataset), live, queries)
        fresh_sum2 = checksum_of(topo_fresh, reference, queries)
        check(
            live_sum2 == fresh_sum2,
            f"{dataset}/{backend}: post-topology-delta checksum {live_sum2} "
            f"diverges from fresh prepare {fresh_sum2}",
        )
        final = catalog.entry(dataset)
        check(
            final.version == outcome.version + len(topo_seeds)
            and final.fingerprint != outcome.fingerprint,
            f"{dataset}/{backend}: versioned fingerprints did not advance",
        )

        entry["backends"][backend] = {
            "queries": len(queries),
            "kinds": list(WORKLOAD_KINDS),
            "edges_touched": touched,
            "incremental_update_seconds": round(update_seconds, 5),
            "full_path_update_seconds": round(full_path_seconds, 5),
            "bare_prepare_seconds": round(prepare_seconds, 5),
            "update_ratio": round(update_seconds / full_path_seconds, 4),
            "checksum_after_probability_delta": live_sum,
            "checksum_after_topology_delta": live_sum2,
            "parity": "ok",
        }
    return entry


def run(args) -> Dict:
    plans = [("karate", 300, 3), ("tokyo", 400, 4)]
    if args.quick:
        plans = [("karate", 200, 2), ("tokyo", 250, 3)]
    report: Dict = {
        "benchmark": "dynamic-graph-updates",
        "quick": bool(args.quick),
        "max_ratio": args.max_ratio,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "graphs": {},
        "parity": "ok",
    }
    failures: List[str] = []
    for dataset, samples, num_searches in plans:
        entry = bench_dataset(dataset, samples, num_searches, args.quick)
        report["graphs"][dataset] = entry
        if dataset != "tokyo":
            continue
        for backend, section in entry["backends"].items():
            if section["update_ratio"] > args.max_ratio:
                failures.append(
                    f"tokyo/{backend}: probability-only update took "
                    f"{section['update_ratio']:.2%} of a full re-prepare "
                    f"(gate {args.max_ratio:.0%})"
                )
    report["latency_failures"] = failures
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI)")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=0.25,
        help=(
            "fail when tokyo's probability-only update wall-clock exceeds "
            "this fraction of a full re-prepare"
        ),
    )
    parser.add_argument("--out", default="BENCH_update.json", help="output JSON path")
    args = parser.parse_args(argv)

    try:
        report = run(args)
    except ParityError as error:
        print(f"PARITY FAILURE: {error}", file=sys.stderr)
        report = {"benchmark": "dynamic-graph-updates", "parity": f"FAILED: {error}"}
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        return 1

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for dataset, entry in report["graphs"].items():
        for backend, section in entry["backends"].items():
            print(
                f"{dataset}/{backend}: update {section['incremental_update_seconds']}s "
                f"vs full-path update {section['full_path_update_seconds']}s "
                f"(ratio {section['update_ratio']}), "
                f"{section['queries']} queries bit-identical after both deltas"
            )
    print("parity: ok (probability + topology deltas, six kinds, both backends)")

    if report["latency_failures"]:
        for failure in report["latency_failures"]:
            print(f"LATENCY FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
