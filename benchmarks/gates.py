#!/usr/bin/env python
"""The benchmark gates: one runner, one check record, one JSON schema.

Usage::

    PYTHONPATH=src python benchmarks/gates.py all
    PYTHONPATH=src python benchmarks/gates.py kernel --quick --ci
    PYTHONPATH=src python benchmarks/gates.py cluster --out BENCH_cluster.json

``--quick`` runs the CI sizes; ``--ci`` judges the timed checks by the CI
column of :data:`BOUNDS` (looser where a shared runner's noise needs it);
``--out`` names the JSON record (default ``BENCH_gates.json``).

Each gate times one layer of the stack against the code or the path it
replaced and proves, through parity checks, that the answers did not move:

* ``kernel`` — the compiled graph kernel against the pre-kernel code,
  embedded below or imported from ``tests/reference/``, on karate and
  tokyo: seeded world pools, packed pool scans, the sampling estimator,
  S²BDD stratum completions (Monte Carlo and Horvitz–Thompson outputs
  and random state), and all six query kinds on the ``sampling`` and
  ``s2bdd`` backends against golden checksums.  The ``s2bdd`` workload
  runs twice per configuration, once with the dict-keyed reference
  construction (``tests/reference/s2bdd_dict.py``) patched in for
  ``S2BDD.construct`` and the diagram cache off, once on the default
  interned and cached path.
* ``update`` — a probability-only delta through ``GraphCatalog.update``
  against a full re-prepare, with every query kind on both backends
  bit-identical to a fresh ``prepare()`` after a probability delta and
  after topology deltas.
* ``service`` — a live in-process ``ServiceServer`` under a zipf stream
  from 1, 8 and 32 client threads: answers against direct evaluation,
  engine evaluations with the cache off and on, and throughput with
  tracing enabled but unused against tracing disabled.
* ``cluster`` — snapshot load (``verify=True``) against a full prepare
  on tokyo, then the zipf stream through ``python -m repro.cluster`` (the
  router in its own process) at 1, 2 and 4 replicas.

Every check becomes one record ``{name, value, bound, armed, ok}``.  A
parity check's value is true or false and its bound is ``exact``; a timed
check's value is a ratio held to a ``>=`` or ``<=`` bound.  The record
also carries the host (``cpu_count``, ``python``, ``platform``), the
names of the failed checks and each gate's measurements.  The run exits
1 if and only if an armed check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.baselines.sampling import SamplingEstimator
from repro.cluster import ClusterClient
from repro.core.s2bdd import S2BDD
from repro.datasets import load_dataset
from repro.engine import (
    AddEdge,
    EstimatorConfig,
    GraphDelta,
    ReliabilityEngine,
    RemoveEdge,
    SetEdgeProbability,
    results_checksum,
)
from repro.engine.queries import Query
from repro.engine.worlds import WorldPool, chunk_seed, chunk_spans
from repro.experiments.workloads import (
    DatasetCache,
    generate_searches,
    queries_from_searches,
    service_workload,
)
from repro.graph.compiled import invalidate_compiled
from repro.obs import get_registry
from repro.obs import trace as obs_trace
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ResultCache,
    ServiceClient,
    ServiceServer,
    graph_fingerprint,
)
from repro.utils.union_find import UnionFind

# The dict-keyed reference construction, the completion sampler and the
# row-major pool scans live with the tests.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.reference.s2bdd_completion import dict_sample_completion  # noqa: E402
from tests.reference.s2bdd_dict import dict_construct  # noqa: E402
from tests.reference.world_pool_rows import (  # noqa: E402
    row_connectivity_frequency,
    row_pair_connectivity,
    row_reachability,
    row_threshold_scan,
)


# ----------------------------------------------------------------------
# The harness: check records, the host block, the JSON record
# ----------------------------------------------------------------------
#: Timed checks by the last part of their name: ``(comparison, strict
#: bound, CI bound)``.  ``--ci`` picks the CI column, looser for the three
#: ratios that the noise of a shared CI runner moves most.
BOUNDS: Dict[str, Tuple[str, float, float]] = {
    "combined_speedup": (">=", 3.0, 1.5),
    "construction_speedup": (">=", 5.0, 3.0),
    "cached_construction_fraction": ("<=", 0.10, 0.10),
    "update_ratio": ("<=", 0.25, 0.35),
    "cache_reduction": (">=", 2.0, 2.0),
    "trace_overhead": ("<=", 0.02, 0.02),
    "snapshot_load_fraction": ("<=", 0.25, 0.25),
    "replica_speedup": (">=", 1.8, 1.8),
}


class Checks:
    """Every check of one run, recorded in order as ``{name, value, bound,
    armed, ok}``; ``ci`` selects the CI column of :data:`BOUNDS`."""

    def __init__(self, *, ci: bool = False) -> None:
        self.ci = ci
        self.records: List[Dict[str, Any]] = []

    def parity(self, name: str, equal: bool) -> None:
        """An exact check: ``equal`` must hold."""
        self._record(name, bool(equal), "exact", bool(equal), armed=True)

    def bound(self, name: str, value: float, *, armed: bool = True) -> None:
        """A timed check: ``value`` against the :data:`BOUNDS` row named by
        the last dotted part of ``name``.  An unarmed check is recorded
        but cannot fail the run."""
        comparison, strict, ci = BOUNDS[name.rsplit(".", 1)[-1]]
        limit = ci if self.ci else strict
        ok = value >= limit if comparison == ">=" else value <= limit
        self._record(name, round(value, 4), f"{comparison} {limit}", ok, armed=armed)

    def _record(
        self, name: str, value: Any, bound: str, ok: bool, *, armed: bool
    ) -> None:
        self.records.append(
            {"name": name, "value": value, "bound": bound, "armed": armed, "ok": ok}
        )
        status = "ok" if ok else "FAIL" if armed else "miss"
        note = "" if armed else ", unarmed"
        print(f"{status:>4}  {name} = {value} ({bound}{note})", flush=True)

    def failed(self) -> List[str]:
        """Names of the armed checks that failed."""
        return [
            record["name"]
            for record in self.records
            if record["armed"] and not record["ok"]
        ]


def host() -> Dict[str, Any]:
    """The host block every record carries."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def rounded(value: Any) -> Any:
    """``value`` with every float rounded to 4 places, for the record."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def write_record(
    path: str, gates: Sequence[str], quick: bool, checks: Checks, results: Dict
) -> int:
    """Write the JSON record; the exit status (1 iff an armed check failed)."""
    failed = checks.failed()
    record = {
        "gates": list(gates),
        "quick": quick,
        "bounds": "ci" if checks.ci else "strict",
        "host": host(),
        "checks": checks.records,
        "failed": failed,
        "results": rounded(results),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}: {len(checks.records)} checks, {len(failed)} failed")
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


def best_of(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Run ``fn`` ``repeats`` times; return (best wall-clock, last result).

    Min-of-N strips scheduler noise, which matters on the 1-CPU CI
    container where a single descheduling can halve an apparent speedup.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


#: Query kinds of the kernel and update parity workloads (all six).
WORKLOAD_KINDS = ("k-terminal", "threshold", "search", "top-k", "clustering", "subgraph")


def six_kind_queries(graph, dataset: str, num_searches: int) -> List[Query]:
    """The six-kind query workload the kernel and update gates run."""
    searches = generate_searches(graph, dataset, 3, num_searches, seed=2019)
    return [
        query
        for kind in WORKLOAD_KINDS
        for query in queries_from_searches(searches, kind, threshold=0.3)
    ]


# ----------------------------------------------------------------------
# kernel: reference implementations (verbatim pre-kernel code paths)
# ----------------------------------------------------------------------
#: ``results_checksum`` constants for the six-kind engine workloads below.
#: ``sampling`` values were recorded on the pre-kernel (dict-based)
#: implementation; ``s2bdd`` values are the cross-process-stable streams
#: after the ``spawn_rng`` determinism fix (the tokyo value is unchanged
#: from pre-kernel; karate's pre-kernel value varied with PYTHONHASHSEED
#: and had no stable reference to preserve).
GOLDEN_QUERY_CHECKSUMS = {
    ("tokyo", "sampling"): "105fb418bf56a8d5c129b8182260cd984882d22ef17e8adc12dc12d40dec8764",
    ("tokyo", "s2bdd"): "7d039129bf411c7c154e8b8f71e3883c0edd08f890d72760b086ea33dd5f9fbb",
    ("karate", "sampling"): "67cf432d7c2600024f07237c73167ac773ab5fca83dfcc5bcffdb464641c84ae",
    ("karate", "s2bdd"): "51b156d87b287de27f6dd47981bdb7410fb3422777e1e693b5bccbf27f51ce98",
}


def dict_sample_labels(graph, count: int, generator) -> List[Tuple[int, ...]]:
    """The dict-based world sampler: one uniform per non-loop edge, edge order."""
    vertices = list(graph.vertices())
    index = {vertex: position for position, vertex in enumerate(vertices)}
    edges = [edge for edge in graph.edges() if not edge.is_loop()]
    worlds = []
    for _ in range(count):
        union_find = UnionFind(vertices)
        for edge in edges:
            if generator.random() < edge.probability:
                union_find.union(edge.u, edge.v)
        worlds.append(tuple(index[union_find.find(vertex)] for vertex in vertices))
    return worlds


def int_sample_labels(graph, count: int, generator) -> List[Tuple[int, ...]]:
    """The pre-kernel ``_WorldSampler.sample`` (int-list) loop, verbatim."""
    vertices = list(graph.vertices())
    index = {vertex: position for position, vertex in enumerate(vertices)}
    draws = [
        (index[edge.u], index[edge.v], edge.probability)
        for edge in graph.edges()
        if not edge.is_loop()
    ]
    n = len(vertices)
    worlds = []
    for _ in range(count):
        parent = list(range(n))
        for u, v, probability in draws:
            if generator.random() < probability:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[u] = v
        labels = []
        for i in range(n):
            root = i
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            labels.append(root)
        worlds.append(tuple(labels))
    return worlds


def chunked_pool_labels(sampler, graph, samples: int, seed: int) -> List[Tuple[int, ...]]:
    """Assemble a seeded pool through ``sampler`` (the pre-kernel chunk loop)."""
    worlds: List[Tuple[int, ...]] = []
    for index, count in chunk_spans(samples):
        worlds.extend(sampler(graph, count, random.Random(chunk_seed(seed, index))))
    return worlds


def dict_sampling_estimate(graph, terminals, samples: int, rng) -> Tuple[float, int]:
    """The dict-based ``SamplingEstimator`` Monte Carlo loop, verbatim."""
    terminals = graph.validate_terminals(terminals)
    edges = list(graph.edges())
    positive = 0
    for _ in range(samples):
        union_find = UnionFind()
        for terminal in terminals:
            union_find.add(terminal)
        for edge in edges:
            if rng.random() < edge.probability and edge.u != edge.v:
                union_find.union(edge.u, edge.v)
        if union_find.same_component(terminals):
            positive += 1
    return positive / samples, positive


def canonical_partition(labels) -> Tuple[int, ...]:
    relabel: Dict[int, int] = {}
    return tuple(relabel.setdefault(label, len(relabel)) for label in labels)


# ----------------------------------------------------------------------
# kernel: sections
# ----------------------------------------------------------------------
def pool_construction(
    checks: Checks, name: str, graph, samples: int, seed: int
) -> Tuple[WorldPool, Dict]:
    kernel_seconds, pool = best_of(
        lambda: WorldPool.from_seed(graph, samples=samples, seed=seed)
    )
    dict_seconds, dict_labels = best_of(
        lambda: chunked_pool_labels(dict_sample_labels, graph, samples, seed)
    )
    int_seconds, int_labels = best_of(
        lambda: chunked_pool_labels(int_sample_labels, graph, samples, seed)
    )

    rows = pool.labels
    checks.parity(f"{name}.pool_labels_parity", rows == int_labels)
    checks.parity(
        f"{name}.pool_partition_parity",
        all(
            canonical_partition(a) == canonical_partition(b)
            for a, b in zip(rows, dict_labels)
        ),
    )
    return pool, {
        "samples": samples,
        "kernel_seconds": kernel_seconds,
        "dict_path_seconds": dict_seconds,
        "int_path_seconds": int_seconds,
        "speedup_vs_dict_path": dict_seconds / kernel_seconds,
        "speedup_vs_int_path": int_seconds / kernel_seconds,
    }


def connectivity_sweep(
    checks: Checks, name: str, graph, pool: WorldPool, queries: int, rng_seed: int
) -> Dict:
    rows = pool.labels
    vertices = list(graph.vertices())
    n = len(vertices)
    rng = random.Random(rng_seed)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(queries)]
    triples = [tuple(rng.sample(vertices, 3)) for _ in range(max(1, queries // 2))]
    thresholds = [
        (tuple(rng.sample(vertices, 2)), 0.3) for _ in range(max(1, (2 * queries) // 3))
    ]
    sources = [vertices[rng.randrange(n)] for _ in range(2)]
    index = pool.compiled.vertex_index

    kernel_seconds, kernel_results = best_of(
        lambda: (
            [pool.pair_connectivity(a, b) for a, b in pairs]
            + [pool.connectivity_frequency(t) for t in triples]
            + [tuple(pool.threshold_scan(pair, eta)) for pair, eta in thresholds]
            + [list(pool.reachability_frequencies((s,)).values()) for s in sources]
        )
    )
    reference_seconds, reference_results = best_of(
        lambda: (
            [row_pair_connectivity(rows, index[a], index[b]) for a, b in pairs]
            + [row_connectivity_frequency(rows, [index[v] for v in t]) for t in triples]
            + [
                row_threshold_scan(rows, [index[v] for v in pair], eta)
                for pair, eta in thresholds
            ]
            + [row_reachability(rows, [index[s]], n) for s in sources]
        )
    )

    checks.parity(f"{name}.sweep_parity", kernel_results == reference_results)
    return {
        "pair_queries": len(pairs),
        "k_terminal_queries": len(triples),
        "threshold_queries": len(thresholds),
        "reachability_queries": len(sources),
        "kernel_seconds": kernel_seconds,
        "row_path_seconds": reference_seconds,
        "speedup": reference_seconds / kernel_seconds,
    }


def sampling_backend(checks: Checks, name: str, graph, samples: int, seed: int) -> Dict:
    vertices = list(graph.vertices())
    terminals = (vertices[0], vertices[len(vertices) // 2], vertices[-1])

    t0 = time.perf_counter()
    result = SamplingEstimator(samples=samples, rng=seed).estimate(graph, terminals)
    kernel_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference, positives = dict_sampling_estimate(
        graph, terminals, samples, random.Random(seed)
    )
    dict_seconds = time.perf_counter() - t0

    checks.parity(
        f"{name}.sampling_parity",
        result.reliability == reference and result.positive_samples == positives,
    )
    return {
        "samples": samples,
        "terminals": [repr(t) for t in terminals],
        "reliability": result.reliability,
        "kernel_seconds": kernel_seconds,
        "dict_path_seconds": dict_seconds,
        "speedup": dict_seconds / kernel_seconds,
    }


def _timed_completions(sample, picks, seed: int, track_world: bool):
    """Complete ``picks`` through ``sample``; return (seconds, outcomes, rngs)."""
    outcomes = []
    rngs = []
    t0 = time.perf_counter()
    for i, stratum in enumerate(picks):
        rng = random.Random(seed + i)
        outcomes.append(sample(stratum, rng, track_world=track_world))
        rngs.append(rng)
    return time.perf_counter() - t0, outcomes, rngs


def s2bdd_completions(
    checks: Checks, name: str, graph, completions: int, seed: int
) -> Dict:
    vertices = list(graph.vertices())
    terminals = (vertices[0], vertices[len(vertices) // 3], vertices[-1])
    bdd = S2BDD(graph, terminals, max_width=16, rng=random.Random(seed))
    construction = bdd.construct(completions)
    strata = construction.strata
    if not strata:
        return {"skipped": "construction stayed exact (no strata)"}
    picks = [strata[i % len(strata)] for i in range(completions)]

    def reference(stratum, rng, *, track_world):
        return dict_sample_completion(bdd, stratum, rng, track_world=track_world)

    section: Dict = {"completions": completions, "strata": len(strata)}
    for label, track_world in (("", False), ("ht_", True)):
        kernel_seconds, kernel_outcomes, kernel_rngs = _timed_completions(
            bdd._sample_completion, picks, seed, track_world
        )
        dict_seconds, dict_outcomes, dict_rngs = _timed_completions(
            reference, picks, seed, track_world
        )
        checks.parity(
            f"{name}.{label}completion_parity",
            kernel_outcomes == dict_outcomes
            and [rng.getstate() for rng in kernel_rngs]
            == [rng.getstate() for rng in dict_rngs],
        )
        section[f"{label}kernel_seconds"] = kernel_seconds
        section[f"{label}dict_path_seconds"] = dict_seconds
        section[f"{label}speedup"] = dict_seconds / kernel_seconds
    return section


def _s2bdd_construction_seconds() -> float:
    """Cumulative S²BDD construction seconds from the process-wide histogram."""
    metric = get_registry().to_dict().get("repro_s2bdd_construction_seconds")
    if not metric:
        return 0.0
    return sum(child.get("sum", 0.0) for child in metric.get("values", []))


def _timed_workload(engine, queries, seed_indices=None):
    """Run one workload pass; return (results, wall seconds, construction seconds)."""
    before = _s2bdd_construction_seconds()
    t0 = time.perf_counter()
    results = engine.query_many(queries, seed_indices=seed_indices)
    elapsed = time.perf_counter() - t0
    return results, elapsed, _s2bdd_construction_seconds() - before


def query_kinds(
    checks: Checks, name: str, dataset: str, graph, samples: int, num_searches: int
) -> Dict:
    queries = six_kind_queries(graph, dataset, num_searches)
    section: Dict = {"queries": len(queries), "kinds": list(WORKLOAD_KINDS)}

    engine = ReliabilityEngine(
        EstimatorConfig(backend="sampling", samples=samples, rng=7)
    ).prepare(graph)
    t0 = time.perf_counter()
    results = engine.query_many(queries)
    elapsed = time.perf_counter() - t0
    checksum = results_checksum(results)
    checks.parity(
        f"{name}.sampling_checksum_parity",
        checksum == GOLDEN_QUERY_CHECKSUMS[(dataset, "sampling")],
    )
    section["sampling"] = {"seconds": elapsed, "checksum": checksum}

    # The s2bdd backend runs the workload TWICE per configuration — the
    # repeated workload the diagram cache targets.  The second pass pins
    # ``seed_indices`` to the first pass's implicit 0..n-1 counter so its
    # per-query RNG streams (and therefore its answers) must reproduce
    # pass 1 exactly.
    repeat_seeds = list(range(len(queries)))
    legacy_engine = ReliabilityEngine(
        EstimatorConfig(backend="s2bdd", samples=samples, rng=7, s2bdd_cache=False)
    ).prepare(graph)
    product_construct = S2BDD.construct
    S2BDD.construct = dict_construct
    try:
        legacy_results, legacy_elapsed, legacy_cold = _timed_workload(
            legacy_engine, queries
        )
        legacy_repeat_results, legacy_repeat_elapsed, legacy_warm = _timed_workload(
            legacy_engine, queries, repeat_seeds
        )
    finally:
        S2BDD.construct = product_construct

    engine = ReliabilityEngine(
        EstimatorConfig(backend="s2bdd", samples=samples, rng=7)
    ).prepare(graph)
    results, elapsed, cold_construction = _timed_workload(engine, queries)
    repeat_results, repeat_elapsed, cached_construction = _timed_workload(
        engine, queries, repeat_seeds
    )

    checksum = results_checksum(results)
    legacy_checksum = results_checksum(legacy_results)
    checks.parity(
        f"{name}.s2bdd_reference_checksum_parity",
        legacy_checksum == GOLDEN_QUERY_CHECKSUMS[(dataset, "s2bdd")],
    )
    checks.parity(f"{name}.s2bdd_checksum_parity", checksum == legacy_checksum)
    checks.parity(
        f"{name}.s2bdd_reference_repeat_parity",
        results_checksum(legacy_repeat_results) == legacy_checksum,
    )
    checks.parity(
        f"{name}.s2bdd_repeat_parity", results_checksum(repeat_results) == checksum
    )
    section["s2bdd"] = {
        "seconds": elapsed,
        "construction_seconds": cold_construction,
        "evaluation_seconds": elapsed - cold_construction,
        "repeat_seconds": repeat_elapsed,
        "cached_construction_seconds": cached_construction,
        "legacy_seconds": legacy_elapsed + legacy_repeat_elapsed,
        "legacy_construction_seconds": legacy_cold + legacy_warm,
        "cache_hits": engine.stats.s2bdd_cache_hits,
        "s2bdds_built": engine.stats.s2bdds_built,
        "checksum": checksum,
    }
    return section


def kernel_gate(checks: Checks, quick: bool) -> Dict:
    """The compiled kernel against the pre-kernel code, on karate and tokyo.

    Timed checks per graph: ``combined_speedup`` — wall-clock of (pool
    construction + connectivity sweep) on the dict-based path over the
    same work on the kernel; ``construction_speedup`` — the reference
    construction's seconds over the repeated s2bdd workload over the
    interned and cached path's; ``cached_construction_fraction`` — the
    cached pass's construction seconds over the cold pass's.
    """
    cache = DatasetCache(scale="bench")
    plans = [("karate", 1200), ("tokyo", 800)]
    if quick:
        plans = [("karate", 400), ("tokyo", 250)]
    graphs: Dict = {}
    for dataset, samples in plans:
        graph = cache.graph(dataset)
        name = f"kernel.{dataset}"
        pool, construction = pool_construction(checks, name, graph, samples, seed=42)
        sweep = connectivity_sweep(
            checks, name, graph, pool, queries=200 if quick else 600, rng_seed=5
        )
        checks.bound(
            f"{name}.combined_speedup",
            (construction["dict_path_seconds"] + sweep["row_path_seconds"])
            / (construction["kernel_seconds"] + sweep["kernel_seconds"]),
        )
        entry = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "pool_construction": construction,
            "connectivity_sweep": sweep,
            "sampling_backend": sampling_backend(
                checks, name, graph, samples=300 if quick else 1000, seed=13
            ),
            "s2bdd_completions": s2bdd_completions(
                checks, name, graph, completions=150 if quick else 400, seed=3
            ),
            "query_kinds": query_kinds(
                checks, name, dataset, graph,
                samples=400 if dataset == "tokyo" else 300,
                num_searches=4 if dataset == "tokyo" else 3,
            ),
        }
        s2bdd = entry["query_kinds"]["s2bdd"]
        cold = s2bdd["construction_seconds"]
        cached = s2bdd["cached_construction_seconds"]
        checks.bound(
            f"{name}.construction_speedup",
            s2bdd["legacy_construction_seconds"] / max(cold + cached, 1e-9),
        )
        checks.bound(f"{name}.cached_construction_fraction", cached / max(cold, 1e-9))
        graphs[dataset] = entry
    return graphs


# ----------------------------------------------------------------------
# update: dynamic graph updates against tearing the engine down
# ----------------------------------------------------------------------
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


#: Identical catalogs the full-path update is timed on.
FULL_PATH_COPIES = 5


def time_full_path(
    config: EstimatorConfig, name: str, graph, queries, delta: GraphDelta
) -> Tuple[float, bool]:
    """Best wall-clock of ``catalog.update`` forced down the full path, and
    whether every repeat took it.

    This is the honest denominator for the incremental-update check: the
    *same* end-to-end operation (validate, apply, re-prepare, new
    fingerprint, version bump) when the delta touches topology and the
    decomposition index + compiled CSR must be rebuilt.  A topology delta
    cannot be replayed on the graph it changed, so each repeat applies the
    same ``delta`` to its own copy of ``graph``, registered in its own
    catalog and warmed with ``queries`` as the live catalog was: every
    repeat times identical work on identical state.
    """
    best = float("inf")
    full_path = True
    for _ in range(FULL_PATH_COPIES):
        copy = graph.copy()
        catalog = GraphCatalog(config)
        catalog.register(name, copy)
        catalog.engine(name).query_many(
            queries, graph=copy, seed_indices=[0] * len(queries)
        )
        t0 = time.perf_counter()
        outcome = catalog.update(name, delta)
        best = min(best, time.perf_counter() - t0)
        full_path = full_path and not outcome.incremental
    return best, full_path


def checksum_of(engine: ReliabilityEngine, graph, queries) -> str:
    """First-query-of-a-fresh-session checksum (the service's contract)."""
    results = engine.query_many(queries, graph=graph, seed_indices=[0] * len(queries))
    return results_checksum(results)


def update_backend(
    checks: Checks,
    name: str,
    dataset: str,
    base,
    backend: str,
    samples: int,
    num_searches: int,
) -> Dict:
    touched = max(4, base.num_edges // 8)
    config = EstimatorConfig(backend=backend, samples=samples, rng=7)
    live = base.copy()
    reference = base.copy()
    queries = six_kind_queries(base, dataset, num_searches)

    catalog = GraphCatalog(config)
    catalog.register(dataset, live)
    engine = catalog.engine(dataset)
    engine.query_many(queries, graph=live, seed_indices=[0] * len(queries))

    # --- probability-only delta: incremental path -----------------
    prob_delta = probability_delta(base, touched, seed=11)
    update_seconds, outcome = best_of(
        lambda: catalog.update(dataset, prob_delta), repeats=7
    )
    checks.parity(f"{name}.probability_delta_incremental", outcome.incremental)
    prob_delta.apply_to(reference)

    fresh = ReliabilityEngine(config)

    def full_prepare():
        fresh.forget(reference)
        invalidate_compiled(reference)
        return fresh.prepare(reference)

    prepare_seconds, _ = best_of(full_prepare)

    live_sum = checksum_of(catalog.engine(dataset), live, queries)
    checks.parity(
        f"{name}.probability_delta_parity",
        live_sum == checksum_of(fresh, reference, queries),
    )

    # --- topology deltas: full path, timed and still bit-identical -
    topo_seeds = (23, 29, 31, 37, 41)
    full_path_seconds, full_path = time_full_path(
        config, dataset, reference, queries, topology_delta(reference, seed=topo_seeds[0])
    )
    for seed in topo_seeds:
        delta = topology_delta(catalog.entry(dataset).graph, seed=seed)
        full_path = full_path and not catalog.update(dataset, delta).incremental
        delta.apply_to(reference)
    checks.parity(f"{name}.topology_delta_full_path", full_path)
    topo_fresh = ReliabilityEngine(config).prepare(reference)
    live_sum2 = checksum_of(catalog.engine(dataset), live, queries)
    checks.parity(
        f"{name}.topology_delta_parity",
        live_sum2 == checksum_of(topo_fresh, reference, queries),
    )
    final = catalog.entry(dataset)
    checks.parity(
        f"{name}.versions_advance",
        outcome.version == 8
        and outcome.fingerprint != graph_fingerprint(base)
        and final.version == outcome.version + len(topo_seeds)
        and final.fingerprint != outcome.fingerprint,
    )
    return {
        "queries": len(queries),
        "edges_touched": touched,
        "incremental_update_seconds": update_seconds,
        "full_path_update_seconds": full_path_seconds,
        "bare_prepare_seconds": prepare_seconds,
        "update_ratio": update_seconds / full_path_seconds,
        "checksum_after_probability_delta": live_sum,
        "checksum_after_topology_delta": live_sum2,
    }


def update_gate(checks: Checks, quick: bool) -> Dict:
    """Deltas through ``GraphCatalog.update`` on karate and tokyo.

    Timed check: ``update_ratio`` — tokyo's probability-only update over a
    topology update on the full path (the same end-to-end operation with
    a re-prepare), per backend; the topology update is the best of one
    delta applied to :data:`FULL_PATH_COPIES` identical warmed catalogs.
    """
    plans = [("karate", 300, 3), ("tokyo", 400, 4)]
    if quick:
        plans = [("karate", 200, 2), ("tokyo", 250, 3)]
    cache = DatasetCache(scale="bench")
    graphs: Dict = {}
    for dataset, samples, num_searches in plans:
        base = cache.graph(dataset)
        entry: Dict = {"vertices": base.num_vertices, "edges": base.num_edges}
        for backend in ("sampling", "s2bdd"):
            name = f"update.{dataset}.{backend}"
            entry[backend] = section = update_backend(
                checks, name, dataset, base, backend, samples, num_searches
            )
            if dataset == "tokyo":
                checks.bound(f"{name}.update_ratio", section["update_ratio"])
        graphs[dataset] = entry
    return graphs


# ----------------------------------------------------------------------
# service and cluster: the zipf serving workload
# ----------------------------------------------------------------------
ZIPF_SKEW = 1.1
SERVE_SEED = 2019


@dataclass
class Workload:
    """The zipf request stream both serving gates replay, with the checksum
    of a direct ``engine.query(q, seed_index=0)`` per distinct query."""

    dataset: str
    graph: Any
    config: EstimatorConfig
    queries: List[Query]
    stream: List[int]
    expected: List[str]

    def describe(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "backend": self.config.backend,
            "samples": self.config.samples,
            "distinct_queries": len(self.queries),
            "requests": len(self.stream),
            "zipf_skew": ZIPF_SKEW,
            "seed": SERVE_SEED,
            "workload_checksum": results_checksum(
                [self.queries[index].to_dict() for index in self.stream]
            ),
        }


def serving_workload(requests: int, quick: bool) -> Workload:
    """karate under the sampling backend: 18 distinct queries at s=600, or
    10 at s=300 with ``quick``."""
    graph = load_dataset("karate")
    config = EstimatorConfig(
        backend="sampling", samples=300 if quick else 600, rng=SERVE_SEED
    )
    queries, stream = service_workload(
        graph, "karate", distinct=10 if quick else 18, length=requests,
        skew=ZIPF_SKEW, seed=SERVE_SEED,
    )
    engine = ReliabilityEngine(config).prepare(graph)
    expected = [
        results_checksum([engine.query(query, seed_index=0)]) for query in queries
    ]
    return Workload("karate", graph, config, queries, stream, expected)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of ``values`` (nearest-rank)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def replay(client_class, port: int, work: Workload, clients: int) -> Dict[str, Any]:
    """Replay the stream from ``clients`` threads against a live address.

    ``client_class`` is ``ServiceClient`` for a replica, ``ClusterClient``
    for a router.  Requests are pulled from one shared cursor, so the
    actual interleaving is raced — exactly the contention a cache and
    coalescer must stay correct under.  Every answer's checksum is held to
    ``work.expected``.
    """
    cursor_lock = threading.Lock()
    cursor = iter(work.stream)
    latencies: List[float] = []
    observations: List[Tuple[int, str]] = []
    errors = [0]
    results_lock = threading.Lock()

    def worker() -> None:
        with client_class("127.0.0.1", port) as client:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    response = client.query(work.dataset, work.queries[index])
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
    seconds = time.perf_counter() - started
    return {
        "clients": clients,
        "requests": len(latencies),
        "errors": errors[0],
        "seconds": seconds,
        "throughput_rps": len(latencies) / seconds,
        "p50_ms": percentile(latencies, 0.50) * 1000,
        "p95_ms": percentile(latencies, 0.95) * 1000,
        "parity_mismatches": sum(
            1 for index, checksum in observations if checksum != work.expected[index]
        ),
    }


def answered_exactly(runs: Sequence[Dict[str, Any]]) -> bool:
    """Every answer matched direct evaluation and no request failed."""
    return all(run["parity_mismatches"] == 0 and run["errors"] == 0 for run in runs)


# ----------------------------------------------------------------------
# service: one replica under zipf load
# ----------------------------------------------------------------------
def build_service(
    work: Workload, *, cache_on: bool
) -> Tuple[ReliabilityService, ServiceServer]:
    catalog = GraphCatalog(work.config)
    catalog.register(work.dataset, work.graph, label=f"dataset:{work.dataset}")
    service = ReliabilityService(catalog, cache=ResultCache() if cache_on else None)
    server = ServiceServer(
        service, port=0, max_inflight=16, queue_limit=256
    ).start_background()
    return service, server


def tracing_overhead(work: Workload, *, rounds: int = 3) -> Dict:
    """Throughput cost of the tracing subsystem when no request is traced.

    One warmed service, alternating replays with tracing enabled (the
    production default — no ``X-Repro-Trace`` header and no ``timings``
    request, so the cost is the per-request header lookup) and disabled
    process-wide.  Best-of-``rounds`` throughput per mode damps scheduler
    noise; the check holds the enabled deficit under its bound.
    """
    best = {True: 0.0, False: 0.0}
    service, server = build_service(work, cache_on=True)
    try:
        # One untimed pass warms the cache so both modes measure the same
        # (mostly cache-hit) fast path, where fixed per-request costs are
        # proportionally largest.
        replay(ServiceClient, server.port, work, clients=8)
        for _ in range(rounds):
            for enabled in (True, False):
                (obs_trace.enable if enabled else obs_trace.disable)()
                run = replay(ServiceClient, server.port, work, clients=8)
                if run["errors"] == 0:
                    best[enabled] = max(best[enabled], run["throughput_rps"])
    finally:
        obs_trace.enable()
        server.close()
        service.close()
    return {
        "rounds": rounds,
        "throughput_rps_tracing_enabled": best[True],
        "throughput_rps_tracing_disabled": best[False],
        "overhead_fraction": (
            (best[False] - best[True]) / best[False] if best[False] > 0 else 0.0
        ),
    }


def service_gate(checks: Checks, quick: bool) -> Dict:
    """A live ``ServiceServer`` under the zipf stream.

    Timed checks: ``cache_reduction`` — engine evaluations with the cache
    off over evaluations with it on, over two passes of the stream;
    ``trace_overhead`` — the throughput deficit of tracing enabled but
    unused against tracing disabled.
    """
    work = serving_workload(60 if quick else 240, quick)
    runs = []
    for clients in (1, 4) if quick else (1, 8, 32):
        service, server = build_service(work, cache_on=True)
        try:
            run = replay(ServiceClient, server.port, work, clients)
            stats = service.stats()
        finally:
            server.close()
            service.close()
        run["cache_hit_rate"] = stats["cache"]["hit_rate"]
        run["engine_evaluations"] = stats["service"]["engine_evaluations"]
        run["coalesced"] = stats["coalescer"]["coalesced"]
        runs.append(run)

    # Cache effectiveness: replay the stream twice on one service with the
    # cache on, then with it off, and compare how many queries the engine
    # actually had to evaluate.
    passes = []
    evaluations = {}
    for cache_on in (True, False):
        service, server = build_service(work, cache_on=cache_on)
        try:
            for _ in range(2):
                passes.append(replay(ServiceClient, server.port, work, clients=8))
            evaluations[cache_on] = service.stats()["service"]["engine_evaluations"]
        finally:
            server.close()
            service.close()
    checks.parity("service.parity", answered_exactly(runs + passes))
    checks.bound(
        "service.cache_reduction",
        evaluations[False] / evaluations[True] if evaluations[True] else float("inf"),
    )
    tracing = tracing_overhead(work)
    checks.bound("service.trace_overhead", tracing["overhead_fraction"])
    return {
        **work.describe(),
        "runs": runs,
        "engine_evaluations_cache_on": evaluations[True],
        "engine_evaluations_cache_off": evaluations[False],
        "tracing_overhead": tracing,
    }


# ----------------------------------------------------------------------
# cluster: snapshot warm starts and replica scale-out through the router
# ----------------------------------------------------------------------
def time_cold_start(
    dataset: str, config: EstimatorConfig, snapshot_dir: str, *, repeats: int = 3
) -> Dict:
    """Time full prepare vs snapshot load of ``dataset``, checksum-verified.

    Both paths are timed from nothing in memory to a catalog ready to
    serve its first pooled answer: the full prepare pays dataset load,
    decomposition, compilation, and the default world-pool sampling pass;
    the snapshot load pays graph rebuild, integrity checks, pool
    adoption, and the probe re-evaluation (``verify=True``, which raises
    on a divergent probe).  Each path takes the best of ``repeats`` runs,
    so the check compares steady costs rather than scheduler noise.
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
        "full_prepare_seconds": prepare_seconds,
        "snapshot_load_seconds": load_seconds,
        "load_fraction": load_seconds / prepare_seconds,
        "warm_decompositions_computed": warm.decompositions_computed,
        "warm_world_pools_built": warm.world_pools_built,
    }


def start_cluster(
    snapshot_dir: str, store_path: str, replicas: int
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
            "--shared-store", store_path,
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


def cluster_level(
    work: Workload, snapshot_dir: str, store_path: str, replicas: int, clients: int
) -> Dict:
    """One replica count: launch, replay, gather stats, tear down."""
    process, port = start_cluster(snapshot_dir, store_path, replicas)
    try:
        run = replay(ClusterClient, port, work, clients)
        with ClusterClient("127.0.0.1", port) as client:
            stats = client.stats()
    finally:
        stop_cluster(process)
    return {
        "replicas": replicas,
        **run,
        "router": stats["router"],
        "totals": stats["totals"],
        "shared_store_hits": sum(
            (replica.get("shared_store") or {}).get("hits", 0)
            for replica in stats["replicas"].values()
        ),
    }


def cluster_checks(
    checks: Checks, cold: Dict, runs: Sequence[Dict], cpu_count: int
) -> None:
    """The cluster gate's checks over its measurements.

    ``replica_speedup`` — 2-replica over 1-replica throughput — is armed
    only on a multicore host: shared-nothing processes time-slice one
    core, so on one CPU the ratio is recorded but cannot fail the run.
    """
    checks.bound("cluster.snapshot_load_fraction", cold["load_fraction"])
    checks.parity("cluster.parity", answered_exactly(runs))
    throughput = {run["replicas"]: run["throughput_rps"] for run in runs}
    checks.bound(
        "cluster.replica_speedup", throughput[2] / throughput[1], armed=cpu_count >= 2
    )


def cluster_gate(checks: Checks, quick: bool) -> Dict:
    """Snapshot cold start on tokyo, then the zipf stream through the router.

    The cold start is asked at the production sample budget (s=1000) even
    with ``quick``, which shrinks only the serving workload.  Each replica
    count starts its own cluster process with a fresh shared store, so
    levels do not warm each other up.
    """
    work = serving_workload(80 if quick else 240, quick)
    workdir = tempfile.mkdtemp(prefix="bench-cluster-")
    try:
        cold = time_cold_start(
            "tokyo",
            EstimatorConfig(backend="sampling", samples=1000, rng=SERVE_SEED),
            os.path.join(workdir, "snap-cold"),
        )
        snapshot_dir = os.path.join(workdir, "snap-serve")
        catalog = GraphCatalog(work.config)
        catalog.register(work.dataset, work.graph, label=f"dataset:{work.dataset}")
        catalog.save_snapshot(snapshot_dir)
        runs = [
            cluster_level(
                work, snapshot_dir, os.path.join(workdir, f"shared-{replicas}.sqlite"),
                replicas, clients=8 if quick else 16,
            )
            for replicas in ((1, 2) if quick else (1, 2, 4))
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cluster_checks(checks, cold, runs, os.cpu_count() or 1)
    return {**work.describe(), "cold_start": cold, "runs": runs}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
GATES: Dict[str, Callable[[Checks, bool], Dict]] = {
    "kernel": kernel_gate,
    "update": update_gate,
    "service": service_gate,
    "cluster": cluster_gate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=[*GATES, "all"], help="the gate to run")
    parser.add_argument("--quick", action="store_true", help="CI sizes")
    parser.add_argument(
        "--ci", action="store_true", help="judge timed checks by the CI bounds"
    )
    parser.add_argument("--out", default="BENCH_gates.json", help="output JSON path")
    args = parser.parse_args(argv)

    gates = list(GATES) if args.gate == "all" else [args.gate]
    checks = Checks(ci=args.ci)
    results = {gate: GATES[gate](checks, args.quick) for gate in gates}
    return write_record(args.out, gates, args.quick, checks, results)


if __name__ == "__main__":
    sys.exit(main())
