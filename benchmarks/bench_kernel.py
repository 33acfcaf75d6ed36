#!/usr/bin/env python
"""Benchmark: the compiled graph kernel vs. the pre-kernel hot path.

Every sampling-driven answer in the library bottoms out in one inner loop:
draw a possible world, run connectivity over it.  The compiled kernel
(:mod:`repro.graph.compiled`) runs that loop over int-interned CSR state
with a flat union-find and bitset worlds; the pre-kernel path ran it over
dict-of-hashable adjacency with a dict-backed union-find.  This benchmark
times both on the same workloads — the reference implementations embedded
below are verbatim copies of the pre-kernel code — and proves, via parity
checks, that the kernel's answers are **bit-identical**:

* ``pool_construction`` — building a seeded :class:`WorldPool` vs. the
  dict-based sampler (and vs. the intermediate int-list sampler the pool
  used just before the kernel, reported as ``speedup_vs_int_path``).
* ``connectivity_sweep`` — pair/k-terminal/threshold/reachability scans
  over one pool vs. the row-major Python loops they replaced.
* ``sampling_backend`` — ``SamplingEstimator`` vs. its dict-based loop.
* ``s2bdd_completions`` — stratum-completion sampling with the reusable
  ``IntUnionFind`` vs. rebuilding a dict union-find per sample.
* ``query_kinds`` — all six typed query kinds through the engine, on both
  the ``sampling`` and ``s2bdd`` backends, checksummed against constants
  recorded on the pre-kernel implementation.  The ``s2bdd`` backend runs a
  *repeated* two-pass workload in two configurations — the dict-keyed
  reference construction (``tests/reference/s2bdd_dict.py``, patched in
  for ``S2BDD.construct``) with the diagram cache off, i.e. the
  pre-interning behaviour, and the default interned-plus-cached path —
  splitting wall-clock into ``construction_seconds`` /
  ``evaluation_seconds`` via the ``repro_s2bdd_construction_seconds``
  histogram and proving all four passes bit-identical.

The headline gates are per graph: ``combined_speedup`` — wall-clock of
(pool construction + connectivity sweep) on the dict-based path divided by
the same work on the kernel — plus the s2bdd ``construction_speedup``
(reference construction seconds over the repeated workload divided by the
interned+cached path's; ``--min-construction-speedup``, default 5.0) and
the cached-pass check (second-pass construction must cost at most 10% of
the cold pass).  Exit status is non-zero when any parity check fails or
any gate is missed (``--min-speedup`` default 3.0; CI's 1-CPU container
gates at 1.5).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --min-speedup 1.5
    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.sampling import SamplingEstimator
from repro.core.s2bdd import S2BDD
from repro.engine import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.engine.worlds import WorldPool, chunk_seed, chunk_spans
from repro.experiments.workloads import (
    DatasetCache,
    generate_searches,
    queries_from_searches,
)
from repro.obs import get_registry
from repro.utils.union_find import UnionFind

# The dict-keyed reference construction lives with the tests.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.reference.s2bdd_dict import dict_construct  # noqa: E402

#: Query kinds of the engine parity workload.
WORKLOAD_KINDS = ("k-terminal", "threshold", "search", "top-k", "clustering", "subgraph")

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


# ----------------------------------------------------------------------
# Reference implementations (verbatim pre-kernel code paths)
# ----------------------------------------------------------------------
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


def row_connectivity_frequency(rows, positions) -> float:
    """The pre-kernel row-major ``WorldPool.connectivity_frequency`` loop."""
    first, rest = positions[0], positions[1:]
    positive = 0
    for labels in rows:
        root = labels[first]
        if all(labels[i] == root for i in rest):
            positive += 1
    return positive / len(rows)


def row_threshold_scan(rows, positions, threshold: float):
    """The pre-kernel row-major ``WorldPool.threshold_scan`` loop."""
    total = len(rows)
    first, rest = positions[0], positions[1:]
    positives = 0
    for examined, labels in enumerate(rows, start=1):
        root = labels[first]
        if all(labels[i] == root for i in rest):
            positives += 1
        if positives / total >= threshold:
            return (True, positives, examined, examined < total)
        if (positives + (total - examined)) / total < threshold:
            return (False, positives, examined, examined < total)
    return (positives / total >= threshold, positives, total, False)


def row_reachability(rows, positions, num_vertices: int) -> List[float]:
    """The pre-kernel row-major ``WorldPool.reachability_frequencies`` loop."""
    first, rest = positions[0], positions[1:]
    counts = [0] * num_vertices
    for labels in rows:
        root = labels[first]
        if rest and not all(labels[i] == root for i in rest):
            continue
        for position, label in enumerate(labels):
            if label == root:
                counts[position] += 1
    total = len(rows)
    return [count / total for count in counts]


def row_pair_connectivity(rows, ia: int, ib: int) -> float:
    """The pre-kernel row-major ``WorldPool.pair_connectivity`` loop."""
    connected = sum(1 for labels in rows if labels[ia] == labels[ib])
    return connected / len(rows)


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


def dict_sample_completion(bdd: S2BDD, stratum, rng) -> bool:
    """The dict-based ``S2BDD._sample_completion`` loop, verbatim (MC path)."""
    plan = bdd.plan
    layer = stratum.layer
    frontier = plan.frontiers[layer]
    union_find = UnionFind()
    anchors = []
    for vertex, label in zip(frontier, stratum.partition):
        union_find.union(("component", label), vertex)
    for label, count in enumerate(stratum.terminal_counts):
        if count > 0:
            anchors.append(("component", label))
    unseen_terminals = [
        terminal
        for terminal in bdd._terminals
        if plan.first_occurrence.get(terminal, plan.num_edges) >= layer
    ]
    random_value = rng.random
    union = union_find.union
    for edge in plan.edges[layer:]:
        if random_value() < edge.probability:
            if edge.u != edge.v:
                union(edge.u, edge.v)
    roots = {union_find.find(anchor) for anchor in anchors}
    roots.update(union_find.find(terminal) for terminal in unseen_terminals)
    return len(roots) <= 1


def canonical_partition(labels) -> Tuple[int, ...]:
    relabel: Dict[int, int] = {}
    return tuple(relabel.setdefault(label, len(relabel)) for label in labels)


# ----------------------------------------------------------------------
# Benchmark sections
# ----------------------------------------------------------------------
class ParityError(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ParityError(message)


def best_of(fn, repeats: int = 3):
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


def bench_pool_construction(graph, samples: int, seed: int) -> Dict:
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
    check(rows == int_labels, "kernel pool labels diverge from the pre-kernel sampler")
    check(
        all(
            canonical_partition(a) == canonical_partition(b)
            for a, b in zip(rows, dict_labels)
        ),
        "kernel pool partitions diverge from the dict-based sampler",
    )
    return {
        "samples": samples,
        "kernel_seconds": round(kernel_seconds, 4),
        "dict_path_seconds": round(dict_seconds, 4),
        "int_path_seconds": round(int_seconds, 4),
        "speedup_vs_dict_path": round(dict_seconds / kernel_seconds, 2),
        "speedup_vs_int_path": round(int_seconds / kernel_seconds, 2),
        "_pool": pool,
        "_kernel_seconds": kernel_seconds,
        "_dict_seconds": dict_seconds,
    }


def bench_connectivity_sweep(graph, pool: WorldPool, queries: int, rng_seed: int) -> Dict:
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

    check(
        kernel_results == reference_results,
        "kernel pool scans diverge from the pre-kernel row scans",
    )
    return {
        "pair_queries": len(pairs),
        "k_terminal_queries": len(triples),
        "threshold_queries": len(thresholds),
        "reachability_queries": len(sources),
        "kernel_seconds": round(kernel_seconds, 4),
        "row_path_seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / kernel_seconds, 2),
        "_kernel_seconds": kernel_seconds,
        "_reference_seconds": reference_seconds,
    }


def bench_sampling_backend(graph, samples: int, seed: int) -> Dict:
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

    check(
        result.reliability == reference and result.positive_samples == positives,
        "SamplingEstimator diverges from the dict-based loop",
    )
    return {
        "samples": samples,
        "terminals": [repr(t) for t in terminals],
        "reliability": result.reliability,
        "kernel_seconds": round(kernel_seconds, 4),
        "dict_path_seconds": round(dict_seconds, 4),
        "speedup": round(dict_seconds / kernel_seconds, 2),
    }


def bench_s2bdd_completions(graph, completions: int, seed: int) -> Dict:
    vertices = list(graph.vertices())
    terminals = (vertices[0], vertices[len(vertices) // 3], vertices[-1])
    bdd = S2BDD(graph, terminals, max_width=16, rng=random.Random(seed))
    construction = bdd.construct(completions)
    strata = construction.strata
    if not strata:
        return {"skipped": "construction stayed exact (no strata)"}
    picks = [strata[i % len(strata)] for i in range(completions)]

    t0 = time.perf_counter()
    kernel_flags = [
        bdd._sample_completion(stratum, random.Random(seed + i))[0]
        for i, stratum in enumerate(picks)
    ]
    kernel_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    dict_flags = [
        dict_sample_completion(bdd, stratum, random.Random(seed + i))
        for i, stratum in enumerate(picks)
    ]
    dict_seconds = time.perf_counter() - t0

    check(
        kernel_flags == dict_flags,
        "S2BDD stratum completions diverge from the dict-based sampler",
    )
    return {
        "completions": completions,
        "strata": len(strata),
        "kernel_seconds": round(kernel_seconds, 4),
        "dict_path_seconds": round(dict_seconds, 4),
        "speedup": round(dict_seconds / kernel_seconds, 2),
    }


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


def bench_query_kinds(dataset: str, graph, samples: int, num_searches: int) -> Dict:
    searches = generate_searches(graph, dataset, 3, num_searches, seed=2019)
    queries = [
        query
        for kind in WORKLOAD_KINDS
        for query in queries_from_searches(searches, kind, threshold=0.3)
    ]
    section: Dict = {"queries": len(queries), "kinds": list(WORKLOAD_KINDS)}

    engine = ReliabilityEngine(
        EstimatorConfig(backend="sampling", samples=samples, rng=7)
    ).prepare(graph)
    t0 = time.perf_counter()
    results = engine.query_many(queries)
    elapsed = time.perf_counter() - t0
    checksum = results_checksum(results)
    golden = GOLDEN_QUERY_CHECKSUMS.get((dataset, "sampling"))
    if golden is not None:
        check(
            checksum == golden,
            f"{dataset}/sampling workload checksum {checksum} diverges "
            f"from the pre-kernel reference {golden}",
        )
    section["sampling"] = {
        "seconds": round(elapsed, 3),
        "checksum": checksum,
        "matches_reference": golden is not None,
    }

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
    golden = GOLDEN_QUERY_CHECKSUMS.get((dataset, "s2bdd"))
    if golden is not None:
        check(
            legacy_checksum == golden,
            f"{dataset}/s2bdd reference-construction workload checksum "
            f"{legacy_checksum} diverges from the pre-kernel reference {golden}",
        )
    check(
        checksum == legacy_checksum,
        f"{dataset}/s2bdd interned+cached checksum {checksum} diverges "
        f"from the dict-keyed reference construction {legacy_checksum}",
    )
    check(
        results_checksum(legacy_repeat_results) == legacy_checksum,
        f"{dataset}/s2bdd reference repeat pass diverges from its first pass",
    )
    check(
        results_checksum(repeat_results) == checksum,
        f"{dataset}/s2bdd cached repeat pass diverges from its first pass",
    )

    legacy_construction = legacy_cold + legacy_warm
    new_construction = cold_construction + cached_construction
    section["s2bdd"] = {
        "seconds": round(elapsed, 3),
        "construction_seconds": round(cold_construction, 3),
        "evaluation_seconds": round(elapsed - cold_construction, 3),
        "repeat_seconds": round(repeat_elapsed, 3),
        "cached_construction_seconds": round(cached_construction, 4),
        "legacy_seconds": round(legacy_elapsed + legacy_repeat_elapsed, 3),
        "legacy_construction_seconds": round(legacy_construction, 3),
        "construction_speedup": round(
            legacy_construction / max(new_construction, 1e-9), 2
        ),
        "cache_hits": engine.stats.s2bdd_cache_hits,
        "s2bdds_built": engine.stats.s2bdds_built,
        "checksum": checksum,
        "matches_reference": golden is not None,
        "_cold_construction": cold_construction,
        "_cached_construction": cached_construction,
        "_legacy_construction": legacy_construction,
    }
    return section


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(args) -> Dict:
    cache = DatasetCache(scale="bench")
    plans = [("karate", 1200), ("tokyo", 800)]
    if args.quick:
        plans = [("karate", 400), ("tokyo", 250)]

    report: Dict = {
        "benchmark": "compiled-graph-kernel",
        "quick": bool(args.quick),
        "min_speedup": args.min_speedup,
        "min_construction_speedup": args.min_construction_speedup,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "graphs": {},
        "parity": "ok",
    }
    failures: List[str] = []
    for dataset, samples in plans:
        graph = cache.graph(dataset)
        entry: Dict = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
        construction = bench_pool_construction(graph, samples, seed=42)
        pool = construction.pop("_pool")
        kernel_base = construction.pop("_kernel_seconds")
        dict_base = construction.pop("_dict_seconds")
        entry["pool_construction"] = construction

        sweep = bench_connectivity_sweep(
            graph, pool, queries=200 if args.quick else 600, rng_seed=5
        )
        kernel_sweep = sweep.pop("_kernel_seconds")
        reference_sweep = sweep.pop("_reference_seconds")
        entry["connectivity_sweep"] = sweep

        combined = (dict_base + reference_sweep) / (kernel_base + kernel_sweep)
        entry["combined_speedup"] = round(combined, 2)
        if combined < args.min_speedup:
            failures.append(
                f"{dataset}: combined speedup {combined:.2f}x below the "
                f"{args.min_speedup}x gate"
            )

        entry["sampling_backend"] = bench_sampling_backend(
            graph, samples=300 if args.quick else 1000, seed=13
        )
        entry["s2bdd_completions"] = bench_s2bdd_completions(
            graph, completions=150 if args.quick else 400, seed=3
        )
        entry["query_kinds"] = bench_query_kinds(
            dataset, graph, samples=400 if dataset == "tokyo" else 300,
            num_searches=4 if dataset == "tokyo" else 3,
        )
        s2bdd = entry["query_kinds"]["s2bdd"]
        cold = s2bdd.pop("_cold_construction")
        cached = s2bdd.pop("_cached_construction")
        legacy = s2bdd.pop("_legacy_construction")
        construction_speedup = legacy / max(cold + cached, 1e-9)
        if construction_speedup < args.min_construction_speedup:
            failures.append(
                f"{dataset}: s2bdd construction speedup {construction_speedup:.2f}x "
                f"below the {args.min_construction_speedup}x gate"
            )
        if cached > 0.10 * cold:
            failures.append(
                f"{dataset}: cached-pass construction {cached:.4f}s exceeds "
                f"10% of the cold pass ({cold:.4f}s)"
            )
        report["graphs"][dataset] = entry

    report["speedup_failures"] = failures
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workloads (CI)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail when any graph's combined construction+sweep speedup is below this",
    )
    parser.add_argument(
        "--min-construction-speedup",
        type=float,
        default=5.0,
        help="fail when any graph's repeated-workload s2bdd construction "
        "speedup (dict-keyed reference construction vs interned+cached) "
        "is below this",
    )
    parser.add_argument("--out", default="BENCH_kernel.json", help="output JSON path")
    args = parser.parse_args(argv)

    try:
        report = run(args)
    except ParityError as error:
        print(f"PARITY FAILURE: {error}", file=sys.stderr)
        report = {"benchmark": "compiled-graph-kernel", "parity": f"FAILED: {error}"}
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        return 1

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for dataset, entry in report["graphs"].items():
        print(
            f"{dataset}: construction {entry['pool_construction']['speedup_vs_dict_path']}x "
            f"(vs int path {entry['pool_construction']['speedup_vs_int_path']}x), "
            f"sweep {entry['connectivity_sweep']['speedup']}x, "
            f"combined {entry['combined_speedup']}x, "
            f"sampling backend {entry['sampling_backend']['speedup']}x, "
            f"s2bdd completions {entry['s2bdd_completions'].get('speedup', 'n/a')}x, "
            f"s2bdd construction {entry['query_kinds']['s2bdd']['construction_speedup']}x "
            f"({entry['query_kinds']['s2bdd']['cache_hits']} cache hits)"
        )
    print(
        "parity: ok (pools, scans, sampling, completions, six query kinds "
        "on reference + interned/cached s2bdd, repeated passes)"
    )

    if report["speedup_failures"]:
        for failure in report["speedup_failures"]:
            print(f"SPEEDUP FAILURE: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
