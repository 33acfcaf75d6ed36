"""The traced run: spans around each layer's public entry points, plus probes.

Nothing inside ``src/`` is changed.  :func:`instrument` wraps public
functions from here — ``preprocess`` as the s2bdd backend calls it,
``S2BDD.construct`` / ``S2BDD.run``, ``ReliabilityEngine.query`` /
``apply_delta`` — and records one span per call in a :class:`Recorder`.
The probes then feed the workload's own inputs, bottom-up, to the layers
its timed loop does not reach in this process (the compiled kernel, world
pools, deltas, the parallel executor, the in-process service, one HTTP
server and the router of a 2-replica cluster).  :func:`layer_metrics`
turns the spans and the public counters (``engine.stats``,
``service.stats()``, the cluster's ``/stats``) into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.engine.backends as backends
from repro.baselines import SamplingEstimator
from repro.core.s2bdd import S2BDD
from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, KTerminalQuery, ReliabilityEngine, results_checksum
from repro.engine.deltas import SetEdgeProbability
from repro.graph.compiled import compile_graph
from repro.service import GraphCatalog, ReliabilityService
from repro.service.store import SharedResultStore

from perfbench import inputs, stats
from perfbench.procs import ServingProcess, build_snapshot
from perfbench.workloads import Observations, ProbeInputs

#: Per-layer metrics with their units, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "graph.compiled.compile_ms": "ms",
    "graph.compiled.worlds_per_s": "1/s",
    "preprocess.ms_p50": "ms",
    "preprocess.subproblems_mean": "count",
    "preprocess.edge_reduction_ratio": "ratio",
    "core.s2bdd.construct_ms_p50": "ms",
    "core.s2bdd.construct_ms_p90": "ms",
    "core.s2bdd.run_ms_p50": "ms",
    "core.s2bdd.query_share": "ratio",
    "core.s2bdd.peak_width_mean": "count",
    "core.s2bdd.strata_mean": "count",
    "core.s2bdd.sample_ratio": "ratio",
    "core.s2bdd.exact_share": "ratio",
    "baselines.sampling.estimate_ms_p50": "ms",
    "baselines.sampling.abs_error_mean": "prob",
    "baselines.sampling.pro_speedup": "ratio",
    "engine.prepare_ms": "ms",
    "engine.query_ms_p50": "ms",
    "engine.self_ms_p50": "ms",
    "engine.diagrams.hit_ratio": "ratio",
    "engine.diagrams.resweep_ratio": "ratio",
    "engine.diagrams.evictions": "count",
    "engine.worlds.pool_build_ms_p50": "ms",
    "engine.worlds.pool_hit_ratio": "ratio",
    "engine.worlds.worlds_sampled": "count",
    "engine.deltas.apply_ms_p50": "ms",
    "engine.parallel.batch_ms_p50": "ms",
    "engine.parallel.serial_batch_ms_p50": "ms",
    "engine.parallel.speedup": "ratio",
    "service.query_ms_p50": "ms",
    "service.query_ms_p99": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.store.hit_ratio": "ratio",
    "service.engine_evals_per_request": "ratio",
    "service.coalesce.coalesced_share": "ratio",
    "service.coalesce.batch_size_mean": "count",
    "service.cache.invalidated_per_update": "count",
    "service.update_ms_p50": "ms",
    "service.server.overhead_ms_p50": "ms",
    "service.server.refused_share": "ratio",
    "cluster.router.overhead_ms_p50": "ms",
    "cluster.router.update_broadcast_ms_p50": "ms",
    "cluster.router.replica_balance": "ratio",
    "cluster.router.failovers": "count",
    "cluster.router.replica_restarts": "count",
}

PROBE_CLIENTS = 2
PAPER_PROBE_SECONDS = 8.0
WORLDS_PROBE = 300
REPEATS = 3


class Recorder:
    """Spans (durations in seconds) and values, by name; thread-safe."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # EngineStats of every engine created while instrumented (the stats
        # objects only: holding engines would keep their pools alive).
        self.engine_stats: List[Any] = []
        self.local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def get(self, name: str) -> List[float]:
        with self._lock:
            return list(self.samples.get(name, ()))


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap the layers' public entry points for the duration of the block."""
    local = rec.local
    original_preprocess = backends.preprocess
    original_construct = S2BDD.construct
    original_run = S2BDD.run
    original_query = ReliabilityEngine.query
    original_apply = ReliabilityEngine.apply_delta
    original_init = ReliabilityEngine.__init__

    def leaf(fn, name, s2bdd):
        """Time an innermost layer call; only the outermost one counts as inner time."""

        def call(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                local.depth = depth
            elapsed = time.perf_counter() - t0
            rec.add(name, elapsed)
            if depth == 0:
                local.inner = getattr(local, "inner", 0.0) + elapsed
                if s2bdd:
                    local.s2bdd = getattr(local, "s2bdd", 0.0) + elapsed
            return result

        return call

    timed_preprocess = leaf(original_preprocess, "preprocess.seconds", False)

    def preprocess(graph, terminals, *args, **kwargs):
        result = timed_preprocess(graph, terminals, *args, **kwargs)
        rec.add("preprocess.subproblems", len(result.subproblems))
        kept = sum(sub.graph.num_edges for sub in result.subproblems)
        rec.add("preprocess.edge_ratio", stats.ratio(kept, graph.num_edges))
        return result

    timed_construct = leaf(original_construct, "s2bdd.construct.seconds", True)
    timed_run = leaf(original_run, "s2bdd.run.seconds", True)

    def construct(self, *args, **kwargs):
        return timed_construct(self, *args, **kwargs)

    def run(self, *args, **kwargs):
        result = timed_run(self, *args, **kwargs)
        rec.add("s2bdd.peak_width", result.peak_width)
        rec.add("s2bdd.strata", result.num_strata)
        rec.add("s2bdd.samples_used", result.samples_used)
        rec.add("s2bdd.samples_requested", result.samples_requested)
        rec.add("s2bdd.exact", 1.0 if result.exact else 0.0)
        return result

    def query(self, *args, **kwargs):
        saved = (getattr(local, "inner", 0.0), getattr(local, "s2bdd", 0.0))
        local.inner = local.s2bdd = 0.0
        t0 = time.perf_counter()
        try:
            return original_query(self, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            rec.add("engine.query.seconds", elapsed)
            rec.add("engine.self.seconds", elapsed - local.inner)
            rec.add("engine.s2bdd.seconds", local.s2bdd)
            local.inner, local.s2bdd = saved

    def apply_delta(self, *args, **kwargs):
        t0 = time.perf_counter()
        outcome = original_apply(self, *args, **kwargs)
        rec.add("engine.deltas.seconds", time.perf_counter() - t0)
        return outcome

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        with rec._lock:
            rec.engine_stats.append(self.stats)

    backends.preprocess = preprocess
    S2BDD.construct, S2BDD.run = construct, run
    ReliabilityEngine.query, ReliabilityEngine.apply_delta = query, apply_delta
    ReliabilityEngine.__init__ = init
    try:
        yield rec
    finally:
        backends.preprocess = original_preprocess
        S2BDD.construct, S2BDD.run = original_construct, original_run
        ReliabilityEngine.query, ReliabilityEngine.apply_delta = original_query, original_apply
        ReliabilityEngine.__init__ = original_init


# ----------------------------------------------------------------------
# Probes: each feeds the workload's own inputs to one boundary
# ----------------------------------------------------------------------
def probe_compiled(pi: ProbeInputs, rec: Recorder, seed: int) -> None:
    """Compile fresh copies of every graph; sample worlds on the session graph."""
    for key in pi.graph_keys:
        base = load_dataset(key)
        for _ in range(REPEATS):
            graph = base.copy()
            t0 = time.perf_counter()
            compile_graph(graph)
            rec.add("compiled.compile.seconds", time.perf_counter() - t0)
    compiled = compile_graph(load_dataset(pi.session_graph))
    for repeat in range(REPEATS):
        t0 = time.perf_counter()
        compiled.sample_component_labels(WORLDS_PROBE, random.Random(seed + repeat))
        rec.add("compiled.worlds_per_s", WORLDS_PROBE / (time.perf_counter() - t0))


def probe_prepare(pi: ProbeInputs, rec: Recorder) -> None:
    """A fresh engine prepares a fresh copy of each graph (2ECC index + compile)."""
    for key in pi.graph_keys:
        base = load_dataset(key)
        for _ in range(REPEATS):
            engine = ReliabilityEngine(pi.config)
            t0 = time.perf_counter()
            engine.prepare(base.copy())
            rec.add("engine.prepare.seconds", time.perf_counter() - t0)


def probe_paper(pi: ProbeInputs, rec: Recorder, seed: int) -> Dict[str, Dict[str, Any]]:
    """Pro (s2bdd, quick preset width) and Sampling(MC) on the same sets and seeds.

    Query ``i`` of a fresh Pro engine uses ``engine.query_seed(i)``; the MC
    estimate of the same set is seeded with that same value.
    """
    engine = ReliabilityEngine(
        EstimatorConfig(
            backend="s2bdd", samples=pi.config.samples, max_width=inputs.QUICK_WIDTH, rng=seed
        )
    )
    graphs: Dict[str, Any] = {}
    rows: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    deadline = time.perf_counter() + PAPER_PROBE_SECONDS
    for index, item in enumerate(pi.kterminal):
        if time.perf_counter() >= deadline and index >= 3:
            break
        graph = graphs.get(item.graph)
        if graph is None:
            graph = graphs[item.graph] = load_dataset(item.graph)
            engine.prepare(graph)
        query_seed = engine.query_seed(index)
        t0 = time.perf_counter()
        pro = engine.query(KTerminalQuery(terminals=item.terminals), graph=graph, seed_index=index)
        pro_seconds = time.perf_counter() - t0
        sampler = SamplingEstimator(pi.config.samples, rng=random.Random(query_seed))
        t0 = time.perf_counter()
        mc = sampler.estimate(graph, item.terminals)
        mc_seconds = time.perf_counter() - t0
        row = rows[item.graph]
        row["pro_ms"].append(pro_seconds * 1000.0)
        row["mc_ms"].append(mc_seconds * 1000.0)
        rec.add("baselines.mc.seconds", mc_seconds)
        rec.add("baselines.pro.seconds", pro_seconds)
        if item.exact is not None:
            row["pro_err"].append(abs(pro.reliability - item.exact))
            row["mc_err"].append(abs(mc.reliability - item.exact))
            rec.add("baselines.mc.abs_error", abs(mc.reliability - item.exact))
    return {
        key: {
            "queries": len(row["pro_ms"]),
            "pro_p50_ms": stats.median(row["pro_ms"]),
            "mc_p50_ms": stats.median(row["mc_ms"]),
            "pro_abs_error": stats.mean(row["pro_err"]) if row["pro_err"] else None,
            "mc_abs_error": stats.mean(row["mc_err"]) if row["mc_err"] else None,
            "speedup": stats.ratio(stats.median(row["mc_ms"]), stats.median(row["pro_ms"])),
        }
        for key, row in sorted(rows.items())
    }


def probe_worlds(pi: ProbeInputs, rec: Recorder, seed: int) -> None:
    """Build seeded world pools of the workload's sample budget on each graph."""
    for key in pi.graph_keys:
        engine = ReliabilityEngine(
            EstimatorConfig(backend="sampling", samples=pi.config.samples, rng=seed)
        ).prepare(load_dataset(key))
        for repeat in range(REPEATS):
            t0 = time.perf_counter()
            engine.world_pool(seed=inputs.derive_seed(seed, f"pool-{key}-{repeat}"))
            rec.add("worlds.build.seconds", time.perf_counter() - t0)


def workload_deltas(pi: ProbeInputs, seed: int, count: int = 6) -> List[Tuple[str, Dict]]:
    """The workload's own deltas, or seeded probability-only ones on its graphs."""
    if pi.deltas:
        return list(pi.deltas[:count])
    rng = random.Random(inputs.derive_seed(seed, "probe-deltas"))
    keys = pi.serving_graphs
    deltas = []
    for index in range(count):
        key = keys[index % len(keys)]
        edge_id = rng.choice(sorted(load_dataset(key).edge_ids()))
        deltas.append((key, SetEdgeProbability(edge_id, round(rng.uniform(0.05, 0.95), 4)).to_dict()))
    return deltas


def probe_deltas(pi: ProbeInputs, seed: int) -> None:
    """Apply deltas through ``engine.apply_delta`` (timed by its span) on prepared copies."""
    engines: Dict[str, Tuple[ReliabilityEngine, Any]] = {}
    for key, delta in workload_deltas(pi, seed):
        if key not in engines:
            graph = load_dataset(key)
            engines[key] = (ReliabilityEngine(pi.config).prepare(graph), graph)
        engine, graph = engines[key]
        engine.apply_delta(delta, graph)


def probe_parallel(pi: ProbeInputs, rec: Recorder, tally: stats.Tally) -> None:
    """The same batch at workers=2 and workers=1 on fresh engines; answers must match."""
    graph = load_dataset(pi.parallel_graph)
    compile_graph(graph)
    checksums = set()
    for _ in range(REPEATS):
        for workers, name in ((2, "parallel.batch.seconds"), (1, "parallel.serial.seconds")):
            engine = ReliabilityEngine(pi.config).prepare(graph)
            t0 = time.perf_counter()
            results = engine.query_many(pi.parallel_batch, graph=graph, workers=workers)
            rec.add(name, time.perf_counter() - t0)
            checksums.add(results_checksum(results))
    if len(checksums) != 1:
        tally.wrong += 1
        tally.note("engine.parallel: workers=2 and workers=1 answers differ")


def _closed_loop(operations: Sequence, send, clients: int = PROBE_CLIENTS) -> Tuple[List[float], int, int]:
    """Run ``send(op)`` over ``operations`` from ``clients`` closed-loop callers.

    Returns ``(latencies in seconds, refused, errors)``; a 429 counts as refused.
    """
    lock = threading.Lock()
    cursor = iter(range(len(operations)))
    latencies: List[float] = []
    failures = [0, 0]

    def caller() -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            t0 = time.perf_counter()
            try:
                send(operations[position])
            except Exception as error:
                with lock:
                    failures[0 if getattr(error, "status", None) == 429 else 1] += 1
                continue
            with lock:
                latencies.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=caller) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, failures[0], failures[1]


def _distinct(requests: Sequence[Tuple[str, Any]]) -> List[Tuple[str, Any]]:
    seen, out = set(), []
    for graph, query in requests:
        key = (graph, query.canonical_key())
        if key not in seen:
            seen.add(key)
            out.append((graph, query))
    return out


def _replay(query_fn, update_fn, requests, deltas, after_stream=None) -> Dict[str, Any]:
    """Three passes: the stream (cold), its distinct requests again (all hits), the deltas.

    ``after_stream`` (optional) is called between the first two passes; its
    result is kept under ``"after_stream"``.
    """
    stream, stream_refused, stream_errors = _closed_loop(requests, lambda op: query_fn(*op))
    after = after_stream() if after_stream is not None else None
    hits, hit_refused, hit_errors = _closed_loop(_distinct(requests), lambda op: query_fn(*op))
    updates, invalidated = [], []
    update_errors = 0
    for graph, delta in deltas:  # one at a time: updates are serialized anyway
        t0 = time.perf_counter()
        try:
            answer = update_fn(graph, delta)
        except Exception:
            update_errors += 1
            continue
        updates.append(time.perf_counter() - t0)
        invalidated.append((answer.get("invalidated") or {}).get("cache_entries", 0))
    attempted = len(requests) + len(_distinct(requests)) + len(deltas)
    return {
        "stream": stream, "hits": hits, "updates": updates, "invalidated": invalidated,
        "refused": stream_refused + hit_refused, "errors": stream_errors + hit_errors + update_errors,
        "attempted": attempted, "after_stream": after,
    }


def probe_service(pi: ProbeInputs, seed: int, workdir: str, root: str) -> Dict[str, Any]:
    """In-process service, one HTTP server, and a 2-replica cluster on the same inputs."""
    deltas = workload_deltas(pi, seed, count=3)
    snapshot = os.path.join(workdir, "probe-snapshot")
    build_snapshot(pi.serving_config, pi.serving_graphs, snapshot)
    catalog = GraphCatalog.load_snapshot(snapshot)
    store_path = os.path.join(workdir, "probe-store.sqlite")
    store = SharedResultStore(store_path)
    service = ReliabilityService(catalog, store=store)
    try:
        # The service counters are read right after the cold stream pass.
        inproc = _replay(service.query, service.update, pi.requests, deltas, service.stats)
    finally:
        service.close()
        store.close()

    server = ServingProcess.service(root, snapshot).start()
    try:
        client = server.client()
        direct = _replay(client.query, client.update, pi.requests, deltas)
    finally:
        server.stop()
    cluster = ServingProcess.cluster(root, snapshot).start()
    try:
        client = cluster.client()
        routed = _replay(client.query, client.update, pi.requests, deltas)
        routed["cluster_stats"] = cluster.client(timeout=30.0).stats()
    finally:
        cluster.stop()
    return {"inproc": inproc, "direct": direct, "routed": routed}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(values: Sequence[float], q: float = 50) -> float:
    return stats.percentile(values, q) * 1000.0 if values else 0.0


def _sum_engine_stats(dicts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = defaultdict(int)
    for payload in dicts:
        for name, value in payload.items():
            if isinstance(value, (int, float)):
                total[name] += value
    return total


def workload_engine_counters(engine_stats: Sequence[Any], obs: Observations) -> Dict[str, int]:
    """Engine counters of the workload's own traced loop.

    In-process workloads read the ``engine.stats`` of the engines their
    loop created; the cluster workload sums every replica's per-graph engine
    counters from the router's aggregated ``/stats``.
    """
    cluster = obs.payload.get("cluster_stats")
    if cluster is not None:
        return _sum_engine_stats(
            [
                counters
                for replica in (cluster.get("replicas") or {}).values()
                for per_config in (replica.get("engines") or {}).values()
                for counters in per_config.values()
            ]
        )
    return _sum_engine_stats([dataclasses.asdict(counters) for counters in engine_stats])


def _router_counters(cluster_stats: Dict[str, Any]) -> Dict[str, float]:
    replicas = (cluster_stats.get("replicas") or {}).values()
    requests = [int((replica.get("service") or {}).get("requests", 0)) for replica in replicas]
    return {
        "balance": stats.ratio(max(requests), min(requests)) if requests and min(requests) else 0.0,
        "failovers": float((cluster_stats.get("router") or {}).get("failovers", 0)),
        "restarts": float(sum((cluster_stats.get("restarts") or {}).values())),
    }


def layer_metrics(
    rec: Recorder,
    counters: Dict[str, int],
    serving: Dict[str, Any],
    own_cluster_stats: Optional[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER_UNITS`, from spans and counters."""
    get = rec.get
    lookups = (
        counters.get("s2bdd_cache_hits", 0)
        + counters.get("s2bdd_resweeps", 0)
        + counters.get("s2bdds_built", 0)
    )
    pool_lookups = counters.get("world_pool_hits", 0) + counters.get("world_pools_built", 0)
    query_seconds = sum(get("engine.query.seconds"))
    mc, pro = get("baselines.mc.seconds"), get("baselines.pro.seconds")
    batch, serial = get("parallel.batch.seconds"), get("parallel.serial.seconds")
    inproc, direct, routed = serving["inproc"], serving["direct"], serving["routed"]
    stream_stats = inproc["after_stream"]
    service = stream_stats.get("service", {})
    store = stream_stats.get("shared_store") or {}
    coalescer = stream_stats.get("coalescer", {})
    router = _router_counters(own_cluster_stats or routed["cluster_stats"])
    direct_attempted = direct["attempted"]
    return {
        "graph.compiled.compile_ms": _ms(get("compiled.compile.seconds")),
        "graph.compiled.worlds_per_s": stats.median(get("compiled.worlds_per_s")),
        "preprocess.ms_p50": _ms(get("preprocess.seconds")),
        "preprocess.subproblems_mean": stats.mean(get("preprocess.subproblems")),
        "preprocess.edge_reduction_ratio": stats.mean(get("preprocess.edge_ratio")),
        "core.s2bdd.construct_ms_p50": _ms(get("s2bdd.construct.seconds")),
        "core.s2bdd.construct_ms_p90": _ms(get("s2bdd.construct.seconds"), 90),
        "core.s2bdd.run_ms_p50": _ms(get("s2bdd.run.seconds")),
        "core.s2bdd.query_share": stats.ratio(sum(get("engine.s2bdd.seconds")), query_seconds),
        "core.s2bdd.peak_width_mean": stats.mean(get("s2bdd.peak_width")),
        "core.s2bdd.strata_mean": stats.mean(get("s2bdd.strata")),
        "core.s2bdd.sample_ratio": stats.ratio(
            sum(get("s2bdd.samples_used")), sum(get("s2bdd.samples_requested"))
        ),
        "core.s2bdd.exact_share": stats.mean(get("s2bdd.exact")),
        "baselines.sampling.estimate_ms_p50": _ms(mc),
        "baselines.sampling.abs_error_mean": stats.mean(get("baselines.mc.abs_error")),
        "baselines.sampling.pro_speedup": stats.ratio(stats.median(mc), stats.median(pro)),
        "engine.prepare_ms": _ms(get("engine.prepare.seconds")),
        "engine.query_ms_p50": _ms(get("engine.query.seconds")),
        "engine.self_ms_p50": _ms(get("engine.self.seconds")),
        "engine.diagrams.hit_ratio": stats.ratio(counters.get("s2bdd_cache_hits", 0), lookups),
        "engine.diagrams.resweep_ratio": stats.ratio(counters.get("s2bdd_resweeps", 0), lookups),
        "engine.diagrams.evictions": float(counters.get("s2bdd_cache_evictions", 0)),
        "engine.worlds.pool_build_ms_p50": _ms(get("worlds.build.seconds")),
        "engine.worlds.pool_hit_ratio": stats.ratio(counters.get("world_pool_hits", 0), pool_lookups),
        "engine.worlds.worlds_sampled": float(counters.get("worlds_sampled", 0)),
        "engine.deltas.apply_ms_p50": _ms(get("engine.deltas.seconds")),
        "engine.parallel.batch_ms_p50": _ms(batch),
        "engine.parallel.serial_batch_ms_p50": _ms(serial),
        "engine.parallel.speedup": stats.ratio(stats.median(serial), stats.median(batch)),
        "service.query_ms_p50": _ms(inproc["stream"]),
        "service.query_ms_p99": _ms(inproc["stream"], 99),
        "service.cache.hit_ratio": stats.ratio(service.get("cache_hits", 0), service.get("requests", 0)),
        "service.store.hit_ratio": stats.ratio(
            store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)
        ),
        "service.engine_evals_per_request": stats.ratio(
            service.get("engine_evaluations", 0), service.get("requests", 0)
        ),
        "service.coalesce.coalesced_share": stats.ratio(
            coalescer.get("coalesced", 0), coalescer.get("submitted", 0)
        ),
        "service.coalesce.batch_size_mean": stats.ratio(
            coalescer.get("batched_requests", 0), coalescer.get("batches", 0)
        ),
        "service.cache.invalidated_per_update": stats.mean(inproc["invalidated"]),
        "service.update_ms_p50": _ms(inproc["updates"]),
        "service.server.overhead_ms_p50": _ms(direct["hits"]) - _ms(inproc["hits"]),
        "service.server.refused_share": stats.ratio(direct["refused"], direct_attempted),
        "cluster.router.overhead_ms_p50": _ms(routed["hits"]) - _ms(direct["hits"]),
        "cluster.router.update_broadcast_ms_p50": _ms(routed["updates"]) - _ms(direct["updates"]),
        "cluster.router.replica_balance": router["balance"],
        "cluster.router.failovers": router["failovers"],
        "cluster.router.replica_restarts": router["restarts"],
    }
