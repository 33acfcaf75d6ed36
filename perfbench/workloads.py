"""The three benchmark workloads: set-up, timed closed loop, answer checks.

Each workload exposes the same surface to ``run.py``:

* ``setup()`` builds the system under test (timed as ``setup_s``) and
  ``discard(state)`` tears down an extra set-up repetition;
* ``measure(state, seconds)`` drives the closed loop and returns an
  :class:`Observations`;
* ``check(observations, tally)`` verifies the answers after the timed
  region and returns the workload's extra (non-gated) metrics.

For the traced run each workload also describes its inputs to the layer
probes in ``layers.py`` through :meth:`probe_inputs`.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, KTerminalQuery, ReliabilityEngine, results_checksum
from repro.engine.deltas import as_graph_delta
from repro.service import GraphCatalog, graph_fingerprint
from repro.service.client import ServiceOverloadedError

from perfbench import inputs, stats
from perfbench.procs import (
    ServingProcess,
    build_snapshot,
    children_peak_rss_mb,
    self_peak_rss_mb,
)

#: Bound-containment slack for floating-point rounding of the bounds.
BOUND_EPS = 1e-9


@dataclass
class Observations:
    """What one timed closed loop saw."""

    latencies: List[float] = field(default_factory=list)  # seconds per sample
    completed_queries: int = 0
    wall_seconds: float = 0.0
    #: Set by a workload whose throughput is not ``completed_queries / wall_seconds``.
    throughput_qps: Optional[float] = None
    peak_rss_mb: float = 0.0
    attempted: int = 0
    errors: int = 0
    refused: int = 0
    error_messages: List[str] = field(default_factory=list)
    payload: Dict[str, Any] = field(default_factory=dict)

    def fail(self, error: BaseException) -> None:
        if isinstance(error, ServiceOverloadedError):
            self.refused += 1
        else:
            self.errors += 1
        if len(self.error_messages) < 10:
            self.error_messages.append(f"{type(error).__name__}: {error}")


@dataclass
class ProbeInputs:
    """A workload's own inputs, as the layer probes of the traced run consume them."""

    graph_keys: Tuple[str, ...]
    session_graph: str
    config: EstimatorConfig
    kterminal: List[inputs.ProQuery]  # terminal sets for preprocess / S2BDD / MC
    serving_graphs: Tuple[str, ...]  # graphs of the service / server / cluster probes
    serving_config: EstimatorConfig
    requests: List[Tuple[str, Any]]  # (graph, query) replayed through the service layers
    deltas: List[Tuple[str, Dict]]  # (graph, delta wire form)
    parallel_graph: str
    parallel_batch: List[Any]


class Workload:
    name = ""
    why = ""
    bypasses: Tuple[str, ...] = ()
    #: ``setup_s`` is the median of this many set-ups (the last one is measured).
    setup_repeats = 31

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def parameters(self) -> Dict[str, Any]:
        raise NotImplementedError

    def discard(self, state) -> None:
        """Undo one set-up repetition that will not be measured."""

    def teardown(self, state, observations: Optional[Observations]) -> None:
        """Release what ``setup`` built, after the timed loop (or its failure)."""


# ----------------------------------------------------------------------
# pro-cold
# ----------------------------------------------------------------------
class ProCold(Workload):
    name = "pro-cold"
    why = (
        "Paper path, no reuse: engine.query(KTerminalQuery) on distinct karate/tokyo/dblp1 sets, "
        "s2bdd s=500 w=256. Bypasses worlds, deltas, parallel, service, HTTP, router."
    )
    bypasses = ("engine.worlds", "engine.deltas", "engine.parallel", "service",
                "service.server", "cluster.router")

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        super().__init__(seed, root, workdir)
        self.stream = inputs.pro_cold_pass(seed, root)

    def config(self, pass_index: int = 0) -> EstimatorConfig:
        return EstimatorConfig(
            backend="s2bdd", samples=inputs.QUICK_SAMPLES, max_width=inputs.QUICK_WIDTH,
            rng=inputs.derive_seed(self.seed, f"pass-{pass_index}"),
        )

    def parameters(self) -> Dict[str, Any]:
        return {
            "graphs": list(inputs.PRO_GRAPHS), "backend": "s2bdd",
            "samples": inputs.QUICK_SAMPLES, "max_width": inputs.QUICK_WIDTH,
            "terminal_sizes": list(inputs.TERMINAL_SIZES), "callers": 1,
            "queries_per_pass": len(self.stream),
        }

    def setup(self):
        graphs = {key: load_dataset(key) for key in inputs.PRO_GRAPHS}
        return {"graphs": graphs, "engine": self.cold_engine(graphs, 0)}

    def cold_engine(self, graphs, pass_index: int) -> ReliabilityEngine:
        engine = ReliabilityEngine(self.config(pass_index))
        for graph in graphs.values():
            engine.prepare(graph)
        return engine

    def measure(self, state, seconds: float) -> Observations:
        """Answer whole passes over the catalog, each on a cold engine.

        The first pass always completes (accuracy metrics and the results
        checksum cover exactly it); later passes stop at the deadline.  A
        query's latency is the fastest of its passes: every pass repeats the
        same cold work, so the slower ones differ only by what the shared
        host took from them.  Throughput is the rate of one closed-loop
        caller at those latencies.
        """
        graphs = state["graphs"]
        obs = Observations()
        # Only small values are kept: result objects would grow the heap
        # (and the collector's work) with every answer.
        first_pass: List[str] = []  # per-query checksums of the first pass
        bounds: List[Tuple[inputs.ProQuery, float, float, float]] = []
        fastest: Dict[int, float] = {}  # catalog position -> seconds
        # A shared host slows its cores unevenly, for minutes at a time, and
        # the scheduler keeps a single caller on one of them: each pass runs
        # on the next allowed core in turn, so the fastest pass of a query
        # is not always taken on the same, possibly contended, core.
        cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        started = time.perf_counter()
        deadline = started + seconds
        pass_index = 0
        engine = state.pop("engine")  # later passes must not keep it alive
        try:
            while pass_index == 0 or time.perf_counter() < deadline:
                if len(cores) > 1:
                    os.sched_setaffinity(0, {cores[pass_index % len(cores)]})
                if pass_index:
                    engine = self.cold_engine(graphs, pass_index)
                for position, item in enumerate(self.stream):
                    if pass_index and time.perf_counter() >= deadline:
                        break
                    obs.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        result = engine.query(KTerminalQuery(terminals=item.terminals), graph=graphs[item.graph])
                    except Exception as error:  # counted, never fatal
                        obs.fail(error)
                        continue
                    elapsed = time.perf_counter() - t0
                    fastest[position] = min(elapsed, fastest.get(position, elapsed))
                    estimate = result.estimate
                    bounds.append((item, estimate.reliability, estimate.lower_bound, estimate.upper_bound))
                    if pass_index == 0:
                        first_pass.append(results_checksum([result]))
                pass_index += 1
        finally:
            if len(cores) > 1:
                os.sched_setaffinity(0, cores)
        obs.wall_seconds = time.perf_counter() - started
        obs.latencies = [fastest[position] for position in sorted(fastest)]
        obs.completed_queries = len(bounds)
        obs.throughput_qps = stats.ratio(len(obs.latencies), sum(obs.latencies))
        obs.peak_rss_mb = self_peak_rss_mb()
        obs.payload = {"first_pass": first_pass, "bounds": bounds, "passes": pass_index,
                       "fastest": fastest}
        return obs

    def check(self, obs: Observations, tally: stats.Tally) -> Dict[str, Any]:
        for item, reliability, low, high in obs.payload["bounds"]:
            if not low - BOUND_EPS <= reliability <= high + BOUND_EPS:
                tally.wrong += 1
                tally.note(f"{item.graph} {item.terminals}: estimate outside its bounds")
            elif item.exact is not None and not low - BOUND_EPS <= item.exact <= high + BOUND_EPS:
                tally.wrong += 1
                tally.note(f"karate {item.terminals}: exact {item.exact} outside [{low}, {high}]")
        first_pass = obs.payload["bounds"][: len(self.stream)]
        errors = [
            abs(reliability - item.exact)
            for item, reliability, _, _ in first_pass
            if item.exact is not None
        ]
        gaps = [high - low for _, _, low, high in first_pass]
        per_graph: Dict[str, List[float]] = {}
        for position, seconds in obs.payload["fastest"].items():
            per_graph.setdefault(self.stream[position].graph, []).append(seconds)
        return {
            "abs_error_mean": stats.mean(errors),
            "abs_error_queries": len(errors),
            "bound_gap_mean": stats.mean(gaps),
            "passes": obs.payload["passes"],
            "answers": obs.completed_queries,
            "wall_qps": stats.ratio(obs.completed_queries, obs.wall_seconds),
            "results_checksum": results_checksum(obs.payload["first_pass"]),
            "p50_ms_by_graph": {
                key: stats.median(values) * 1000.0 for key, values in sorted(per_graph.items())
            },
        }

    def probe_inputs(self) -> ProbeInputs:
        karate = [item for item in self.stream if item.graph == "karate"][:8]
        return ProbeInputs(
            graph_keys=inputs.PRO_GRAPHS,
            session_graph="tokyo",
            config=self.config(),
            kterminal=self.stream[:18],
            serving_graphs=("karate",),
            serving_config=self.config(),
            requests=[("karate", KTerminalQuery(terminals=item.terminals)) for item in karate],
            deltas=[],
            parallel_graph="karate",
            parallel_batch=[KTerminalQuery(terminals=item.terminals) for item in karate[:6]],
        )


# ----------------------------------------------------------------------
# serve-update
# ----------------------------------------------------------------------
SERVE_SAMPLES = 1000
#: S2BDD width of the served snapshot.  Narrow: the time then goes to the
#: serving layers, and the request median, which sits where cache hits give
#: way to misses, moves less when the host slows the misses down.  The
#: paper's quick-preset width is ``pro-cold``'s.
SERVE_WIDTH = 32
SERVE_CLIENTS = 2
#: Untimed replay before the timed region; a few delta cycles fill the caches.
SERVE_WARMUP_SECONDS = 3.0
#: Distinct (fingerprint, query) pairs whose checksum is recomputed.
SERVE_CHECK_PAIRS = 16
#: Popularity-ranked items whose version-1 answers form the results checksum.
SERVE_CHECKSUM_ITEMS = 6


class ServeUpdate(Workload):
    name = "serve-update"
    why = (
        "2 clients replay a zipf(1.1) six-kind stream over ~200 karate/amrv queries via a 2-replica "
        "s2bdd cluster router, 1 in 50 a delta. Bypasses engine.parallel and MC."
    )
    bypasses = ("engine.parallel", "baselines.sampling")
    setup_repeats = 5

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        super().__init__(seed, root, workdir)
        self.inputs = inputs.serve_update_inputs(seed)
        self._setups = 0

    def parameters(self) -> Dict[str, Any]:
        return {
            "graphs": list(inputs.SERVE_GRAPHS), "backend": "s2bdd",
            "samples": SERVE_SAMPLES, "max_width": SERVE_WIDTH, "replicas": 2, "clients": SERVE_CLIENTS,
            "distinct_queries": len(self.inputs.items), "zipf_skew": inputs.SERVE_SKEW,
            "update_every": self.inputs.update_every, "check_pairs": SERVE_CHECK_PAIRS,
            "warmup_seconds": SERVE_WARMUP_SECONDS,
        }

    def config(self) -> EstimatorConfig:
        """The snapshot's config, service-normalized (pinned engine seed)."""
        return GraphCatalog(
            EstimatorConfig(backend="s2bdd", samples=SERVE_SAMPLES, max_width=SERVE_WIDTH)
        ).config

    def setup(self):
        """Build the snapshot, then start the router and its 2 replicas from it."""
        self._setups += 1
        snapshot = os.path.join(self.workdir, f"serve-snapshot-{self._setups}")
        build_snapshot(self.config(), inputs.SERVE_GRAPHS, snapshot)
        return ServingProcess.cluster(self.root, snapshot).start()

    def discard(self, state) -> None:
        state.stop()

    def measure(self, state: ServingProcess, seconds: float) -> Observations:
        """Replay the stream for a warm-up, then for ``seconds`` timed seconds.

        Warm-up answers are checked like the others but not timed: they
        fill the caches and diagram caches the steady state runs on.
        """
        obs = Observations()
        lock = threading.Lock()
        cursor = [0]
        queries: List[Tuple[int, float, float, str, Optional[str]]] = []
        updates: List[Tuple[str, Dict, float, float, int, str]] = []
        update_latencies: List[float] = []
        started = time.perf_counter() + SERVE_WARMUP_SECONDS
        deadline = started + seconds

        def caller() -> None:
            client = state.client()
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    position = cursor[0]
                    cursor[0] += 1
                    obs.attempted += 1
                operation = self.inputs.operation(position)
                t0 = time.perf_counter()
                try:
                    if operation[0] == "update":
                        _, graph, delta = operation
                        answer = client.update(graph, delta)
                        t1 = time.perf_counter()
                        with lock:
                            if t0 >= started:
                                update_latencies.append(t1 - t0)
                            updates.append((graph, delta, t0, t1, int(answer["version"]), answer["fingerprint"]))
                    else:
                        _, graph, query, item = operation
                        response = client.query(graph, query)
                        t1 = time.perf_counter()
                        with lock:
                            if t0 >= started:
                                obs.latencies.append(t1 - t0)
                            queries.append((item, t0, t1, response.checksum, response.raw.get("graph_fingerprint")))
                except Exception as error:  # counted, never fatal
                    with lock:
                        obs.fail(error)

        threads = [threading.Thread(target=caller) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        obs.wall_seconds = time.perf_counter() - started
        obs.completed_queries = len(obs.latencies)
        try:
            cluster_stats = state.client(timeout=30.0).stats()
        except Exception as error:
            cluster_stats = {}
            obs.fail(error)
        obs.payload = {
            "queries": queries, "updates": updates,
            "update_latencies": update_latencies, "cluster_stats": cluster_stats,
        }
        return obs

    def teardown(self, state: ServingProcess, observations: Optional[Observations]) -> None:
        state.stop()
        if observations is not None:
            observations.peak_rss_mb = children_peak_rss_mb()

    def check(self, obs: Observations, tally: stats.Tally) -> Dict[str, Any]:
        queries, updates = obs.payload["queries"], obs.payload["updates"]
        items = self.inputs.items
        # Replay every committed delta locally, in version order.
        versions: Dict[str, List] = {}
        timelines: Dict[str, List] = {}
        for key in inputs.SERVE_GRAPHS:
            graph = load_dataset(key)
            states = [graph.copy()]
            records = []
            mine = sorted((u for u in updates if u[0] == key), key=lambda u: u[4])
            for expected, (_, delta, sent, received, version, fingerprint) in enumerate(mine, start=2):
                if version != expected:
                    tally.wrong += 1
                    tally.note(f"{key}: update answered version {version}, expected {expected}")
                batch = as_graph_delta(delta)
                batch.validate(graph)
                batch.apply(graph)
                if graph_fingerprint(graph) != fingerprint:
                    tally.wrong += 1
                    tally.note(f"{key} v{version}: fingerprint differs from a local replay")
                states.append(graph.copy())
                records.append(stats.UpdateRecord(version, fingerprint, sent, received))
            versions[key] = states
            timelines[key] = stats.fingerprint_timeline(graph_fingerprint(states[0]), records)
        # Every answer must carry a version committed while it was in flight.
        valid: Dict[Tuple[str, str, int], List[str]] = {}
        for item, sent, received, checksum, fingerprint in queries:
            graph = items[item][0]
            if fingerprint is None or not stats.committed_in_flight(
                timelines[graph], fingerprint, sent, received
            ):
                tally.wrong += 1
                tally.note(f"{graph} item {item}: answered for a version not live in flight")
                continue
            valid.setdefault((graph, fingerprint, item), []).append(checksum)
        # Recompute a seeded sample of distinct (fingerprint, query) pairs.
        pairs = sorted(valid)
        sample = random.Random(inputs.derive_seed(self.seed, "serve-check")).sample(
            pairs, min(SERVE_CHECK_PAIRS, len(pairs))
        )
        config = self.config()
        engines: Dict[Tuple[str, int], ReliabilityEngine] = {}

        def engine_at(graph: str, version: int) -> ReliabilityEngine:
            if (graph, version) not in engines:
                engines[(graph, version)] = ReliabilityEngine(config).prepare(
                    versions[graph][version - 1]
                )
            return engines[(graph, version)]

        for graph, fingerprint, item in sorted(sample):
            version = stats.version_of(timelines[graph], fingerprint)
            expected = results_checksum([engine_at(graph, version).query(items[item][1], seed_index=0)])
            mismatched = sum(1 for checksum in valid[(graph, fingerprint, item)] if checksum != expected)
            if mismatched:
                tally.wrong += mismatched
                tally.note(f"{graph} v{version} item {item}: checksum differs from a fresh engine")
        reference = [
            engine_at(graph, 1).query(query, seed_index=0)
            for graph, query in items[:SERVE_CHECKSUM_ITEMS]
        ]
        update_latencies = obs.payload["update_latencies"]
        return {
            "latency_p99_ms": stats.percentile(obs.latencies, 99) * 1000.0 if obs.latencies else 0.0,
            "latency_p99_beyond": stats.samples_beyond(len(obs.latencies), 99),
            "update_p50_ms": stats.median(update_latencies) * 1000.0,
            "updates": len(update_latencies),
            "checked_pairs": len(sample),
            "distinct_pairs": len(pairs),
            "results_checksum": results_checksum(reference),
        }

    def probe_inputs(self) -> ProbeInputs:
        requests, deltas = [], []
        for position in range(150):
            operation = self.inputs.operation(position)
            if operation[0] == "update":
                deltas.append((operation[1], operation[2]))
            else:
                requests.append((operation[1], operation[2]))
        karate_sets = [
            inputs.ProQuery("karate", query.terminals, None)
            for graph, query in self.inputs.items
            if graph == "karate" and query.kind == "k-terminal"
        ]
        return ProbeInputs(
            graph_keys=inputs.SERVE_GRAPHS,
            session_graph="amrv",
            config=self.config(),
            kterminal=karate_sets[:8],
            serving_graphs=inputs.SERVE_GRAPHS,
            serving_config=self.config(),
            requests=requests,
            deltas=deltas,
            parallel_graph="amrv",
            parallel_batch=[query for graph, query in self.inputs.items if graph == "amrv"][:8],
        )


# ----------------------------------------------------------------------
# analysis-batch
# ----------------------------------------------------------------------
ANALYSIS_SAMPLES = 1000
ANALYSIS_WORKERS = 2
#: Sessions always completed, however short the run; the results checksum covers them.
ANALYSIS_PREFIX = 2
ANALYSIS_CHECK_SESSIONS = 4


class AnalysisBatch(Workload):
    name = "analysis-batch"
    why = (
        "query_many(batch, workers=2) sessions on tokyo/dblp1, sampling s=1000, own seed per session so "
        "pools rebuild. Bypasses preprocess, s2bdd, diagrams, deltas, service, HTTP."
    )
    bypasses = ("preprocess", "core.s2bdd", "engine.diagrams", "engine.deltas",
                "service", "service.server", "cluster.router")

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        super().__init__(seed, root, workdir)
        self.sessions = inputs.analysis_batch_inputs(seed)

    def config(self, seed: int) -> EstimatorConfig:
        return EstimatorConfig(backend="sampling", samples=ANALYSIS_SAMPLES, rng=seed)

    def parameters(self) -> Dict[str, Any]:
        return {
            "graphs": list(inputs.ANALYSIS_GRAPHS), "backend": "sampling",
            "samples": ANALYSIS_SAMPLES, "workers": ANALYSIS_WORKERS,
            "batches_per_session": inputs.ANALYSIS_BATCHES_PER_SESSION,
            "queries_per_batch": len(self.sessions[0].batches[0]),
            "check_sessions": ANALYSIS_CHECK_SESSIONS,
        }

    def setup(self):
        graphs = {key: load_dataset(key) for key in inputs.ANALYSIS_GRAPHS}
        engine = ReliabilityEngine(self.config(self.seed))
        for graph in graphs.values():
            engine.prepare(graph)
        return {"graphs": graphs}

    def run_session(self, session: inputs.Session, graph, workers: int, latencies=None):
        engine = ReliabilityEngine(self.config(session.seed)).prepare(graph)
        checksums = []
        for batch in session.batches:
            t0 = time.perf_counter()
            results = engine.query_many(batch, graph=graph, workers=workers)
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
            checksums.append(results_checksum(results))
        return checksums

    def measure(self, state, seconds: float) -> Observations:
        graphs = state["graphs"]
        obs = Observations()
        done: List[Tuple[int, List[str]]] = []
        started = time.perf_counter()
        deadline = started + seconds
        for index, session in enumerate(self.sessions):
            if time.perf_counter() >= deadline and len(done) >= ANALYSIS_PREFIX:
                break
            size = sum(len(batch) for batch in session.batches)
            obs.attempted += size
            try:
                checksums = self.run_session(
                    session, graphs[session.graph], ANALYSIS_WORKERS, obs.latencies
                )
            except Exception as error:  # counted, never fatal
                obs.fail(error)
                continue
            obs.completed_queries += size
            done.append((index, checksums))
        obs.wall_seconds = time.perf_counter() - started
        obs.peak_rss_mb = max(self_peak_rss_mb(), children_peak_rss_mb())
        obs.payload = {"done": done, "graphs": graphs}
        return obs

    def check(self, obs: Observations, tally: stats.Tally) -> Dict[str, Any]:
        done, graphs = obs.payload["done"], obs.payload["graphs"]
        rng = random.Random(inputs.derive_seed(self.seed, "analysis-check"))
        sample = rng.sample(done, min(ANALYSIS_CHECK_SESSIONS, len(done)))
        for index, checksums in sorted(sample):
            session = self.sessions[index]
            serial = self.run_session(session, graphs[session.graph], 1)
            if serial != checksums:
                wrong = sum(
                    len(batch) for batch, a, b in zip(session.batches, serial, checksums) if a != b
                )
                tally.wrong += wrong
                tally.note(f"session {index}: workers={ANALYSIS_WORKERS} differs from workers=1")
        return {
            "checked_sessions": len(sample),
            "batches": len(obs.latencies),
            "results_checksum": results_checksum(
                [checksum for _, checksums in done[:ANALYSIS_PREFIX] for checksum in checksums]
            ),
        }

    def probe_inputs(self) -> ProbeInputs:
        first_tokyo = next(session for session in self.sessions if session.graph == "tokyo")
        tokyo_queries = [
            query
            for session in self.sessions[:16]
            if session.graph == "tokyo"
            for batch in session.batches
            for query in batch
        ]
        kterminal = [
            inputs.ProQuery(session.graph, query.terminals, None)
            for session in self.sessions[:8]
            for batch in session.batches
            for query in batch
            if query.kind == "k-terminal"
        ]
        return ProbeInputs(
            graph_keys=inputs.ANALYSIS_GRAPHS,
            session_graph="tokyo",
            config=self.config(self.seed),
            kterminal=kterminal,
            serving_graphs=("tokyo",),
            serving_config=self.config(self.seed),
            requests=[("tokyo", query) for query in tokyo_queries],
            deltas=[],
            parallel_graph="tokyo",
            parallel_batch=first_tokyo.batches[0],
        )


WORKLOADS = {cls.name: cls for cls in (ProCold, ServeUpdate, AnalysisBatch)}
