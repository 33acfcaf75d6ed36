"""Seeded inputs of every workload.

Every input the program receives is generated here from the workload seed:
terminal sets, the zipf request stream, the delta schedule and the analysis
sessions.  The same seed always gives the same inputs, and the program only
ever sees the generated values.  The generators are the benchmark's own,
not ``repro.experiments.workloads``, so that a change to the program cannot
change what it is measured on.

Karate terminal sets come from a committed bank (``ground_truth/``) whose
exact reliabilities were computed once with the ``exact-bdd`` method; the
``pro-cold`` catalog takes the first sets of each size.  When the bank does not match
the current karate graph (its fingerprint changed), exact answers are
computed on demand and cached under ``.perfbench/cache``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import ExactBDD
from repro.datasets import load_dataset
from repro.engine.deltas import SetEdgeProbability
from repro.engine.queries import (
    ClusteringQuery,
    KTerminalQuery,
    Query,
    ReliabilitySearchQuery,
    ReliableSubgraphQuery,
    ThresholdQuery,
    TopKReliableVerticesQuery,
)
from repro.exceptions import BDDLimitExceededError
from repro.service import graph_fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
BANK_PATH = os.path.join(HERE, "ground_truth", "karate_exact.json")

#: The Figure 3 quick preset (``ExperimentConfig.quick()``), pinned here so
#: a change to the program's presets cannot silently change the workload.
QUICK_SAMPLES = 500
QUICK_WIDTH = 256
TERMINAL_SIZES = (2, 5, 10)

#: Exact-BDD node budget of the karate ground truth; sets that exceed it
#: are redrawn, so every banked set has an exact answer.
EXACT_NODE_LIMIT = 300_000
BANK_SEED = 20190326
BANK_SETS_PER_K = 40

SERVE_GRAPHS = ("karate", "amrv")
SERVE_DISTINCT_PER_GRAPH = 100
SERVE_SKEW = 1.1
SERVE_UPDATE_EVERY = 50
SERVE_STREAM_LENGTH = 40_000

ANALYSIS_GRAPHS = ("tokyo", "dblp1")
ANALYSIS_BATCHES_PER_SESSION = 2


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for ``label``, derived reproducibly from ``seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sorted_vertices(graph) -> List:
    return sorted(graph.vertices(), key=repr)


def uniform_terminals(graph, rng: random.Random, k: int) -> Tuple:
    """``k`` distinct vertices drawn uniformly."""
    return tuple(rng.sample(sorted_vertices(graph), k))


def local_terminals(graph, rng: random.Random, k: int) -> Tuple:
    """``k`` distinct vertices within a few hops of a random centre.

    On road networks uniform draws are almost always disconnected in most
    worlds (``R = 0``); drawing inside the smallest ball around the centre
    that holds ``2k`` vertices keeps the answers informative.
    """
    vertices = sorted_vertices(graph)
    while True:
        centre = rng.choice(vertices)
        depth = {centre: 0}
        frontier = collections.deque([centre])
        layers: Dict[int, List] = {0: [centre]}
        while frontier:
            vertex = frontier.popleft()
            for neighbour in sorted(graph.neighbors(vertex), key=repr):
                if neighbour not in depth:
                    depth[neighbour] = depth[vertex] + 1
                    layers.setdefault(depth[neighbour], []).append(neighbour)
                    frontier.append(neighbour)
        ball: List = []
        for radius in sorted(layers):
            ball.extend(layers[radius])
            if radius >= 2 and len(ball) >= 2 * k:
                return tuple(rng.sample(ball, k))


def distinct_sets(graph, rng: random.Random, k: int, count: int, draw) -> List[Tuple]:
    """``count`` pairwise-distinct terminal sets of size ``k``."""
    seen = set()
    sets: List[Tuple] = []
    attempts = 0
    while len(sets) < count and attempts < count * 50:
        attempts += 1
        terminals = draw(graph, rng, k)
        if frozenset(terminals) in seen:
            continue
        seen.add(frozenset(terminals))
        sets.append(terminals)
    return sets


def exact_reliability(graph, terminals: Sequence) -> Optional[float]:
    """The ``exact-bdd`` answer, or ``None`` when it exceeds the node budget."""
    try:
        return ExactBDD(graph, terminals, max_nodes=EXACT_NODE_LIMIT).run().reliability
    except BDDLimitExceededError:
        return None


# ----------------------------------------------------------------------
# Karate ground truth
# ----------------------------------------------------------------------
def build_bank(graph, *, per_k: int = BANK_SETS_PER_K) -> Dict:
    """Draw karate terminal sets whose exact answer exists, with that answer."""
    rng = random.Random(BANK_SEED)
    entries = []
    for k in TERMINAL_SIZES:
        seen = set()
        kept = 0
        while kept < per_k:
            terminals = uniform_terminals(graph, rng, k)
            if frozenset(terminals) in seen:
                continue
            seen.add(frozenset(terminals))
            exact = exact_reliability(graph, terminals)
            if exact is None:
                continue
            entries.append({"k": k, "terminals": list(terminals), "exact": exact})
            kept += 1
    return {
        "graph": "karate",
        "graph_fingerprint": graph_fingerprint(graph),
        "method": "exact-bdd",
        "node_limit": EXACT_NODE_LIMIT,
        "bank_seed": BANK_SEED,
        "sets": entries,
    }


def load_bank(graph) -> Optional[Dict[int, List[Tuple[Tuple, float]]]]:
    """The committed karate bank by ``k``, or ``None`` when it does not match ``graph``."""
    try:
        with open(BANK_PATH, encoding="utf-8") as handle:
            bank = json.load(handle)
    except (OSError, ValueError):
        return None
    if bank.get("graph_fingerprint") != graph_fingerprint(graph):
        return None
    by_k: Dict[int, List[Tuple[Tuple, float]]] = {k: [] for k in TERMINAL_SIZES}
    for entry in bank["sets"]:
        by_k.setdefault(entry["k"], []).append((tuple(entry["terminals"]), entry["exact"]))
    return by_k


class ExactCache:
    """On-disk cache of exact answers, keyed by graph fingerprint and terminals."""

    def __init__(self, root: str, graph) -> None:
        self._graph = graph
        fingerprint = graph_fingerprint(graph)
        self._path = os.path.join(root, ".perfbench", "cache", f"exact-{fingerprint[:24]}.json")
        try:
            with open(self._path, encoding="utf-8") as handle:
                self._answers = json.load(handle)
        except (OSError, ValueError):
            self._answers = {}
        self._dirty = False

    def get(self, terminals: Sequence) -> Optional[float]:
        key = json.dumps(sorted(terminals))
        if key not in self._answers:
            self._answers[key] = exact_reliability(self._graph, terminals)
            self._dirty = True
        return self._answers[key]

    def save(self) -> None:
        if self._dirty:
            os.makedirs(os.path.dirname(self._path), exist_ok=True)
            with open(self._path, "w", encoding="utf-8") as handle:
                json.dump(self._answers, handle)


# ----------------------------------------------------------------------
# pro-cold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProQuery:
    graph: str
    terminals: Tuple
    exact: Optional[float]  # karate only


PRO_GRAPHS = ("karate", "tokyo", "dblp1")
#: Distinct terminal sets per k in one pass.  dblp1 queries cost ~10x the
#: others, so it gets fewer: the median then falls inside the karate/tokyo
#: mass and the 90th percentile inside dblp1's, not at a boundary between
#: them, which keeps both steady across runs.  A pass takes ~10 s, so a
#: run repeats every query about three times.
PRO_SETS_PER_K = {"karate": 16, "tokyo": 16, "dblp1": 6}
#: Seed of the fixed query catalogs.  The catalogs are the workloads'
#: "applications"; ``--seed`` drives the order, the per-query random
#: streams, the request stream and the deltas.  Fixing the catalog keeps
#: runs on different seeds comparable (the cost of a query depends mostly
#: on its terminal set).
CATALOG_SEED = 2019


def pro_cold_pass(seed: int, root: str) -> List[ProQuery]:
    """One ``pro-cold`` pass: every catalog set once, in seeded round order.

    Every round holds the next set of each (graph, k) stratum whose share
    is due (dblp1 every other round), so any prefix of a pass is balanced
    over graphs and sizes.
    Karate sets come from the exact-answer bank; when the bank is stale
    they are drawn afresh and answered exactly on demand (cached on disk).
    """
    catalog_rng = random.Random(CATALOG_SEED)
    graphs = {key: load_dataset(key) for key in PRO_GRAPHS}
    karate = graphs["karate"]
    bank = load_bank(karate)
    cache = None if bank is not None else ExactCache(root, karate)
    strata: Dict[Tuple[str, int], List[ProQuery]] = {}
    for k in TERMINAL_SIZES:
        if bank is not None:
            banked = bank[k][: PRO_SETS_PER_K["karate"]]
        else:
            banked = []
            while len(banked) < PRO_SETS_PER_K["karate"]:
                terminals = uniform_terminals(karate, catalog_rng, k)
                exact = cache.get(terminals)
                if exact is not None and all(terminals != seen for seen, _ in banked):
                    banked.append((terminals, exact))
        strata[("karate", k)] = [ProQuery("karate", t, e) for t, e in banked]
        strata[("tokyo", k)] = [
            ProQuery("tokyo", t, None)
            for t in distinct_sets(graphs["tokyo"], catalog_rng, k, PRO_SETS_PER_K["tokyo"], local_terminals)
        ]
        strata[("dblp1", k)] = [
            ProQuery("dblp1", t, None)
            for t in distinct_sets(graphs["dblp1"], catalog_rng, k, PRO_SETS_PER_K["dblp1"], uniform_terminals)
        ]
    if cache is not None:
        cache.save()
    order_rng = random.Random(derive_seed(seed, "pro-cold"))
    rounds = max(PRO_SETS_PER_K.values())
    stream: List[ProQuery] = []
    for position in range(rounds):
        round_items = [
            strata[(key, k)][position * PRO_SETS_PER_K[key] // rounds]
            for key, k in sorted(strata)
            if position * PRO_SETS_PER_K[key] % rounds < PRO_SETS_PER_K[key]
        ]
        order_rng.shuffle(round_items)
        stream.extend(round_items)
    return stream


# ----------------------------------------------------------------------
# serve-update
# ----------------------------------------------------------------------
SIX_KINDS = ("k-terminal", "threshold", "search", "top-k", "subgraph", "clustering")


def six_kind_query(kind: str, terminals: Tuple, variant: int) -> Query:
    """One query of ``kind`` built from a 3-vertex terminal draw."""
    if kind == "k-terminal":
        return KTerminalQuery(terminals=terminals)
    if kind == "threshold":
        return ThresholdQuery(terminals=terminals, threshold=0.3)
    if kind == "search":
        return ReliabilitySearchQuery(sources=terminals[:1], threshold=0.3)
    if kind == "top-k":
        return TopKReliableVerticesQuery(sources=terminals[:1], k=3)
    if kind == "subgraph":
        return ReliableSubgraphQuery(
            query_vertices=terminals[:2], threshold=0.3, max_size=5
        )
    return ClusteringQuery(num_clusters=2 + variant % 12)


def distinct_mixed_queries(graph, rng: random.Random, count: int) -> List[Query]:
    """``count`` distinct six-kind queries (distinct by canonical key)."""
    queries: List[Query] = []
    seen = set()
    position = 0
    while len(queries) < count:
        kind = SIX_KINDS[position % len(SIX_KINDS)]
        query = six_kind_query(kind, uniform_terminals(graph, rng, 3), position // len(SIX_KINDS))
        position += 1
        key = query.canonical_key()
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


@dataclass(frozen=True)
class ServeInputs:
    items: List[Tuple[str, Query]]  # popularity rank order
    stream: List[int]  # item index per query slot
    deltas: List[Tuple[str, Dict]]  # (graph, delta wire form), in send order
    update_every: int

    def operation(self, position: int):
        """``("update", graph, delta)`` or ``("query", graph, query, item)`` at ``position``."""
        if position % self.update_every == self.update_every - 1:
            graph, delta = self.deltas[(position // self.update_every) % len(self.deltas)]
            return ("update", graph, delta)
        item = self.stream[position % len(self.stream)]
        graph, query = self.items[item]
        return ("query", graph, query, item)


def serve_update_inputs(seed: int) -> ServeInputs:
    """About 200 distinct six-kind queries over karate and amrv, a zipf
    stream over them, and alternating probability-only deltas."""
    catalog_rng = random.Random(CATALOG_SEED)
    graphs = {key: load_dataset(key) for key in SERVE_GRAPHS}
    per_graph = {
        key: distinct_mixed_queries(graphs[key], catalog_rng, SERVE_DISTINCT_PER_GRAPH)
        for key in SERVE_GRAPHS
    }
    # Popularity ranks alternate graphs and cycle kinds over the fixed
    # catalog; the seed draws the zipf stream and the deltas.
    rng = random.Random(derive_seed(seed, "serve-update"))
    items: List[Tuple[str, Query]] = [
        (key, per_graph[key][rank])
        for rank in range(SERVE_DISTINCT_PER_GRAPH)
        for key in SERVE_GRAPHS
    ]
    weights = [1.0 / (rank + 1) ** SERVE_SKEW for rank in range(len(items))]
    stream = rng.choices(range(len(items)), weights=weights, k=SERVE_STREAM_LENGTH)
    deltas = []
    for index in range(SERVE_STREAM_LENGTH // SERVE_UPDATE_EVERY):
        key = SERVE_GRAPHS[index % len(SERVE_GRAPHS)]
        edge_id = rng.choice(sorted(graphs[key].edge_ids()))
        probability = round(rng.uniform(0.05, 0.95), 4)
        deltas.append((key, SetEdgeProbability(edge_id, probability).to_dict()))
    return ServeInputs(items=items, stream=stream, deltas=deltas, update_every=SERVE_UPDATE_EVERY)


# ----------------------------------------------------------------------
# analysis-batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Session:
    graph: str
    seed: int
    batches: List[List[Query]]


ANALYSIS_SESSIONS = 400


def analysis_batch_inputs(seed: int) -> List[Session]:
    """Sessions alternating tokyo and dblp1, each with its own engine seed.

    Every batch mixes threshold, search, top-k, clustering and k-terminal
    queries; all of them read one world pool per session.
    """
    rng = random.Random(derive_seed(seed, "analysis-batch"))
    graphs = {key: load_dataset(key) for key in ANALYSIS_GRAPHS}
    sessions = []
    for index in range(ANALYSIS_SESSIONS):
        key = ANALYSIS_GRAPHS[index % len(ANALYSIS_GRAPHS)]
        draw = local_terminals if key == "tokyo" else uniform_terminals
        batches = []
        for batch_index in range(ANALYSIS_BATCHES_PER_SESSION):
            terminals = draw(graphs[key], rng, 3)
            batches.append(
                [
                    ThresholdQuery(terminals=terminals, threshold=0.3),
                    ReliabilitySearchQuery(sources=terminals[:1], threshold=0.3),
                    TopKReliableVerticesQuery(sources=terminals[1:2], k=3),
                    ClusteringQuery(num_clusters=2 + (index + batch_index) % 4),
                    KTerminalQuery(terminals=terminals),
                ]
            )
        sessions.append(Session(key, derive_seed(seed, f"session-{index}"), batches))
    return sessions
