"""Runners for every table and figure of the paper's evaluation.

Each ``run_*`` function takes an :class:`~repro.experiments.config.ExperimentConfig`,
executes the corresponding experiment on the registered datasets (or their
substitutes) and returns a :class:`~repro.experiments.tables.Table` whose
rows mirror what the paper reports:

=================  =====================================================
Runner             Paper content
=================  =====================================================
``run_table2``     dataset statistics
``run_figure3``    response time of Pro(MC), Pro(MC) w/o ext,
                   Sampling(MC) and the exact BDD for k ∈ {5, 10, 20}
``run_figure4``    reduction rates of time and of samples vs ``s``
``run_figure5``    peak S²BDD size (memory proxy) and time vs ``w``
``run_table3``     accuracy (variance / error rate) on Karate
``run_table4``     accuracy on the affiliation graph (Am-Rv substitute)
``run_table5``     extension technique: preprocessing time and reduction
``run_ablation_*`` heuristic-deletion and edge-ordering ablations
``run_queries``    mixed typed-query workload through ``engine.query_many``
=================  =====================================================

Every per-search estimation is expressed as a typed
:class:`~repro.engine.queries.KTerminalQuery` answered through
:meth:`ReliabilityEngine.query`, so the harness exercises the same unified
query surface the library exposes to users.

Absolute times differ from the paper (pure Python vs C++), so the harness
is judged on the *shape*: which method wins, by roughly what factor, and
where the crossovers fall.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.exact_bdd import ExactBDD
from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.core.s2bdd import S2BDD
from repro.datasets import dataset_spec
from repro.engine import KTerminalQuery, ReliabilityEngine, create_backend
from repro.exceptions import BDDLimitExceededError
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import accuracy_metrics
from repro.experiments.tables import Table
from repro.experiments.workloads import (
    QUERY_WORKLOAD_KINDS,
    DatasetCache,
    generate_searches,
    queries_from_searches,
)
from repro.preprocess import preprocess
from repro.utils.timers import Timer

__all__ = [
    "run_ablation_heuristic",
    "run_ablation_ordering",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_queries",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_all",
]


# ----------------------------------------------------------------------
# Table 2 — dataset statistics
# ----------------------------------------------------------------------
def run_table2(config: Optional[ExperimentConfig] = None) -> Table:
    """Regenerate Table 2: dataset statistics, paper vs this repository."""
    config = config or ExperimentConfig()
    cache = DatasetCache(scale=config.scale)
    table = Table(
        title="Table 2: datasets (paper statistics vs loaded substitutes)",
        columns=[
            "Abbr", "Type",
            "paper |V|", "paper |E|", "paper deg", "paper prob",
            "ours |V|", "ours |E|", "ours deg", "ours prob",
        ],
    )
    for key in config.small_datasets + config.large_datasets:
        spec = dataset_spec(key)
        graph = cache.graph(key)
        table.add_row(
            spec.abbreviation,
            spec.kind,
            spec.paper.vertices,
            spec.paper.edges,
            spec.paper.average_degree,
            spec.paper.average_probability,
            graph.num_vertices,
            graph.num_edges,
            round(graph.average_degree(), 2),
            round(graph.average_probability(), 3),
        )
    table.add_note(
        "only Karate is the original dataset; the others are seeded synthetic "
        "substitutes from the same structural family (see DESIGN.md)"
    )
    return table


# ----------------------------------------------------------------------
# Figure 3 — efficiency overview
# ----------------------------------------------------------------------
def run_figure3(
    config: Optional[ExperimentConfig] = None,
    *,
    include_exact_bdd: bool = True,
) -> Table:
    """Regenerate Figure 3: response time per dataset and terminal count."""
    config = config or ExperimentConfig()
    cache = DatasetCache(scale=config.scale)
    pro_label = "Pro(MC)" if config.backend == "s2bdd" else f"Pro({config.backend})"
    table = Table(
        title="Figure 3: response time [s] (mean over searches)",
        columns=[
            "dataset", "k",
            pro_label, f"{pro_label} w/o ext", "Sampling(MC)", "BDD", "speed-up",
        ],
    )
    for key in config.large_datasets:
        graph = cache.graph(key)
        decomposition = cache.decomposition(key)
        pro = ReliabilityEngine(config.estimator_config())
        pro.prepare(graph, decomposition)
        no_extension = ReliabilityEngine(config.estimator_config(use_extension=False))
        no_extension.prepare(graph, decomposition)
        sampler = ReliabilityEngine(config.estimator_config(backend="sampling"))
        sampler.prepare(graph, decomposition)
        for k in config.num_terminals:
            searches = generate_searches(
                graph, key, k, config.num_searches, seed=config.seed + k
            )
            pro_times: List[float] = []
            noext_times: List[float] = []
            sampling_times: List[float] = []
            for index, search in enumerate(searches):
                seed = config.seed * 1000 + index
                query = KTerminalQuery(terminals=search.terminals)
                with Timer() as timer:
                    pro.query(query, rng=seed)
                pro_times.append(timer.elapsed)

                with Timer() as timer:
                    no_extension.query(query, rng=seed)
                noext_times.append(timer.elapsed)

                with Timer() as timer:
                    sampler.query(query, rng=seed)
                sampling_times.append(timer.elapsed)

            bdd_cell: object = "-"
            if include_exact_bdd:
                bdd_cell = _exact_bdd_time(graph, searches[0].terminals, config)
            pro_mean = statistics.mean(pro_times)
            sampling_mean = statistics.mean(sampling_times)
            table.add_row(
                dataset_spec(key).abbreviation,
                k,
                round(pro_mean, 3),
                round(statistics.mean(noext_times), 3),
                round(sampling_mean, 3),
                bdd_cell,
                round(sampling_mean / pro_mean, 2) if pro_mean > 0 else None,
            )
    table.add_note(
        f"s={config.samples}, w={config.max_width}, "
        f"{config.num_searches} searches per cell; DNF = exact BDD exceeded "
        "its node budget (the paper's out-of-memory outcome)"
    )
    return table


def _exact_bdd_time(graph, terminals, config: ExperimentConfig) -> object:
    """Time the exact BDD baseline, reporting DNF on node-budget blow-up."""
    backend = create_backend("exact-bdd", config.estimator_config(backend="exact-bdd"))
    try:
        with Timer() as timer:
            backend.estimate(graph, terminals)
    except BDDLimitExceededError:
        return "DNF"
    return round(timer.elapsed, 3)


# ----------------------------------------------------------------------
# Figure 4 — effect of the number of samples
# ----------------------------------------------------------------------
def run_figure4(
    config: Optional[ExperimentConfig] = None,
    *,
    sample_grid: Sequence[int] = (100, 1_000, 10_000),
    datasets: Optional[Sequence[str]] = None,
    num_terminals: int = 5,
) -> Table:
    """Regenerate Figure 4: reduction rates of time and of samples vs ``s``."""
    config = config or ExperimentConfig()
    datasets = tuple(datasets) if datasets is not None else config.large_datasets
    cache = DatasetCache(scale=config.scale)
    table = Table(
        title="Figure 4: reduction rates (ours / sampling baseline) vs number of samples",
        columns=["dataset", "s", "time ratio", "sample ratio", "Pro time [s]", "Sampling time [s]"],
    )
    for key in datasets:
        graph = cache.graph(key)
        decomposition = cache.decomposition(key)
        searches = generate_searches(
            graph, key, num_terminals, config.num_searches, seed=config.seed
        )
        for samples in sample_grid:
            pro = ReliabilityEngine(config.estimator_config(samples=samples))
            pro.prepare(graph, decomposition)
            sampler = ReliabilityEngine(
                config.estimator_config(backend="sampling", samples=samples)
            )
            sampler.prepare(graph, decomposition)
            time_ratios: List[float] = []
            sample_ratios: List[float] = []
            pro_times: List[float] = []
            sampling_times: List[float] = []
            for index, search in enumerate(searches):
                seed = config.seed * 1000 + index
                query = KTerminalQuery(terminals=search.terminals)
                with Timer() as timer:
                    result = pro.query(query, rng=seed).estimate
                pro_times.append(timer.elapsed)

                with Timer() as timer:
                    sampler.query(query, rng=seed)
                sampling_times.append(timer.elapsed)

                if sampling_times[-1] > 0:
                    time_ratios.append(pro_times[-1] / sampling_times[-1])
                sample_ratios.append(result.samples_used / samples)
            table.add_row(
                dataset_spec(key).abbreviation,
                samples,
                round(statistics.mean(time_ratios), 3) if time_ratios else None,
                round(statistics.mean(sample_ratios), 3),
                round(statistics.mean(pro_times), 3),
                round(statistics.mean(sampling_times), 3),
            )
    table.add_note("ratios below 1.0 mean our approach is faster / uses fewer samples")
    return table


# ----------------------------------------------------------------------
# Figure 5 — effect of the maximum width
# ----------------------------------------------------------------------
def run_figure5(
    config: Optional[ExperimentConfig] = None,
    *,
    width_grid: Sequence[int] = (128, 512, 2_048, 8_192),
    datasets: Optional[Sequence[str]] = None,
    num_terminals: int = 5,
) -> Table:
    """Regenerate Figure 5: peak S²BDD size and response time vs ``w``.

    The paper reports resident memory in GB; a pure-Python reimplementation
    cannot reproduce absolute memory numbers, so the harness reports the
    peak number of retained layer nodes (the quantity the width cap
    controls and the paper's memory is proportional to) next to the
    response time.
    """
    config = config or ExperimentConfig()
    datasets = tuple(datasets) if datasets is not None else config.large_datasets
    cache = DatasetCache(scale=config.scale)
    table = Table(
        title="Figure 5: effect of the maximum width w",
        columns=["dataset", "w", "peak nodes", "approx memory [MB]", "time [s]"],
    )
    for key in datasets:
        graph = cache.graph(key)
        decomposition = cache.decomposition(key)
        searches = generate_searches(
            graph, key, num_terminals, config.num_searches, seed=config.seed
        )
        for width in width_grid:
            engine = ReliabilityEngine(config.estimator_config(max_width=width))
            engine.prepare(graph, decomposition)
            peaks: List[int] = []
            times: List[float] = []
            for index, search in enumerate(searches):
                seed = config.seed * 1000 + index
                with Timer() as timer:
                    result = engine.query(
                        KTerminalQuery(terminals=search.terminals), rng=seed
                    ).estimate
                times.append(timer.elapsed)
                peaks.append(max((sub.peak_width for sub in result.subresults), default=0))
            mean_peak = statistics.mean(peaks) if peaks else 0.0
            table.add_row(
                dataset_spec(key).abbreviation,
                width,
                round(mean_peak, 1),
                round(mean_peak * _BYTES_PER_NODE / 1e6, 3),
                round(statistics.mean(times), 3),
            )
    table.add_note(
        "memory is approximated as peak retained nodes x ~200 bytes per node; "
        "the paper's observation is that memory grows with w while time stays flat"
    )
    return table


#: Rough per-node footprint (partition + counts tuples + dict entry) used
#: for the Figure 5 memory proxy.
_BYTES_PER_NODE = 200


# ----------------------------------------------------------------------
# Tables 3 and 4 — accuracy on the small datasets
# ----------------------------------------------------------------------
def _exact_reference(graph, terminals, decomposition, *, node_limit: int) -> float:
    """Exact reliability used as the accuracy ground truth.

    Runs the extension technique first and multiplies per-component exact
    BDD results (Lemma 5.1); this keeps the reference computable even when
    the full-graph BDD would exceed the node budget (e.g. the affiliation
    graph, whose hub vertices give the un-decomposed diagram a wide
    frontier).
    """
    prep = preprocess(graph, terminals, decomposition=decomposition)
    deterministic = prep.deterministic_reliability()
    if deterministic is not None:
        return deterministic
    product = prep.bridge_probability
    for subproblem in prep.subproblems:
        product *= ExactBDD(
            subproblem.graph, subproblem.terminals, max_nodes=node_limit
        ).run().reliability
    return product


def _run_accuracy(dataset: str, config: ExperimentConfig) -> Table:
    cache = DatasetCache(scale=config.scale)
    graph = cache.graph(dataset)
    decomposition = cache.decomposition(dataset)
    spec = dataset_spec(dataset)
    table = Table(
        title=f"Accuracy on the {spec.abbreviation} dataset",
        columns=["k", "method", "variance", "error rate", "mean R-hat", "exact runs"],
    )
    methods: Tuple[Tuple[str, str, EstimatorKind], ...] = (
        ("Pro(MC)", config.backend, EstimatorKind.MONTE_CARLO),
        ("Pro(HT)", config.backend, EstimatorKind.HORVITZ_THOMPSON),
        ("Sampling(MC)", "sampling", EstimatorKind.MONTE_CARLO),
        ("Sampling(HT)", "sampling", EstimatorKind.HORVITZ_THOMPSON),
    )
    for k in config.num_terminals:
        searches = generate_searches(
            graph,
            dataset,
            k,
            config.accuracy_searches,
            seed=config.seed + 31 * k,
            require_connected=True,
        )
        exact_values: List[float] = []
        for search in searches:
            exact_values.append(
                _exact_reference(
                    graph,
                    search.terminals,
                    decomposition,
                    node_limit=config.exact_bdd_node_limit,
                )
            )
        for label, backend_name, estimator_kind in methods:
            engine = ReliabilityEngine(
                config.estimator_config(
                    backend=backend_name,
                    estimator=estimator_kind,
                    # The accuracy experiments use the paper's larger width
                    # so the S²BDD solves the small datasets exactly, as
                    # reported in Tables 3 and 4.
                    max_width=max(config.max_width, 10_000),
                )
            )
            engine.prepare(graph, decomposition)
            approximations: List[List[float]] = []
            exact_runs = 0
            for search_index, search in enumerate(searches):
                repeats: List[float] = []
                for repeat in range(config.accuracy_repeats):
                    seed = config.seed + 7919 * search_index + repeat
                    result = engine.query(
                        KTerminalQuery(terminals=search.terminals), rng=seed
                    ).estimate
                    repeats.append(result.reliability)
                    if result.exact:
                        exact_runs += 1
                approximations.append(repeats)
            metrics = accuracy_metrics(exact_values, approximations)
            mean_estimate = statistics.mean(
                value for repeats in approximations for value in repeats
            )
            table.add_row(
                k,
                label,
                metrics.variance,
                metrics.error_rate,
                round(mean_estimate, 4),
                exact_runs,
            )
    table.add_note(
        f"q1={config.accuracy_searches} searches x q2={config.accuracy_repeats} repeats, "
        f"s={config.samples}; exact reliabilities from the full frontier BDD"
    )
    return table


def run_table3(config: Optional[ExperimentConfig] = None) -> Table:
    """Regenerate Table 3: accuracy on the Karate dataset."""
    config = config or ExperimentConfig()
    table = _run_accuracy("karate", config)
    table.title = "Table 3: accuracy on the Karate dataset"
    return table


def run_table4(config: Optional[ExperimentConfig] = None) -> Table:
    """Regenerate Table 4: accuracy on the Am-Rv (affiliation) dataset."""
    config = config or ExperimentConfig()
    table = _run_accuracy("amrv", config)
    table.title = "Table 4: accuracy on the Am-Rv dataset (substitute)"
    return table


# ----------------------------------------------------------------------
# Table 5 — effect of the extension technique
# ----------------------------------------------------------------------
def run_table5(
    config: Optional[ExperimentConfig] = None,
    *,
    num_terminals: int = 5,
) -> Table:
    """Regenerate Table 5: preprocessing time and reduced graph size."""
    config = config or ExperimentConfig()
    cache = DatasetCache(scale=config.scale)
    table = Table(
        title="Table 5: effect of the extension technique",
        columns=["dataset", "process time [s]", "reduced graph size", "bridges", "subproblems"],
    )
    for key in config.small_datasets + config.large_datasets:
        graph = cache.graph(key)
        decomposition = cache.decomposition(key)
        searches = generate_searches(
            graph, key, num_terminals, config.num_searches, seed=config.seed
        )
        times: List[float] = []
        ratios: List[float] = []
        bridges: List[int] = []
        subproblems: List[int] = []
        for search in searches:
            result = preprocess(graph, search.terminals, decomposition=decomposition)
            times.append(result.elapsed_seconds)
            ratios.append(result.reduction_ratio)
            bridges.append(result.num_bridges)
            subproblems.append(len(result.subproblems))
        table.add_row(
            dataset_spec(key).abbreviation,
            round(statistics.mean(times), 5),
            round(statistics.mean(ratios), 3),
            round(statistics.mean(bridges), 1),
            round(statistics.mean(subproblems), 1),
        )
    table.add_note(
        "'reduced graph size' = largest decomposed component size / original |E| "
        "(the paper's column), averaged over searches; 2ECC index precomputed"
    )
    return table


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def run_ablation_heuristic(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: str = "tokyo",
    num_terminals: int = 5,
) -> Table:
    """Compare priority-based deletion (Eq. 10) against arrival-order deletion."""
    config = config or ExperimentConfig()
    cache = DatasetCache(scale=config.scale)
    graph = cache.graph(dataset)
    decomposition = cache.decomposition(dataset)
    searches = generate_searches(
        graph, dataset, num_terminals, config.num_searches, seed=config.seed
    )
    table = Table(
        title=f"Ablation: deletion heuristic on {dataset_spec(dataset).abbreviation}",
        columns=["strategy", "mean bound width", "mean p_c", "mean 1-p_d", "mean samples used"],
    )
    for label, use_priority in (("priority h(n)", True), ("arrival order", False)):
        widths: List[float] = []
        lowers: List[float] = []
        uppers: List[float] = []
        used: List[int] = []
        for index, search in enumerate(searches):
            prep = preprocess(graph, search.terminals, decomposition=decomposition)
            if prep.deterministic_reliability() is not None or not prep.subproblems:
                continue
            subproblem = max(prep.subproblems, key=lambda sub: sub.graph.num_edges)
            bdd = S2BDD(
                subproblem.graph,
                subproblem.terminals,
                max_width=config.max_width,
                use_priority=use_priority,
                rng=config.seed + index,
            )
            result = bdd.run(config.samples)
            widths.append(result.bounds.width)
            lowers.append(result.bounds.lower)
            uppers.append(result.bounds.upper)
            used.append(result.samples_used)
        table.add_row(
            label,
            round(statistics.mean(widths), 4) if widths else None,
            round(statistics.mean(lowers), 4) if lowers else None,
            round(statistics.mean(uppers), 4) if uppers else None,
            round(statistics.mean(used), 1) if used else None,
        )
    table.add_note("smaller bound width / fewer samples is better")
    return table


def run_ablation_ordering(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: str = "tokyo",
    num_terminals: int = 5,
) -> Table:
    """Compare edge-ordering strategies by frontier width and bound quality."""
    config = config or ExperimentConfig()
    cache = DatasetCache(scale=config.scale)
    graph = cache.graph(dataset)
    decomposition = cache.decomposition(dataset)
    searches = generate_searches(
        graph, dataset, num_terminals, config.num_searches, seed=config.seed
    )
    table = Table(
        title=f"Ablation: edge ordering on {dataset_spec(dataset).abbreviation}",
        columns=["ordering", "max frontier", "mean bound width", "mean time [s]"],
    )
    for ordering in (EdgeOrdering.BFS, EdgeOrdering.DFS, EdgeOrdering.DEGREE, EdgeOrdering.INPUT):
        frontiers: List[int] = []
        widths: List[float] = []
        times: List[float] = []
        for index, search in enumerate(searches):
            prep = preprocess(graph, search.terminals, decomposition=decomposition)
            if prep.deterministic_reliability() is not None or not prep.subproblems:
                continue
            subproblem = max(prep.subproblems, key=lambda sub: sub.graph.num_edges)
            bdd = S2BDD(
                subproblem.graph,
                subproblem.terminals,
                max_width=config.max_width,
                edge_ordering=ordering,
                rng=config.seed + index,
            )
            with Timer() as timer:
                result = bdd.run(config.samples)
            frontiers.append(bdd.plan.max_frontier_size())
            widths.append(result.bounds.width)
            times.append(timer.elapsed)
        table.add_row(
            ordering.value,
            round(statistics.mean(frontiers), 1) if frontiers else None,
            round(statistics.mean(widths), 4) if widths else None,
            round(statistics.mean(times), 3) if times else None,
        )
    table.add_note("the BFS ordering is the library default")
    return table


# ----------------------------------------------------------------------
# Unified query API: mixed workload through engine.query_many
# ----------------------------------------------------------------------
def run_queries(
    config: Optional[ExperimentConfig] = None,
    *,
    query_kind: str = "all",
    dataset: Optional[str] = None,
) -> Table:
    """Run a typed-query workload through the unified ``engine.query_many``.

    This is the engine's headline scenario beyond plain estimation: one
    prepared graph, many heterogeneous analysis queries.  Each requested
    kind (``--query-kind`` on the CLI) is generated from the same random
    searches and answered in one batch; the sampling-driven kinds share
    the session's world pool, which the table's footer reports.
    """
    config = config or ExperimentConfig()
    dataset = dataset or config.large_datasets[0]
    kinds = QUERY_WORKLOAD_KINDS if query_kind == "all" else (query_kind,)
    cache = DatasetCache(scale=config.scale)
    graph = cache.graph(dataset)
    engine = ReliabilityEngine(config.estimator_config(rng=config.seed))
    engine.prepare(graph, cache.decomposition(dataset))
    searches = generate_searches(
        graph, dataset, config.num_terminals[0], config.num_searches, seed=config.seed
    )
    table = Table(
        title=f"Typed queries on {dataset_spec(dataset).abbreviation} "
        f"(backend {engine.backend_name!r})",
        columns=["query kind", "queries", "total [s]", "engine [s]", "mean [s]", "result"],
    )
    for kind in kinds:
        queries = queries_from_searches(searches, kind, threshold=0.3)
        with Timer() as timer:
            results = engine.query_many(queries)
        # Every result self-reports its evaluation time; the gap to the
        # wall-clock total is dispatch/serialization overhead.
        engine_seconds = sum(_result_elapsed(result) for result in results)
        table.add_row(
            kind,
            len(results),
            round(timer.elapsed, 3),
            round(engine_seconds, 3),
            round(timer.elapsed / len(results), 4),
            _summarize_query_result(results[0]),
        )
    stats = engine.stats
    table.add_note(
        f"shared world pool: {stats.world_pools_built} built, "
        f"{stats.world_pool_hits} cache hits, {stats.world_pools_evicted} "
        f"evicted, {stats.worlds_sampled} worlds "
        f"sampled for {stats.queries_served} queries"
    )
    return table


def _result_elapsed(result) -> float:
    """A result's self-reported evaluation time in seconds.

    Every query result carries ``elapsed_seconds``; a k-terminal answer
    reports it on its nested reliability estimate instead.
    """
    elapsed = getattr(result, "elapsed_seconds", None)
    if elapsed is None:
        elapsed = getattr(getattr(result, "estimate", None), "elapsed_seconds", 0.0)
    return float(elapsed or 0.0)


def _summarize_query_result(result) -> str:
    """One human-readable cell describing the first result of a batch."""
    kind = type(result).kind
    if kind == "k-terminal":
        return f"R={result.reliability:.3f}"
    if kind == "threshold":
        return f"satisfied={result.satisfied} (R={result.reliability:.3f})"
    if kind == "search":
        return f"{len(result.vertices)} vertices >= eta"
    if kind == "top-k":
        return f"top={result.ranking[0][1]:.3f}" if result.ranking else "empty"
    if kind == "subgraph":
        return f"size={result.size} R={result.reliability:.3f}"
    if kind == "clustering":
        return f"avg conn={result.average_connection_probability():.3f}"
    return kind


# ----------------------------------------------------------------------
# Convenience: run everything
# ----------------------------------------------------------------------
def run_all(config: Optional[ExperimentConfig] = None) -> Dict[str, Table]:
    """Run every experiment and return the tables keyed by experiment id."""
    config = config or ExperimentConfig()
    return {
        "table2": run_table2(config),
        "figure3": run_figure3(config),
        "figure4": run_figure4(config),
        "figure5": run_figure5(config),
        "table3": run_table3(config),
        "table4": run_table4(config),
        "table5": run_table5(config),
        "ablation_heuristic": run_ablation_heuristic(config),
        "ablation_ordering": run_ablation_ordering(config),
        "queries": run_queries(config),
    }
