"""Built-in reliability backends.

Each class here implements the :class:`~repro.engine.registry.ReliabilityBackend`
protocol for one of the methods the paper evaluates, and every one returns
the library's uniform :class:`~repro.core.reliability.ReliabilityResult`:

* :class:`S2BDDBackend` (``"s2bdd"``) — the paper's approach: extension
  technique + S²BDD + stratified sampling.
* :class:`SamplingBackend` (``"sampling"``) — plain possible-world sampling
  (``Sampling(MC)`` / ``Sampling(HT)``).
* :class:`ExactBDDBackend` (``"exact-bdd"``) — the exact frontier BDD; may
  raise :class:`~repro.exceptions.BDDLimitExceededError` (the paper's DNF).
* :class:`BruteForceBackend` (``"brute"``) — exhaustive possible-world
  enumeration, limited to tiny graphs.

This module is imported lazily by the registry, never at package-import
time, which keeps :mod:`repro.core` free of a module-level dependency on
:mod:`repro.baselines`.
"""

from __future__ import annotations

from random import Random
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.baselines.brute_force import brute_force_reliability
from repro.baselines.exact_bdd import ExactBDD
from repro.baselines.sampling import SamplingEstimator
from repro.core.bounds import ReliabilityBounds
from repro.core.reliability import ReliabilityResult
from repro.core.s2bdd import S2BDD, S2BDDResult
from repro.engine.config import EstimatorConfig
from repro.engine.diagrams import DiagramCache, diagram_key
from repro.graph.components import GraphDecomposition
from repro.graph.uncertain_graph import UncertainGraph
from repro.obs import get_registry
from repro.obs.trace import span
from repro.preprocess.pipeline import PreprocessResult, preprocess
from repro.utils.rng import resolve_rng, spawn_rng
from repro.utils.timers import Timer

__all__ = [
    "BruteForceBackend",
    "ExactBDDBackend",
    "S2BDDBackend",
    "SamplingBackend",
]

Vertex = Hashable


class _BackendBase:
    """Shared constructor and RNG plumbing for the built-in backends."""

    name = ""

    def __init__(self, config: EstimatorConfig) -> None:
        self._config = config

    @property
    def config(self) -> EstimatorConfig:
        """The configuration this backend was created from."""
        return self._config

    def _resolve_rng(self, rng: Optional[Random]) -> Random:
        if rng is not None:
            return resolve_rng(rng)
        return resolve_rng(self._config.rng)


class S2BDDBackend(_BackendBase):
    """The paper's approach: extension technique + S²BDD + stratified sampling."""

    name = "s2bdd"

    def __init__(self, config: EstimatorConfig) -> None:
        super().__init__(config)
        self._diagram_cache: Optional[DiagramCache] = None

    def attach_diagram_cache(self, cache: DiagramCache) -> None:
        """Adopt an engine-owned constructed-diagram cache.

        Called by :class:`~repro.engine.engine.ReliabilityEngine` right
        after backend creation; a standalone backend (no engine) simply
        runs uncached.
        """
        self._diagram_cache = cache

    @property
    def diagram_cache(self) -> Optional[DiagramCache]:
        """The attached constructed-diagram cache, if any."""
        return self._diagram_cache

    @staticmethod
    def _construction_histogram():
        # Declared lazily (idempotent) so importing the module never
        # touches the global registry.
        return get_registry().histogram(
            "repro_s2bdd_construction_seconds",
            "Wall-clock seconds spent constructing S²BDD diagrams "
            "(cache hits and re-sweeps excluded).",
        )

    def estimate(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        rng: Optional[Random] = None,
        decomposition: Optional[GraphDecomposition] = None,
    ) -> ReliabilityResult:
        """Estimate ``R[G, T]``, reusing ``decomposition`` when provided."""
        config = self._config
        rng = self._resolve_rng(rng)
        timer = Timer().start()
        terminals = graph.validate_terminals(terminals)

        if len(terminals) <= 1:
            return self._trivial_result(1.0, timer.stop())

        if config.use_extension:
            prep = preprocess(graph, terminals, decomposition=decomposition)
            deterministic = prep.deterministic_reliability()
            if deterministic is not None:
                return self._trivial_result(
                    deterministic,
                    timer.stop(),
                    preprocess_seconds=prep.elapsed_seconds,
                    bridge_probability=prep.bridge_probability,
                    preprocess_result=prep,
                )
            subproblems: List[Tuple[UncertainGraph, Sequence[Vertex]]] = [
                (sub.graph, sub.terminals) for sub in prep.subproblems
            ]
            bridge_probability = prep.bridge_probability
            preprocess_seconds = prep.elapsed_seconds
            preprocess_result: Optional[PreprocessResult] = prep
        else:
            subproblems = [(graph, terminals)]
            bridge_probability = 1.0
            preprocess_seconds = 0.0
            preprocess_result = None

        reliability = bridge_probability
        bounds = ReliabilityBounds(1.0, 0.0)
        samples_used = 0
        subresults: List[S2BDDResult] = []
        all_exact = True

        cache = self._diagram_cache
        for index, (subgraph, subterminals) in enumerate(subproblems):
            sub_rng = spawn_rng(rng, f"subproblem-{index}")
            key = None
            cached = None
            if cache is not None:
                key = diagram_key(subgraph, subterminals, config)
                cached = cache.lookup(key, subgraph, owner=id(graph))
            if cached is not None:
                bdd, construction = cached
            else:
                bdd = S2BDD(
                    subgraph,
                    subterminals,
                    max_width=config.max_width,
                    edge_ordering=config.edge_ordering,
                    stratum_mass_cutoff=config.stratum_mass_cutoff,
                    rng=sub_rng,
                )
                with span("s2bdd.construct"):
                    with self._construction_histogram().time():
                        construction = bdd.construct(config.samples)
                if cache is not None:
                    cache.note_built()
                    cache.store(key, bdd, construction, subgraph, owner=id(graph))
            result = bdd.run(
                config.samples,
                estimator=config.estimator,
                rng=sub_rng,
                construction=construction,
            )
            subresults.append(result)
            reliability *= result.reliability
            bounds = bounds.combine(result.bounds)
            samples_used += result.samples_used
            all_exact &= result.exact

        bounds = bounds.scaled(bridge_probability)
        # Guard against one-ulp inversions introduced by the independent
        # floating-point roundings of the lower and upper products.
        lower_bound = min(bounds.lower, bounds.upper)
        upper_bound = max(bounds.lower, bounds.upper)
        reliability = min(upper_bound, max(lower_bound, reliability))

        return ReliabilityResult(
            reliability=reliability,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
            exact=all_exact,
            samples_requested=config.samples,
            samples_used=samples_used,
            elapsed_seconds=timer.stop(),
            preprocess_seconds=preprocess_seconds,
            bridge_probability=bridge_probability,
            num_subproblems=len(subproblems),
            estimator=config.estimator,
            used_extension=config.use_extension,
            subresults=subresults,
            preprocess_result=preprocess_result,
        )

    def _trivial_result(
        self,
        reliability: float,
        elapsed: float,
        *,
        preprocess_seconds: float = 0.0,
        bridge_probability: float = 1.0,
        preprocess_result: Optional[PreprocessResult] = None,
    ) -> ReliabilityResult:
        config = self._config
        return ReliabilityResult(
            reliability=reliability,
            lower_bound=reliability,
            upper_bound=reliability,
            exact=True,
            samples_requested=config.samples,
            samples_used=0,
            elapsed_seconds=elapsed,
            preprocess_seconds=preprocess_seconds,
            bridge_probability=bridge_probability,
            num_subproblems=0,
            estimator=config.estimator,
            used_extension=config.use_extension,
            subresults=[],
            preprocess_result=preprocess_result,
        )


class SamplingBackend(_BackendBase):
    """The classic possible-world sampling baseline behind the uniform surface."""

    name = "sampling"

    def estimate(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        rng: Optional[Random] = None,
        decomposition: Optional[GraphDecomposition] = None,
    ) -> ReliabilityResult:
        """Estimate via plain sampling; ``decomposition`` is ignored."""
        config = self._config
        sampler = SamplingEstimator(
            samples=config.samples,
            estimator=config.estimator,
            rng=self._resolve_rng(rng),
        )
        with Timer() as timer:
            result = sampler.estimate(graph, terminals)
        # Plain sampling certifies nothing, so the honest certified interval
        # is the trivial one.
        return ReliabilityResult(
            reliability=result.reliability,
            lower_bound=0.0,
            upper_bound=1.0,
            exact=False,
            samples_requested=config.samples,
            samples_used=result.samples_used,
            elapsed_seconds=timer.elapsed,
            preprocess_seconds=0.0,
            bridge_probability=1.0,
            num_subproblems=1,
            estimator=config.estimator,
            used_extension=False,
        )


class ExactBDDBackend(_BackendBase):
    """The exact frontier BDD; raises ``BDDLimitExceededError`` on blow-up."""

    name = "exact-bdd"

    def estimate(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        rng: Optional[Random] = None,
        decomposition: Optional[GraphDecomposition] = None,
    ) -> ReliabilityResult:
        """Compute the exact reliability via the full frontier BDD."""
        config = self._config
        with Timer() as timer:
            result = ExactBDD(
                graph,
                terminals,
                max_nodes=config.exact_bdd_node_limit,
                edge_ordering=config.edge_ordering,
            ).run()
        return _exact_result(result.reliability, timer.elapsed, config)


class BruteForceBackend(_BackendBase):
    """Exhaustive possible-world enumeration (tiny graphs only)."""

    name = "brute"

    def estimate(
        self,
        graph: UncertainGraph,
        terminals: Sequence[Vertex],
        *,
        rng: Optional[Random] = None,
        decomposition: Optional[GraphDecomposition] = None,
    ) -> ReliabilityResult:
        """Compute the exact reliability by enumerating all possible worlds."""
        config = self._config
        with Timer() as timer:
            reliability = brute_force_reliability(
                graph, terminals, max_edges=config.brute_force_max_edges
            )
        return _exact_result(reliability, timer.elapsed, config)


def _exact_result(
    reliability: float, elapsed: float, config: EstimatorConfig
) -> ReliabilityResult:
    """Wrap an exact answer in the uniform result type."""
    return ReliabilityResult(
        reliability=reliability,
        lower_bound=reliability,
        upper_bound=reliability,
        exact=True,
        samples_requested=0,
        samples_used=0,
        elapsed_seconds=elapsed,
        preprocess_seconds=0.0,
        bridge_probability=1.0,
        num_subproblems=1,
        estimator=config.estimator,
        used_extension=False,
    )
