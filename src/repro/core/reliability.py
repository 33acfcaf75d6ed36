"""Public reliability-estimation API.

The estimation logic itself lives in the backend layer
(:mod:`repro.engine.backends`) behind the backend registry
(:mod:`repro.engine.registry`); the session API for many queries against
one graph is :class:`repro.engine.ReliabilityEngine`.  This module keeps
the library's uniform result type, :class:`ReliabilityResult`, plus
:func:`exact_reliability` — the exact answer via the ``"exact-bdd"`` or
``"brute"`` backend, for when the graph is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.core.bounds import ReliabilityBounds
from repro.core.estimators import EstimatorKind
from repro.core.s2bdd import S2BDDResult
from repro.engine.config import EstimatorConfig
from repro.engine.registry import create_backend
from repro.exceptions import ConfigurationError
from repro.graph.uncertain_graph import UncertainGraph
from repro.preprocess.pipeline import PreprocessResult

__all__ = [
    "ReliabilityResult",
    "exact_reliability",
]

Vertex = Hashable


@dataclass
class ReliabilityResult:
    """Result of one reliability estimation.

    Attributes
    ----------
    reliability:
        The estimated (or exact) network reliability ``R̂[G, T]``.
    lower_bound / upper_bound:
        Certified interval containing the true reliability.
    exact:
        ``True`` when the returned value is exact (bounds width zero), which
        happens whenever every subproblem's S²BDD fit inside its width cap.
    samples_requested:
        The caller's sample budget ``s``.
    samples_used:
        Total samples actually drawn across all subproblems (``Σ s'_i``).
    elapsed_seconds / preprocess_seconds:
        Total and preprocessing-only wall-clock time.
    bridge_probability:
        The deterministic factor ``p_b`` contributed by bridges (1.0 when
        the extension is disabled).
    num_subproblems:
        Number of stochastic subproblems evaluated after decomposition.
    subresults:
        Per-subproblem :class:`~repro.core.s2bdd.S2BDDResult` objects.
    preprocess_result:
        The :class:`~repro.preprocess.pipeline.PreprocessResult`, when the
        extension technique ran.
    """

    reliability: float
    lower_bound: float
    upper_bound: float
    exact: bool
    samples_requested: int
    samples_used: int
    elapsed_seconds: float
    preprocess_seconds: float
    bridge_probability: float
    num_subproblems: int
    estimator: EstimatorKind
    used_extension: bool
    subresults: List[S2BDDResult] = field(default_factory=list)
    preprocess_result: Optional[PreprocessResult] = None

    @property
    def bounds(self) -> ReliabilityBounds:
        """The certified bounds as a :class:`ReliabilityBounds` object."""
        return ReliabilityBounds(self.lower_bound, max(0.0, 1.0 - self.upper_bound))

    @property
    def bound_width(self) -> float:
        """Width of the certified interval."""
        return max(0.0, self.upper_bound - self.lower_bound)

    @property
    def sample_reduction_rate(self) -> float:
        """``samples_used / samples_requested`` (1.0 when nothing was requested)."""
        if self.samples_requested == 0:
            return 1.0
        return self.samples_used / self.samples_requested

    # ------------------------------------------------------------------
    # JSON-safe serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-safe dict (enums to strings, subresults summarized).

        Suitable for logging, caching, or returning from a service layer.
        The per-subproblem diagrams and the preprocess pipeline output are
        reduced to scalar summaries, so :meth:`from_dict` restores every
        scalar field but leaves ``subresults`` empty and
        ``preprocess_result`` as ``None``.
        """
        return {
            "reliability": self.reliability,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "exact": self.exact,
            "samples_requested": self.samples_requested,
            "samples_used": self.samples_used,
            "elapsed_seconds": self.elapsed_seconds,
            "preprocess_seconds": self.preprocess_seconds,
            "bridge_probability": self.bridge_probability,
            "num_subproblems": self.num_subproblems,
            "estimator": self.estimator.value,
            "used_extension": self.used_extension,
            "subresults": [
                {
                    "reliability": sub.reliability,
                    "lower_bound": sub.lower_bound,
                    "upper_bound": sub.upper_bound,
                    "exact": sub.exact,
                    "samples_used": sub.samples_used,
                    "num_strata": sub.num_strata,
                    "peak_width": sub.peak_width,
                }
                for sub in self.subresults
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReliabilityResult":
        """Rebuild a result from :meth:`to_dict` output.

        Subresult summaries are informational only and are not restored as
        :class:`~repro.core.s2bdd.S2BDDResult` objects.
        """
        scalar_fields = (
            "reliability",
            "lower_bound",
            "upper_bound",
            "exact",
            "samples_requested",
            "samples_used",
            "elapsed_seconds",
            "preprocess_seconds",
            "bridge_probability",
            "num_subproblems",
            "used_extension",
        )
        missing = sorted(
            name for name in scalar_fields + ("estimator",) if name not in payload
        )
        if missing:
            raise ConfigurationError(
                f"ReliabilityResult payload is missing fields: {', '.join(missing)}"
            )
        return cls(
            estimator=EstimatorKind.coerce(payload["estimator"]),
            **{name: payload[name] for name in scalar_fields},
        )


#: Mapping from this function's historical ``method`` names to registry names.
_EXACT_METHOD_BACKENDS = {"bdd": "exact-bdd", "brute": "brute"}


def exact_reliability(
    graph: UncertainGraph,
    terminals: Sequence[Vertex],
    *,
    method: str = "bdd",
    max_nodes: int = 2_000_000,
) -> float:
    """Compute the exact reliability on a small graph.

    Routed through the backend registry, which keeps this module free of a
    direct dependency on :mod:`repro.baselines` (the registry imports the
    implementation lazily on first use).

    Parameters
    ----------
    method:
        ``"bdd"`` (default) uses the exact frontier BDD, which handles
        graphs with up to a few hundred edges when the frontier stays small;
        ``"brute"`` enumerates all possible worlds and is limited to ~25
        edges but is immune to frontier blow-up.
    max_nodes:
        Node budget for the BDD method.
    """
    backend_name = _EXACT_METHOD_BACKENDS.get(method)
    if backend_name is None:
        raise ConfigurationError(f"unknown exact method {method!r}; use 'bdd' or 'brute'")
    config = EstimatorConfig(backend=backend_name, exact_bdd_node_limit=max_nodes)
    backend = create_backend(backend_name, config)
    return backend.estimate(graph, graph.validate_terminals(terminals)).reliability
