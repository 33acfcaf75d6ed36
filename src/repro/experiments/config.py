"""Experiment configuration shared by every runner.

The paper runs with ``s = 10,000`` samples, ``w = 10,000`` width, 20 random
terminal-set searches per large dataset and 100×100 searches/repeats for
the accuracy tables, on a C++ implementation.  Pure Python is slower, so
the default configuration scales those knobs down while keeping the same
relative comparisons; pass ``ExperimentConfig.paper()`` to run at the
paper's settings (slow).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.engine.config import EstimatorConfig
from repro.engine.registry import require_backend
from repro.utils.validation import check_positive_int

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the experiment runners.

    Attributes
    ----------
    samples:
        Sample budget ``s`` given to every estimator.
    max_width:
        S²BDD width cap ``w``.
    num_terminals:
        Terminal-set sizes ``k`` to evaluate.
    num_searches:
        Number of random terminal sets per dataset (the paper uses 20 for
        the efficiency experiments).
    accuracy_searches / accuracy_repeats:
        ``q1`` and ``q2`` of the accuracy metrics (the paper uses 100 each).
    large_datasets / small_datasets:
        Dataset keys used for the efficiency and accuracy experiments.
    scale:
        Dataset scale passed to :func:`repro.datasets.load_dataset`.
    seed:
        Base RNG seed; every runner derives per-search seeds from it.
    backend:
        Registry name of the primary reliability method (the "Pro" columns
        of the tables); resolved through :mod:`repro.engine.registry`.
    """

    samples: int = 2_000
    max_width: int = 1_000
    num_terminals: Tuple[int, ...] = (5, 10, 20)
    num_searches: int = 5
    accuracy_searches: int = 10
    accuracy_repeats: int = 10
    large_datasets: Tuple[str, ...] = ("dblp1", "dblp2", "tokyo", "nyc", "hitd")
    small_datasets: Tuple[str, ...] = ("karate", "amrv")
    scale: str = "bench"
    seed: int = 2019
    exact_bdd_node_limit: int = 200_000
    backend: str = "s2bdd"

    def __post_init__(self) -> None:
        check_positive_int(self.samples, "samples")
        check_positive_int(self.max_width, "max_width")
        check_positive_int(self.num_searches, "num_searches")
        check_positive_int(self.accuracy_searches, "accuracy_searches")
        check_positive_int(self.accuracy_repeats, "accuracy_repeats")
        require_backend(self.backend)

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A configuration small enough for CI-style smoke runs (seconds)."""
        return cls(
            samples=500,
            max_width=256,
            num_terminals=(5, 10),
            num_searches=2,
            accuracy_searches=3,
            accuracy_repeats=3,
            large_datasets=("tokyo", "dblp1"),
        )

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's original parameters (very slow in pure Python)."""
        return cls(
            samples=10_000,
            max_width=10_000,
            num_terminals=(5, 10, 20),
            num_searches=20,
            accuracy_searches=100,
            accuracy_repeats=100,
            scale="paper",
            exact_bdd_node_limit=2_000_000,
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def estimator_config(
        self, *, backend: Optional[str] = None, **overrides
    ) -> EstimatorConfig:
        """Bridge to the engine layer: an :class:`EstimatorConfig` for a runner.

        ``backend`` defaults to this config's primary backend; any
        :class:`EstimatorConfig` field can be overridden on top (e.g. the
        per-cell ``samples`` grid of Figure 4).
        """
        base = EstimatorConfig(
            backend=backend if backend is not None else self.backend,
            samples=self.samples,
            max_width=self.max_width,
            exact_bdd_node_limit=self.exact_bdd_node_limit,
        )
        return base.replace(**overrides) if overrides else base
