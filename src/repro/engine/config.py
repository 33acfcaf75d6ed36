"""Shared estimator configuration.

:class:`EstimatorConfig` consolidates the keyword surface that used to be
copy-pasted between :class:`~repro.core.reliability.ReliabilityEstimator`,
:func:`~repro.core.reliability.estimate_reliability`, the experiment
harness, and the CLI into one frozen, validated dataclass.  It selects the
reliability method by ``backend`` name (see :mod:`repro.engine.registry`),
supports ``replace()``-style overrides, and round-trips through plain dicts
and JSON so the harness can log and reload configurations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.core.estimators import EstimatorKind
from repro.core.frontier import EdgeOrdering
from repro.engine.registry import require_backend
from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomLike
from repro.utils.validation import check_positive_int

__all__ = ["EstimatorConfig"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration shared by every reliability backend.

    Attributes
    ----------
    backend:
        Registry name of the reliability method (``"s2bdd"`` — the paper's
        approach — ``"sampling"``, ``"exact-bdd"``, or ``"brute"``).
    samples:
        Sample budget ``s`` (ignored by the exact backends).
    max_width:
        S²BDD width cap ``w``.
    estimator:
        ``"mc"`` (Monte Carlo) or ``"ht"`` (Horvitz–Thompson) aggregation.
    use_extension:
        Whether the S²BDD backend runs the prune/decompose/transform
        preprocessing (the paper's extension technique).
    edge_ordering:
        Edge-ordering strategy for the frontier construction.
    stratum_mass_cutoff:
        Construction early-exit threshold in ``(0, 1]`` forwarded to
        :class:`~repro.core.s2bdd.S2BDD` (1.0 disables it).
    s2bdd_interned:
        Whether the S²BDD backend uses the interned flat-array construction
        loop.  ``False`` selects the legacy dict-based path, kept as the
        bit-identical parity reference.
    s2bdd_cache:
        Whether the S²BDD backend caches constructed diagrams per
        (subgraph, terminal set, construction config) and reuses them
        across queries.  Cached answers are bit-identical to fresh ones.
    rng:
        Seed (int), :class:`random.Random`, or ``None`` for OS seeding.
        Only ``None`` and int seeds are JSON-serializable.
    exact_bdd_node_limit:
        Node budget for the ``"exact-bdd"`` backend before it reports DNF.
    brute_force_max_edges:
        Safety cap on ``|E|`` for the ``"brute"`` backend.

    Example
    -------
    >>> config = EstimatorConfig(samples=2_000, rng=7)
    >>> config.replace(backend="sampling").backend
    'sampling'
    >>> EstimatorConfig.from_dict(config.to_dict()) == config
    True
    """

    backend: str = "s2bdd"
    samples: int = 10_000
    max_width: int = 10_000
    estimator: EstimatorKind = EstimatorKind.MONTE_CARLO
    use_extension: bool = True
    edge_ordering: EdgeOrdering = EdgeOrdering.BFS
    stratum_mass_cutoff: float = 0.5
    s2bdd_interned: bool = True
    s2bdd_cache: bool = True
    rng: RandomLike = None
    exact_bdd_node_limit: int = 2_000_000
    brute_force_max_edges: int = 25

    def __post_init__(self) -> None:
        require_backend(self.backend)
        check_positive_int(self.samples, "samples")
        check_positive_int(self.max_width, "max_width")
        check_positive_int(self.exact_bdd_node_limit, "exact_bdd_node_limit")
        check_positive_int(self.brute_force_max_edges, "brute_force_max_edges")
        # Coerce the enum-valued fields so strings ("ht", "dfs") are accepted
        # everywhere a config is built, exactly like the legacy estimators.
        object.__setattr__(self, "estimator", EstimatorKind.coerce(self.estimator))
        try:
            object.__setattr__(self, "edge_ordering", EdgeOrdering(self.edge_ordering))
        except ValueError as exc:
            valid = ", ".join(member.value for member in EdgeOrdering)
            raise ConfigurationError(
                f"unknown edge ordering {self.edge_ordering!r}; "
                f"expected one of: {valid}"
            ) from exc
        if not 0.0 < self.stratum_mass_cutoff <= 1.0:
            raise ConfigurationError(
                f"stratum_mass_cutoff must be in (0, 1], got {self.stratum_mass_cutoff!r}"
            )
        if self.rng is not None and not isinstance(self.rng, (int, random.Random)):
            raise ConfigurationError(
                f"rng must be None, an int seed, or a random.Random, got {type(self.rng)!r}"
            )
        if isinstance(self.rng, bool):
            raise ConfigurationError("rng must not be a bool; pass an int seed")

    # ------------------------------------------------------------------
    # Overrides
    # ------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "EstimatorConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # Dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-safe dict representation.

        Raises :class:`ConfigurationError` when ``rng`` holds a live
        :class:`random.Random` instance, whose state is not serialized.
        """
        if isinstance(self.rng, random.Random):
            raise ConfigurationError(
                "cannot serialize an EstimatorConfig holding a random.Random "
                "instance; use an int seed (or None) for serializable configs"
            )
        return {
            "backend": self.backend,
            "samples": self.samples,
            "max_width": self.max_width,
            "estimator": self.estimator.value,
            "use_extension": self.use_extension,
            "edge_ordering": self.edge_ordering.value,
            "stratum_mass_cutoff": self.stratum_mass_cutoff,
            "s2bdd_interned": self.s2bdd_interned,
            "s2bdd_cache": self.s2bdd_cache,
            "rng": self.rng,
            "exact_bdd_node_limit": self.exact_bdd_node_limit,
            "brute_force_max_edges": self.brute_force_max_edges,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EstimatorConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigurationError` so stale harness
        logs fail loudly instead of being silently misread.
        """
        field_names = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ConfigurationError(
                f"unknown EstimatorConfig fields: {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(field_names))}"
            )
        return cls(**dict(payload))

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def fingerprint(self) -> str:
        """A stable hex digest identifying this configuration's content.

        Two configs fingerprint equally iff every field (including the
        seed) is equal, across processes and sessions — the property the
        service layer's cache key contract relies on.  Like
        :meth:`to_dict`, this raises :class:`ConfigurationError` for a
        config holding a live :class:`random.Random`, whose state has no
        stable serialization.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "EstimatorConfig":
        """Rebuild a config from :meth:`to_json` output."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"EstimatorConfig JSON must decode to an object, got {type(payload)!r}"
            )
        return cls.from_dict(payload)
