"""Bridges from the legacy stats dataclasses into metric samples.

The stack predates :mod:`repro.obs` and carries four counter families —
:class:`~repro.engine.engine.EngineStats`,
:class:`~repro.service.cache.CacheStats`,
:class:`~repro.service.store.StoreStats`, and
:class:`~repro.service.server.AdmissionStats` — plus the service,
coalescer, and router counters, all surfaced as the ``/stats`` JSON
blob.  Rather than planting registry hooks in every hot path (and
risking drift between ``/stats`` and ``/metrics``), the bridge converts
one ``/stats`` snapshot into Prometheus samples at scrape time: the
dataclasses keep their APIs untouched and both endpoints always agree.
Point-in-time fields (``hit_rate``, ``current_bytes``, ``entries``, and
the cache's byte budget ``max_bytes``) become gauges; every other field
is a cumulative counter exported with a ``_total`` suffix.

Every sample is a ``(name, type, help, labels, value)`` tuple consumed
by :meth:`MetricsRegistry.render`'s ``extra_samples`` hook.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["admission_samples", "service_samples", "router_samples"]

Sample = Tuple[str, str, str, Mapping[str, str], float]

#: ``ServiceStats`` fields → metric metadata.  All cumulative counters.
_SERVICE_FIELDS = {
    "requests": "Requests accepted by the serving core.",
    "cache_hits": "Requests answered from a cache tier.",
    "shared_store_hits": "Requests answered from the shared sqlite tier.",
    "engine_evaluations": "Queries the engine actually computed.",
    "updates_applied": "Graph deltas applied through /update.",
    "errors": "Requests that raised.",
}

_CACHE_HELP = "Result-cache counter (see CacheStats)."
_STORE_HELP = "Shared-store counter (see StoreStats)."
_COALESCE_HELP = "Coalescer counter (see CoalesceStats)."
_ENGINE_HELP = "Per-graph engine counter (see EngineStats)."
_ROUTER_HELP = "Router forwarding counter (see RouterStats)."


def _numeric_items(mapping: Optional[Mapping[str, Any]]) -> List[Tuple[str, float]]:
    if not mapping:
        return []
    items = [
        (name, float(value))
        for name, value in mapping.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    return sorted(items)


def service_samples(stats: Mapping[str, Any]) -> List[Sample]:
    """Samples for one :meth:`ReliabilityService.stats` snapshot.

    Emits ``repro_service_*`` for the request-level counters,
    ``repro_cache_*`` / ``repro_store_*`` / ``repro_coalesce_*`` for the
    tier and coalescer counters, and ``repro_engine_*{graph=...}`` for the
    per-graph engine counters.
    """
    samples: List[Sample] = []
    # _SERVICE_FIELDS is a module-level literal: its insertion order is
    # fixed, and render() re-sorts extra samples by name regardless.
    for field, help in _SERVICE_FIELDS.items():  # reprolint: ok(ORD001)
        value = stats.get("service", {}).get(field)
        if value is not None:
            samples.append(
                (f"repro_service_{field}_total", "counter", help, {}, float(value))
            )
    for prefix, section, help in (
        ("repro_cache", stats.get("cache"), _CACHE_HELP),
        ("repro_store", stats.get("shared_store"), _STORE_HELP),
        ("repro_coalesce", stats.get("coalescer"), _COALESCE_HELP),
    ):
        for field, value in _numeric_items(section):
            # Ratios, sizes and budgets are point-in-time values, not counters.
            kind = (
                "gauge"
                if field in ("hit_rate", "current_bytes", "entries", "max_bytes")
                else "counter"
            )
            suffix = "" if kind == "gauge" else "_total"
            samples.append((f"{prefix}_{field}{suffix}", kind, help, {}, value))
    engines = stats.get("engines") or {}
    for graph in sorted(engines):
        section = engines[graph] or {}
        # catalog.engine_stats() nests one counter dict per engine
        # fingerprint under each graph; a flat counter dict (older shape,
        # and what unit fixtures pass) is accepted too.
        nested = bool(section) and all(
            isinstance(value, Mapping) for value in section.values()
        )
        groups = (
            [(fingerprint, section[fingerprint]) for fingerprint in sorted(section)]
            if nested
            else [(None, section)]
        )
        for fingerprint, counters in groups:
            labels = {"graph": str(graph)}
            if fingerprint is not None:
                labels["fingerprint"] = str(fingerprint)
            for field, value in _numeric_items(counters):
                samples.append(
                    (
                        f"repro_engine_{field}_total",
                        "counter",
                        _ENGINE_HELP,
                        labels,
                        value,
                    )
                )
    return samples


def admission_samples(snapshot: Mapping[str, Any]) -> List[Sample]:
    """Samples for one :meth:`ServiceServer._admission_snapshot` dict."""
    samples: List[Sample] = []
    for field in ("accepted", "rejected"):
        value = snapshot.get(field)
        if value is not None:
            samples.append(
                (
                    f"repro_admission_{field}_total",
                    "counter",
                    "Admission-control counter (see AdmissionStats).",
                    {},
                    float(value),
                )
            )
    for field in ("pending", "peak_pending", "max_pending"):
        value = snapshot.get(field)
        if value is not None:
            samples.append(
                (
                    f"repro_admission_{field}",
                    "gauge",
                    "Admission-control occupancy (see AdmissionStats).",
                    {},
                    float(value),
                )
            )
    return samples


def router_samples(
    stats: Mapping[str, Any], restarts: Mapping[str, int]
) -> List[Sample]:
    """Samples for the router's own counters plus supervisor respawns."""
    samples: List[Sample] = [
        (f"repro_router_{field}_total", "counter", _ROUTER_HELP, {}, float(value))
        for field, value in _numeric_items(stats)
    ]
    for member in sorted(restarts):
        samples.append(
            (
                "repro_replica_restarts_total",
                "counter",
                "Replica respawns performed by the supervisor.",
                {"replica": str(member)},
                float(restarts[member]),
            )
        )
    return samples
