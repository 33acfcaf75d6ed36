"""reprolint — the determinism & concurrency analyzer for this repo.

Every guarantee the engine sells — fresh ≡ cached ≡ cluster checksum
parity — rests on invariants the CI parity gates enforce only *after* a
violation ships: seeded RNG funneled through :mod:`repro.utils.rng`,
process-stable fingerprints and cache keys, ordered serialization, lock
coverage on shared mutable state, and plain-data payloads across process
boundaries.  reprolint moves those invariants to static analysis (stdlib
``ast``, nothing to install): the next ``hash()``-in-a-seed bug is a lint
failure at review time, not a latent nondeterminism hunted down by a
benchmark five PRs later.

Usage::

    repro-lint [paths] [--format json] [--baseline FILE]
    python -m repro.devtools.lint --list-rules

Programmatic entry points: :func:`run_lint` (analyze paths, baseline- and
suppression-aware) and :data:`~repro.devtools.lint.core.RULES` (the rule
registry).  See :mod:`repro.devtools.lint.rules` for what each rule
catches and which parity gate it front-runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

# Importing rules populates the registry.
from repro.devtools.lint import rules as _rules  # noqa: F401
from repro.devtools.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.devtools.lint.core import (
    RULES,
    Finding,
    analyze_path,
    analyze_source,
)

__all__ = [
    "DEFAULT_BASELINE",
    "Finding",
    "RULES",
    "analyze_path",
    "analyze_source",
    "load_baseline",
    "run_lint",
    "split_baselined",
    "write_baseline",
]


def run_lint(
    paths: Sequence[str],
    *,
    baseline: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    relative_to: Optional[str] = None,
) -> Tuple[List[Finding], List[Finding], int]:
    """Analyze ``paths``; returns ``(actionable, grandfathered, suppressed)``.

    ``baseline`` names a baseline file (missing file = empty baseline);
    ``relative_to`` controls how finding paths are rendered (and thus how
    they match baseline entries) — pass the repo root when invoking from
    elsewhere.
    """
    findings, suppressed = analyze_path(
        paths, select=set(select) if select else None, relative_to=relative_to
    )
    keys = load_baseline(baseline) if baseline else None
    if keys:
        actionable, grandfathered = split_baselined(findings, keys)
    else:
        actionable, grandfathered = findings, []
    return actionable, grandfathered, suppressed
