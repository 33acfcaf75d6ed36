"""Deterministic random-number handling.

Every stochastic entry point in the library accepts either a seed, an
existing :class:`random.Random` instance, or ``None``.  Funnelling that
through :func:`resolve_rng` keeps experiments reproducible (a fixed seed
always yields the same estimate) while still allowing callers to share one
generator across several components.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Union

__all__ = ["RandomLike", "resolve_rng", "spawn_rng"]

RandomLike = Union[int, random.Random, None]


def resolve_rng(rng: RandomLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``rng``.

    ``None`` yields a fresh, OS-seeded generator; an ``int`` yields a
    generator seeded with that value; an existing generator is returned
    unchanged so callers can share state.
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool):  # bool is an int subclass; reject explicitly.
        raise TypeError("rng must be None, an int seed, or a random.Random")
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(
        f"rng must be None, an int seed, or a random.Random, got {type(rng)!r}"
    )


def spawn_rng(rng: random.Random, label: str = "") -> random.Random:
    """Derive an independent generator from ``rng``.

    Useful when one experiment fans out into several components that should
    not consume randomness from each other's streams (for example terminal
    selection versus world sampling).  The ``label`` participates in the
    derived seed so distinct labels give distinct streams.

    The label is mixed in through a stable digest, **not** ``hash()``:
    string hashing is randomized per process (``PYTHONHASHSEED``), and the
    old ``hash(label)`` mixing silently made every spawned stream — and
    with it every preprocessed S²BDD estimate — irreproducible across
    processes, despite a fixed seed.  Cross-process determinism is what
    the pinned golden checksums, snapshot warm starts, and the service's
    cache-key contract ("an answer is a pure function of the cache key")
    rely on.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    seed = rng.getrandbits(64) ^ int.from_bytes(digest[:8], "big")
    return random.Random(seed)
