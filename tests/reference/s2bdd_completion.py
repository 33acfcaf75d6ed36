"""Reference stratum completion: the dict-based sampler.

:meth:`repro.core.s2bdd.S2BDD._sample_completion` runs a flat-int kernel;
this module keeps the dict-based loop it replaced, which seeds a
hashable-element :class:`~repro.utils.union_find.UnionFind` with one
``("component", label)`` anchor per frontier component and draws one
uniform per remaining edge, in plan order.  It is a test and benchmark
reference only: the parity tests and the kernel gate of
``benchmarks/gates.py`` require the kernel to return the same
``(connected, log_conditional, chosen)`` tuple and to leave the random
stream in the same state.

``dict_sample_completion(bdd, stratum, rng, track_world=...)`` has the
signature of ``S2BDD._sample_completion`` with the diagram passed first.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.s2bdd import S2BDD, Stratum, _safe_log
from repro.utils.union_find import UnionFind

__all__ = ["dict_sample_completion"]


def dict_sample_completion(
    bdd: S2BDD, stratum: Stratum, rng, *, track_world: bool = False
) -> Tuple[bool, float, Optional[frozenset]]:
    """Complete one possible world under ``stratum``.

    Returns ``(connected, log_conditional_probability, chosen_edges)``
    where ``chosen_edges`` is a frozenset of the remaining-edge ids that
    were sampled as existing (``None`` unless ``track_world`` is set;
    it is only needed by the Horvitz–Thompson estimator).  The log
    probability and the chosen ids accumulate in plan order.
    """
    plan = bdd.plan
    layer = stratum.layer
    frontier = plan.frontier(layer)
    union_find = UnionFind()

    # Seed the union-find with the frontier partition; a virtual anchor
    # per component carries the "this component holds terminals" role.
    anchors: List[Tuple[str, int]] = []
    for vertex, label in zip(frontier, stratum.partition):
        union_find.union(("component", label), vertex)
    for label, count in enumerate(stratum.terminal_counts):
        if count > 0:
            anchors.append(("component", label))

    # Terminals whose edges are all still undecided behave as singletons.
    unseen_terminals = [
        terminal
        for terminal in bdd._terminals
        if plan.first_occurrence.get(terminal, plan.num_edges) >= layer
    ]

    log_conditional = 0.0
    chosen: List[int] = []
    random_value = rng.random
    union = union_find.union
    for edge in plan.edges[layer:]:
        if random_value() < edge.probability:
            if track_world:
                log_conditional += _safe_log(edge.probability)
                chosen.append(edge.id)
            if edge.u != edge.v:
                union(edge.u, edge.v)
        elif track_world:
            log_conditional += _safe_log(1.0 - edge.probability)

    roots = {union_find.find(anchor) for anchor in anchors}
    roots.update(union_find.find(terminal) for terminal in unseen_terminals)
    connected = len(roots) <= 1
    return connected, log_conditional, frozenset(chosen) if track_world else None
