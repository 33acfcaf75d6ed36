"""Reference S²BDD construction: the dict-keyed layer loop.

:meth:`repro.core.s2bdd.S2BDD.construct` keys each layer by flat interned
state ids; this module keeps the readable loop it replaced, which keys each
layer by nested ``(partition, flags)`` tuples and steps every branch through
the reference transition :func:`tests.reference.exact_bdd_loop.apply`.  It is
a test reference only: the parity tests and the kernel gate of
``benchmarks/gates.py`` require the product construction to match it bit
for bit (same branch order, same Kahan additions, same priority-sort
trigger, same deletions).

``dict_construct(bdd, samples)`` has the signature of ``S2BDD.construct``
without the exact baseline's ``max_nodes`` budget, so it can be called
directly or patched in its place on every S²BDD path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.bounds import ReliabilityBounds
from repro.core.s2bdd import S2BDD, Stratum
from repro.utils.kahan import KahanSum
from tests.reference.exact_bdd_loop import CONNECTED, DISCONNECTED, apply

__all__ = ["dict_construct"]


def dict_construct(bdd: S2BDD, samples: int = 0) -> "S2BDD._Construction":
    """Build the S²BDD layer by layer.

    ``samples`` (the caller's budget ``s``) enables the early
    termination of Algorithm 2 (lines 26–32): once the unresolved
    probability mass is so small that the stratified budget would not
    allocate even a single sample to it, the remaining construction
    cannot change the estimate, so the surviving nodes are converted to
    strata and construction stops.  Pass 0 to disable (bounds-only
    runs).
    """
    plan = bdd._plan
    transitions = bdd._transitions
    k = bdd._k
    max_width = bdd._max_width

    if k <= 1:
        return S2BDD._Construction(ReliabilityBounds(1.0, 0.0), [], 0, 0, 0.0)
    if plan.num_edges == 0:
        # Two or more terminals but no edges: never connected.
        return S2BDD._Construction(ReliabilityBounds(0.0, 1.0), [], 0, 0, 0.0)

    connected_mass = KahanSum()
    disconnected_mass = KahanSum()
    strata: List[Stratum] = []
    deleted_mass = KahanSum()

    # A layer is a dict keyed by the Lemma-4.3 merge key; values are
    # [partition, counts, probability] (counts kept for the heuristic).
    current: Dict[Tuple, List] = {((), ()): [(), (), 1.0]}
    peak_width = 1
    layers_processed = 0

    for layer_index in range(plan.num_edges):
        if not current:
            break
        layers_processed = layer_index + 1
        edge = plan.edges[layer_index]
        probability_exist = edge.probability
        probability_missing = 1.0 - probability_exist

        parents = list(current.values())
        # Deletion can only happen if this layer is able to overflow the
        # width cap; only then is the (comparatively expensive) priority
        # ordering of the parents worthwhile.
        if bdd._use_priority and 2 * len(parents) > max_width:
            parents.sort(
                key=lambda node: transitions.priority(
                    layer_index, node[0], node[1], node[2]
                ),
                reverse=True,
            )

        next_nodes: Dict[Tuple, List] = {}
        step = apply
        for partition, counts, probability in parents:
            for exists, branch_probability in (
                (False, probability_missing),
                (True, probability_exist),
            ):
                if branch_probability <= 0.0:
                    continue
                child_probability = probability * branch_probability
                sink, child_partition, child_counts, child_flags = step(
                    transitions, layer_index, partition, counts, exists
                )
                if sink == CONNECTED:
                    connected_mass.add(child_probability)
                    continue
                if sink == DISCONNECTED:
                    disconnected_mass.add(child_probability)
                    continue
                key = (child_partition, child_flags)
                node = next_nodes.get(key)
                if node is not None:
                    node[2] += child_probability
                elif len(next_nodes) < max_width:
                    next_nodes[key] = [child_partition, child_counts, child_probability]
                else:
                    # Deleting procedure: the node becomes a stratum.
                    strata.append(
                        Stratum(
                            layer_index + 1,
                            child_partition,
                            child_counts,
                            child_probability,
                        )
                    )
                    deleted_mass.add(child_probability)
        current = next_nodes
        if len(current) > peak_width:
            peak_width = len(current)

        # Early termination (Algorithm 2, lines 26–32).  Two triggers:
        #
        # 1. the unresolved mass is so small that the stratified budget
        #    would not allocate a single sample to it — finishing the
        #    construction cannot change the estimate; or
        # 2. most of the unresolved mass has already been delegated to
        #    strata (dense graphs whose layer width blows past ``w``
        #    immediately): the bounds can improve by at most the mass
        #    still held by the surviving layer, so further layers cost
        #    construction time without reducing the sampling work.
        #
        # Both triggers require that at least one node has already been
        # deleted: as long as nothing was deleted the diagram is still
        # exact, and finishing it yields the exact reliability (the
        # paper's behaviour on small graphs).
        if samples > 0 and current and strata:
            unresolved = (
                1.0 - connected_mass.value - disconnected_mass.value
            )
            if unresolved * samples < 1.0:
                break
            if (
                bdd._stratum_mass_cutoff < 1.0
                and deleted_mass.value > bdd._stratum_mass_cutoff * unresolved
            ):
                break

    # Nodes still alive after the loop (early termination, or the
    # defensive case of surviving the final layer) become strata so
    # their probability mass is still covered by sampling.
    for partition, counts, probability in current.values():
        strata.append(Stratum(layers_processed, partition, counts, probability))
        deleted_mass.add(probability)

    p_c = min(1.0, max(0.0, connected_mass.value))
    p_d = min(1.0, max(0.0, disconnected_mass.value))
    if p_c + p_d > 1.0:
        # Numerical guard: renormalise the tiny overshoot.
        p_d = max(0.0, 1.0 - p_c)
    bounds = ReliabilityBounds(p_c, p_d)
    return S2BDD._Construction(
        bounds=bounds,
        strata=strata,
        peak_width=peak_width,
        layers_processed=layers_processed,
        deleted_mass=deleted_mass.value,
    )
