"""Reference clustering: the pair-by-pair ``ClusteringQuery`` loop.

:meth:`repro.engine.queries.ClusteringQuery._execute` reads one
reachability column of the world pool per centre; this module keeps the loop
it replaced, which asks :meth:`WorldPool.pair_connectivity` for every
(vertex, centre) pair, ``|V| * (2c + 1)`` scans for ``c`` centres.  It is a
test reference only: the clustering parity tests require both to return the
same centres, assignment and connection probabilities.

``pairwise_execute(query, context)`` has the signature of
``ClusteringQuery._execute``, so it can be called directly or patched in its
place.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.engine.queries import QueryContext, ReliabilityClustering
from repro.exceptions import ConfigurationError
from repro.utils.timers import Timer

__all__ = ["pairwise_execute"]

Vertex = Hashable


def pairwise_execute(self, context: QueryContext) -> ReliabilityClustering:
    graph = context.graph
    if self.num_clusters > graph.num_vertices:
        raise ConfigurationError(
            f"cannot form {self.num_clusters} clusters from "
            f"{graph.num_vertices} vertices"
        )
    timer = Timer().start()
    pool = context.world_pool(self.samples)
    connection_probability = pool.pair_connectivity
    vertices = sorted(graph.vertices(), key=repr)

    # Greedy k-centre seeding on the (1 - reliability) distance.
    centers: List[Vertex] = [
        max(vertices, key=lambda v: (graph.degree(v), repr(v)))
    ]
    best_probability: Dict[Vertex, float] = {
        vertex: connection_probability(vertex, centers[0]) for vertex in vertices
    }
    while len(centers) < self.num_clusters:
        next_center = min(
            (vertex for vertex in vertices if vertex not in centers),
            key=lambda v: (best_probability[v], -graph.degree(v), repr(v)),
        )
        centers.append(next_center)
        for vertex in vertices:
            probability = connection_probability(vertex, next_center)
            if probability > best_probability[vertex]:
                best_probability[vertex] = probability

    # Final assignment to the most reliable centre.
    assignment: Dict[Vertex, Vertex] = {}
    connection: Dict[Vertex, float] = {}
    for vertex in vertices:
        best_center = max(
            centers, key=lambda c: (connection_probability(vertex, c), repr(c))
        )
        assignment[vertex] = best_center
        connection[vertex] = connection_probability(vertex, best_center)

    return ReliabilityClustering(
        centers=tuple(centers),
        assignment=assignment,
        connection_probability=connection,
        samples_used=pool.num_worlds,
        elapsed_seconds=timer.stop(),
    )
