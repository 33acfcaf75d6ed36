"""Uncertain-graph substrate.

This package implements everything the reliability algorithms need to know
about graphs: the :class:`~repro.graph.uncertain_graph.UncertainGraph` data
model, possible-world sampling, deterministic connectivity, bridges and
2-edge-connected components, synthetic graph generators, probability
assignment models, and edge-list I/O.
"""

from repro.graph.compiled import (
    CompiledGraph,
    compile_graph,
    compiled_fingerprint,
)
from repro.graph.components import (
    GraphDecomposition,
    decompose_graph,
    find_articulation_points,
    find_bridges,
    two_edge_connected_components,
)
from repro.graph.connectivity import (
    connected_components,
    is_connected,
    terminals_connected,
)
from repro.graph.possible_world import (
    PossibleWorld,
    sample_possible_world,
    world_probability,
)
from repro.graph.uncertain_graph import Edge, UncertainGraph

__all__ = [
    "CompiledGraph",
    "Edge",
    "GraphDecomposition",
    "PossibleWorld",
    "UncertainGraph",
    "compile_graph",
    "compiled_fingerprint",
    "connected_components",
    "decompose_graph",
    "find_articulation_points",
    "find_bridges",
    "is_connected",
    "sample_possible_world",
    "terminals_connected",
    "two_edge_connected_components",
    "world_probability",
]
