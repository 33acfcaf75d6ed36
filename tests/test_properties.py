"""Property-based tests (hypothesis) on the core invariants.

These complement the example-based tests with randomly generated uncertain
graphs and check the structural laws the paper's correctness rests on:
bounds bracket the truth, reliability is monotone in edge probabilities,
the extension technique preserves reliability, and the estimators stay in
range.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_reliability
from repro.baselines.exact_bdd import exact_bdd_reliability
from repro.core.s2bdd import S2BDD
from repro.graph.uncertain_graph import UncertainGraph
from repro.preprocess import preprocess
from repro.preprocess.transform import transform
from tests.conftest import s2bdd_estimate


# ----------------------------------------------------------------------
# Strategy: small connected uncertain graphs
# ----------------------------------------------------------------------
@st.composite
def small_uncertain_graphs(draw, max_vertices: int = 7, max_extra_edges: int = 5):
    """Generate a connected uncertain graph with 2..max_vertices vertices."""
    num_vertices = draw(st.integers(2, max_vertices))
    probabilities = st.floats(0.05, 1.0, allow_nan=False)
    graph = UncertainGraph(name="hypothesis")
    # Random spanning tree guarantees connectivity.
    for vertex in range(1, num_vertices):
        parent = draw(st.integers(0, vertex - 1))
        graph.add_edge(parent, vertex, draw(probabilities))
    extra = draw(st.integers(0, max_extra_edges))
    for _ in range(extra):
        u = draw(st.integers(0, num_vertices - 1))
        v = draw(st.integers(0, num_vertices - 1))
        if u != v:
            graph.add_edge(u, v, draw(probabilities))
    return graph


@st.composite
def graphs_with_terminals(draw, max_vertices: int = 7):
    graph = draw(small_uncertain_graphs(max_vertices=max_vertices))
    vertices = sorted(graph.vertices())
    k = draw(st.integers(2, min(4, len(vertices))))
    terminals = draw(
        st.lists(st.sampled_from(vertices), min_size=k, max_size=k, unique=True)
    )
    return graph, terminals


class TestReliabilityLaws:
    @given(graphs_with_terminals())
    @settings(max_examples=40, deadline=None)
    def test_s2bdd_exact_matches_brute_force(self, case):
        graph, terminals = case
        oracle = brute_force_reliability(graph, terminals)
        result = S2BDD(graph, terminals, rng=0).run(50)
        assert result.exact
        assert result.reliability == pytest.approx(oracle, abs=1e-9)

    @given(graphs_with_terminals())
    @settings(max_examples=40, deadline=None)
    def test_reliability_is_within_unit_interval(self, case):
        graph, terminals = case
        result = s2bdd_estimate(graph, terminals, samples=50, rng=1)
        assert 0.0 <= result.lower_bound <= result.reliability <= result.upper_bound <= 1.0

    @given(graphs_with_terminals())
    @settings(max_examples=25, deadline=None)
    def test_bounds_bracket_truth_under_width_cap(self, case):
        graph, terminals = case
        oracle = brute_force_reliability(graph, terminals)
        result = S2BDD(graph, terminals, max_width=2, rng=3).run(200)
        assert result.bounds.lower - 1e-9 <= oracle <= result.bounds.upper + 1e-9

    @given(graphs_with_terminals(), st.floats(1.01, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_in_edge_probabilities(self, case, boost):
        """Raising every edge probability can only increase the reliability."""
        graph, terminals = case
        baseline = brute_force_reliability(graph, terminals)
        boosted = graph.copy()
        for edge_id in boosted.edge_ids():
            boosted.set_probability(edge_id, min(1.0, boosted.probability(edge_id) * boost))
        assert brute_force_reliability(boosted, terminals) >= baseline - 1e-9

    @given(graphs_with_terminals())
    @settings(max_examples=30, deadline=None)
    def test_adding_an_edge_never_hurts(self, case):
        graph, terminals = case
        vertices = sorted(graph.vertices())
        assume(len(vertices) >= 2)
        baseline = brute_force_reliability(graph, terminals)
        augmented = graph.copy()
        augmented.add_edge(vertices[0], vertices[-1], 0.5)
        assert brute_force_reliability(augmented, terminals) >= baseline - 1e-9


class TestPreprocessingLaws:
    @given(graphs_with_terminals())
    @settings(max_examples=30, deadline=None)
    def test_transform_preserves_reliability(self, case):
        graph, terminals = case
        reduced, _ = transform(graph, terminals)
        assert brute_force_reliability(reduced, terminals) == pytest.approx(
            brute_force_reliability(graph, terminals), abs=1e-9
        )

    @given(graphs_with_terminals())
    @settings(max_examples=30, deadline=None)
    def test_pipeline_factorisation(self, case):
        graph, terminals = case
        oracle = brute_force_reliability(graph, terminals)
        prep = preprocess(graph, terminals)
        deterministic = prep.deterministic_reliability()
        if deterministic is not None:
            assert deterministic == pytest.approx(oracle, abs=1e-9)
            return
        product = prep.bridge_probability
        for subproblem in prep.subproblems:
            product *= exact_bdd_reliability(subproblem.graph, subproblem.terminals)
        assert product == pytest.approx(oracle, abs=1e-9)

    @given(graphs_with_terminals())
    @settings(max_examples=30, deadline=None)
    def test_pipeline_never_grows_the_problem(self, case):
        graph, terminals = case
        prep = preprocess(graph, terminals)
        assert prep.reduced_edges <= prep.original_edges
        assert 0.0 < prep.bridge_probability <= 1.0 or prep.trivially_zero
