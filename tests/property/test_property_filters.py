"""Property-based tests for graph filters on random graphs."""

import warnings
from unittest.mock import patch

import networkx as nx
import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import diffusion_differences, reference_sparse_ppr

import repro.gsp.filters as filters
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import (
    PersonalizedPageRank,
    PrunedMassWarning,
    SparsePersonalizedPageRank,
)
from repro.gsp.normalization import transition_matrix


@st.composite
def connected_graph_operator(draw):
    """A column-stochastic operator of a random connected graph."""
    n = draw(st.integers(min_value=3, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    graph = nx.random_labeled_tree(n, seed=int(seed))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v))
    adjacency = CompressedAdjacency.from_networkx(graph)
    return transition_matrix(adjacency, "column"), n, rng


class TestPPRProperties:
    @given(
        setup=connected_graph_operator(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, setup, alpha):
        operator, n, rng = setup
        signal = rng.standard_normal(n)
        out = PersonalizedPageRank(alpha, tol=1e-12).apply(operator, signal)
        assert np.isclose(out.sum(), signal.sum(), rtol=1e-6, atol=1e-8)

    @given(
        setup=connected_graph_operator(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_negative_signals_stay_non_negative(self, setup, alpha):
        operator, n, rng = setup
        signal = np.abs(rng.standard_normal(n))
        out = PersonalizedPageRank(alpha, tol=1e-12).apply(operator, signal)
        assert np.all(out >= -1e-10)

    @given(
        setup=connected_graph_operator(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_fixed_point_equation(self, setup, alpha):
        operator, n, rng = setup
        signal = rng.standard_normal(n)
        out = PersonalizedPageRank(alpha, tol=1e-13).apply(operator, signal)
        residual = out - (1 - alpha) * (operator @ out) - alpha * signal
        assert np.max(np.abs(residual)) < 1e-9

    @given(
        setup=connected_graph_operator(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_equals_solve(self, setup, alpha):
        operator, n, rng = setup
        signal = rng.standard_normal(n)
        power = PersonalizedPageRank(alpha, tol=1e-13).apply(operator, signal)
        solve = PersonalizedPageRank(alpha, method="solve").apply(operator, signal)
        assert np.allclose(power, solve, atol=1e-8)

    @given(setup=connected_graph_operator())
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, setup):
        operator, n, rng = setup
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        ppr = PersonalizedPageRank(0.3, tol=1e-13)
        assert np.allclose(
            ppr.apply(operator, a + 2 * b),
            ppr.apply(operator, a) + 2 * ppr.apply(operator, b),
            atol=1e-8,
        )


@st.composite
def sparse_diffusion_case(draw):
    """A random graph (possibly disconnected), operator and sparse signal."""
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    graph = nx.gnm_random_graph(n, draw(st.integers(0, 3 * n)), seed=seed)
    adjacency = CompressedAdjacency.from_networkx(graph)
    normalization = draw(st.sampled_from(["column", "row", "symmetric"]))
    operator = transition_matrix(adjacency, normalization)
    dim = draw(st.integers(min_value=1, max_value=4))
    holders = rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.5))
    dense = np.zeros((n, dim))
    dense[holders] = rng.standard_normal((int(holders.sum()), dim))
    return operator, sp.csr_matrix(dense)


class TestSparseFilterMatchesReference:
    @given(
        case=sparse_diffusion_case(),
        alpha=st.floats(min_value=0.05, max_value=0.95),
        epsilon=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1]),
        dtype=st.sampled_from([np.float64, np.float32]),
        max_iterations=st.sampled_from([1, 2, 3, 10_000]),
        chunk_rows=st.sampled_from([1, 2, 3, 2048]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_field_bit_identical(
        self, case, alpha, epsilon, dtype, max_iterations, chunk_rows
    ):
        operator, signal = case
        ppr = SparsePersonalizedPageRank(
            alpha, epsilon=epsilon, tol=1e-9, max_iterations=max_iterations, dtype=dtype
        )
        with warnings.catch_warnings(), patch.object(
            filters, "_SPARSE_CHUNK_ROWS", chunk_rows
        ):
            warnings.simplefilter("ignore", PrunedMassWarning)
            got = ppr.apply_detailed(operator, signal)
            want = reference_sparse_ppr(ppr, operator, signal)
        assert diffusion_differences(got, want) == []
