"""Tests for runtime convergence diagnostics."""

import networkx as nx
import numpy as np

from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.runtime.convergence import fixed_point_residual


class TestFixedPointResidual:
    def test_zero_at_fixed_point(self):
        operator = transition_matrix(nx.cycle_graph(8), "column")
        rng = np.random.default_rng(0)
        personalization = rng.standard_normal((8, 3))
        embeddings = PersonalizedPageRank(0.4, method="solve").apply(
            operator, personalization
        )
        residual = fixed_point_residual(operator, embeddings, personalization, 0.4)
        assert residual < 1e-10

    def test_nonzero_away_from_fixed_point(self):
        operator = transition_matrix(nx.cycle_graph(8), "column")
        rng = np.random.default_rng(1)
        personalization = rng.standard_normal((8, 3))
        residual = fixed_point_residual(
            operator, personalization, personalization, 0.4
        )
        assert residual > 1e-3

    def test_empty_signal(self):
        operator = transition_matrix(nx.empty_graph(0, create_using=nx.Graph), "column")
        assert fixed_point_residual(operator, np.zeros((0, 2)), np.zeros((0, 2)), 0.5) == 0.0

