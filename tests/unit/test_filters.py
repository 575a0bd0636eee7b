"""Tests for repro.gsp.filters: PPR, heat kernel, polynomial filters."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.gsp.filters import HeatKernel, PersonalizedPageRank
from repro.gsp.normalization import transition_matrix


@pytest.fixture(scope="module")
def operator(small_world_adjacency):
    return transition_matrix(small_world_adjacency, "column")


@pytest.fixture(scope="module")
def small_world_adjacency():
    # module-scoped copy of the session fixture (filters tests reuse heavily)
    from repro.graphs.adjacency import CompressedAdjacency
    from repro.graphs.generators import connected_watts_strogatz

    return CompressedAdjacency.from_networkx(
        connected_watts_strogatz(60, 6, 0.15, seed=7)
    )


class TestPersonalizedPageRank:
    def test_power_matches_solve(self, operator):
        rng = np.random.default_rng(0)
        signal = rng.standard_normal((operator.shape[0], 5))
        power = PersonalizedPageRank(0.3, tol=1e-12).apply(operator, signal)
        solve = PersonalizedPageRank(0.3, method="solve").apply(operator, signal)
        assert np.allclose(power, solve, atol=1e-9)

    def test_closed_form_identity(self, operator):
        """E must satisfy eq. (6): E = a (I − (1−a) A)^{-1} E0."""
        n = operator.shape[0]
        rng = np.random.default_rng(1)
        signal = rng.standard_normal(n)
        alpha = 0.4
        diffused = PersonalizedPageRank(alpha, tol=1e-13).apply(operator, signal)
        residual = diffused - (1 - alpha) * (operator @ diffused) - alpha * signal
        assert np.max(np.abs(residual)) < 1e-10

    def test_mass_conservation_column_stochastic(self, operator):
        """Column sums of H are 1, so total signal mass is preserved."""
        n = operator.shape[0]
        signal = np.zeros(n)
        signal[3] = 2.5
        diffused = PersonalizedPageRank(0.2, tol=1e-13).apply(operator, signal)
        assert diffused.sum() == pytest.approx(2.5, abs=1e-9)

    def test_one_hot_diffusion_is_probability(self, operator):
        n = operator.shape[0]
        one_hot = np.zeros(n)
        one_hot[0] = 1.0
        ppr = PersonalizedPageRank(0.15, tol=1e-13).apply(operator, one_hot)
        assert np.all(ppr >= -1e-12)
        assert ppr.sum() == pytest.approx(1.0, abs=1e-9)

    def test_alpha_one_returns_signal(self, operator):
        signal = np.arange(operator.shape[0], dtype=float)
        out = PersonalizedPageRank(1.0).apply(operator, signal)
        assert np.allclose(out, signal)

    def test_origin_dominates_with_light_diffusion(self, operator):
        n = operator.shape[0]
        one_hot = np.zeros(n)
        one_hot[7] = 1.0
        ppr = PersonalizedPageRank(0.9, tol=1e-13).apply(operator, one_hot)
        assert np.argmax(ppr) == 7
        assert ppr[7] > 0.9

    def test_heavy_diffusion_spreads_farther(self, operator):
        """Smaller alpha pushes more probability mass away from the origin."""
        n = operator.shape[0]
        one_hot = np.zeros(n)
        one_hot[7] = 1.0
        heavy = PersonalizedPageRank(0.1, tol=1e-13).apply(operator, one_hot)
        light = PersonalizedPageRank(0.9, tol=1e-13).apply(operator, one_hot)
        assert heavy[7] < light[7]
        assert (1 - heavy[7]) > (1 - light[7])

    def test_linearity(self, operator):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(operator.shape[0])
        b = rng.standard_normal(operator.shape[0])
        ppr = PersonalizedPageRank(0.3, tol=1e-13)
        combined = ppr.apply(operator, 2.0 * a - 3.0 * b)
        separate = 2.0 * ppr.apply(operator, a) - 3.0 * ppr.apply(operator, b)
        assert np.allclose(combined, separate, atol=1e-9)

    def test_detailed_reports_convergence(self, operator):
        detail = PersonalizedPageRank(0.5, tol=1e-10).apply_detailed(
            operator, np.ones(operator.shape[0])
        )
        assert detail.converged
        assert detail.residual < 1e-10
        assert detail.iterations > 1

    def test_max_iterations_cap(self, operator):
        detail = PersonalizedPageRank(
            0.01, tol=1e-15, max_iterations=3
        ).apply_detailed(operator, np.ones(operator.shape[0]))
        assert not detail.converged
        assert detail.iterations == 3

    @pytest.mark.parametrize("cap", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_iteration_cap_rejected(self, cap):
        with pytest.raises(TypeError):
            PersonalizedPageRank(0.5, max_iterations=cap)

    def test_vector_and_matrix_agree(self, operator):
        rng = np.random.default_rng(3)
        signal = rng.standard_normal(operator.shape[0])
        ppr = PersonalizedPageRank(0.4, tol=1e-12)
        as_vector = ppr.apply(operator, signal)
        as_matrix = ppr.apply(operator, signal[:, None])
        assert as_matrix.shape == (operator.shape[0], 1)
        assert np.allclose(as_vector, as_matrix[:, 0])

    def test_expected_walk_length(self):
        assert PersonalizedPageRank(0.5).expected_walk_length() == pytest.approx(1.0)
        assert PersonalizedPageRank(0.1).expected_walk_length() == pytest.approx(9.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PersonalizedPageRank(0.0)
        with pytest.raises(ValueError):
            PersonalizedPageRank(1.5)
        with pytest.raises(ValueError):
            PersonalizedPageRank(0.5, method="magic")

    def test_weights_dense_columns_sum_to_one(self):
        operator = transition_matrix(nx.path_graph(5), "column")
        h = PersonalizedPageRank(0.3, method="solve").weights_dense(operator)
        assert np.allclose(h.sum(axis=0), 1.0)


class TestHeatKernel:
    def test_coefficients_sum_to_one(self):
        coeffs = HeatKernel(t=3.0, tol=1e-10).coefficients()
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_expm(self):
        from scipy.linalg import expm

        operator = transition_matrix(nx.path_graph(6), "column")
        dense = operator.toarray()
        t = 2.0
        expected = expm(t * (dense - np.eye(6)))
        signal = np.eye(6)
        out = HeatKernel(t=t, tol=1e-12).apply(operator, signal)
        assert np.allclose(out, expected, atol=1e-8)

    def test_mass_conserved(self, operator):
        signal = np.zeros(operator.shape[0])
        signal[0] = 1.0
        out = HeatKernel(t=4.0, tol=1e-12).apply(operator, signal)
        assert out.sum() == pytest.approx(1.0, abs=1e-8)

    def test_larger_t_spreads_more(self, operator):
        signal = np.zeros(operator.shape[0])
        signal[0] = 1.0
        short = HeatKernel(t=0.5, tol=1e-12).apply(operator, signal)
        long = HeatKernel(t=8.0, tol=1e-12).apply(operator, signal)
        assert long[0] < short[0]

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            HeatKernel(t=0.0)

    @pytest.mark.parametrize("order", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_max_order_rejected(self, order):
        with pytest.raises(TypeError):
            HeatKernel(3.0, max_order=order)


class TestMultiAlphaPPR:
    """Per-column-alpha diffusion: one operator sweep shared by all alphas."""

    ALPHAS = (0.1, 0.5, 0.9)

    @pytest.fixture
    def operator_and_signal(self, operator):
        rng = np.random.default_rng(17)
        signal = rng.standard_normal(operator.shape[0])
        return operator, signal

    def test_power_columns_bit_identical_to_scalar(self, operator_and_signal):
        operator, signal = operator_and_signal
        stacked = np.repeat(signal[:, None], len(self.ALPHAS), axis=1)
        multi = PersonalizedPageRank(self.ALPHAS, tol=1e-10).apply(
            operator, stacked
        )
        for j, alpha in enumerate(self.ALPHAS):
            single = PersonalizedPageRank(alpha, tol=1e-10).apply(
                operator, signal
            )
            assert np.array_equal(multi[:, j], single)

    def test_solve_columns_match_scalar_solve(self, operator_and_signal):
        operator, signal = operator_and_signal
        stacked = np.repeat(signal[:, None], len(self.ALPHAS), axis=1)
        multi = PersonalizedPageRank(self.ALPHAS, method="solve").apply(
            operator, stacked
        )
        for j, alpha in enumerate(self.ALPHAS):
            single = PersonalizedPageRank(alpha, method="solve").apply(
                operator, signal
            )
            assert np.allclose(multi[:, j], single, atol=1e-12)

    def test_solve_matches_power_within_tolerance(self, operator_and_signal):
        operator, signal = operator_and_signal
        stacked = np.repeat(signal[:, None], len(self.ALPHAS), axis=1)
        solved = PersonalizedPageRank(self.ALPHAS, method="solve").apply(
            operator, stacked
        )
        powered = PersonalizedPageRank(self.ALPHAS, tol=1e-12).apply(
            operator, stacked
        )
        assert np.allclose(solved, powered, atol=1e-9)

    def test_duplicate_alphas_share_a_factorization(self, operator_and_signal):
        operator, signal = operator_and_signal
        stacked = np.repeat(signal[:, None], 3, axis=1)
        multi = PersonalizedPageRank((0.5, 0.5, 0.1), method="solve").apply(
            operator, stacked
        )
        assert np.allclose(multi[:, 0], multi[:, 1])
        assert not np.allclose(multi[:, 0], multi[:, 2])

    def test_column_count_must_match_alphas(self, operator_and_signal):
        operator, signal = operator_and_signal
        ppr = PersonalizedPageRank(self.ALPHAS)
        with pytest.raises(ValueError, match="one signal column per alpha"):
            ppr.apply(operator, np.repeat(signal[:, None], 2, axis=1))

    def test_invalid_alpha_in_sequence_rejected(self):
        with pytest.raises(ValueError):
            PersonalizedPageRank((0.5, 0.0))
        with pytest.raises(ValueError):
            PersonalizedPageRank(())

    def test_lu_cache_invalidates_on_new_operator(self, operator):
        """A cached factorization must not leak across operators."""
        ppr = PersonalizedPageRank(0.5, method="solve")
        signal = np.zeros(operator.shape[0])
        signal[0] = 1.0
        first = ppr.apply(operator, signal)
        other = sp.identity(operator.shape[0], format="csr") * 0.5
        second = ppr.apply(other, signal)
        assert not np.allclose(first, second)
        assert np.allclose(ppr.apply(operator, signal), first)


class TestPrunedMassGuard:
    def _personalization(self, n, dim=8, holders=6, seed=0):
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.choice(n, holders, replace=False))
        block = rng.standard_normal((holders, dim))
        return sp.csr_matrix(
            (
                block.ravel(),
                (np.repeat(nodes, dim), np.tile(np.arange(dim), holders)),
            ),
            shape=(n, dim),
        )

    def test_collapse_epsilon_warns(self, operator, small_world_adjacency):
        from repro.gsp.filters import PrunedMassWarning, SparsePersonalizedPageRank

        signal = self._personalization(small_world_adjacency.n_nodes)
        ppr = SparsePersonalizedPageRank(0.5, epsilon=0.01)
        with pytest.warns(PrunedMassWarning):
            result = ppr.apply_detailed(operator, signal)
        assert result.diffused_mass_ratio is not None
        assert result.diffused_mass_ratio < 0.5

    def test_default_epsilon_silent(self, operator, small_world_adjacency):
        import warnings

        from repro.gsp.filters import PrunedMassWarning, SparsePersonalizedPageRank

        signal = self._personalization(small_world_adjacency.n_nodes)
        ppr = SparsePersonalizedPageRank(0.5)  # default epsilon 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrunedMassWarning)
            result = ppr.apply_detailed(operator, signal)
        assert result.diffused_mass_ratio is not None
        assert result.diffused_mass_ratio >= 0.5

    def test_sign_cancellation_alone_is_silent(self):
        """Mixed-sign rows lower the mass ratio with no pruning at all: the
        online-serving example's corpus reads 0.49 unpruned, and ε = 1e-5
        prunes nothing, so nothing warns."""
        import warnings

        from repro.graphs.generators import community_cycle_adjacency
        from repro.gsp.filters import PrunedMassWarning, SparsePersonalizedPageRank

        adjacency = community_cycle_adjacency(
            800, 8, n_communities=4, cross_fraction=0.05, seed=23
        )
        rng = np.random.default_rng(24)
        docs = rng.standard_normal((80, 32))
        docs /= np.linalg.norm(docs, axis=1, keepdims=True)
        signal = np.zeros((800, 32))
        np.add.at(signal, rng.integers(0, 800, size=80), docs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrunedMassWarning)
            result = SparsePersonalizedPageRank(0.5, epsilon=1e-5).apply_detailed(
                transition_matrix(adjacency, "column"), signal
            )
        assert result.converged
        assert result.diffused_mass_ratio < 0.5

    def test_sweep_cap_alone_is_silent(self, operator, small_world_adjacency):
        """A run stopped by its sweep cap has a large error bound, but not
        from pruning, so it does not warn."""
        import warnings

        from repro.gsp.filters import PrunedMassWarning, SparsePersonalizedPageRank

        signal = self._personalization(small_world_adjacency.n_nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrunedMassWarning)
            result = SparsePersonalizedPageRank(
                0.5, epsilon=1e-4, max_iterations=1
            ).apply_detailed(operator, signal)
        assert not result.converged
        # The ratio alone reads collapse, and the whole bound is more than
        # half of what the run spread.
        assert result.diffused_mass_ratio < 0.5
        spread = result.diffused_mass_ratio * 0.5 * np.abs(signal.data).sum()
        assert result.residual_l1 > 0.5 * spread

    def test_unpruned_filter_reports_no_ratio(self, operator, small_world_adjacency):
        from repro.gsp.filters import SparsePersonalizedPageRank

        signal = self._personalization(small_world_adjacency.n_nodes)
        result = SparsePersonalizedPageRank(0.5, epsilon=0.0).apply_detailed(
            operator, signal
        )
        assert result.diffused_mass_ratio is None

    def test_check_pruned_mass_bounds(self):
        from repro.gsp.filters import PrunedMassWarning, check_pruned_mass

        # Zero diffusable mass (empty personalization) is vacuously healthy.
        assert check_pruned_mass(0.0, 0.0, 0.5, 0.01) == 1.0
        # Bare-teleport collapse clamps to 0.
        with pytest.warns(PrunedMassWarning):
            assert check_pruned_mass(10.0, 5.0, 0.5, 0.01) == 0.0
