"""The sparse-first diffusion pipeline: filter, push kernel, backend, facade.

Equivalence contract: with ``epsilon=0`` the sparse filter is bit-identical
to the dense power iteration on every normalization; with ``epsilon > 0`` it
agrees with the exact solve within an ε-dependent tolerance.  The ``sparse``
backend plugs into every dispatcher (``diffuse_embeddings``,
``refresh_embeddings``, ``DiffusionSearchNetwork``) with CSR caches end to
end and a lazily densified dense view for backward compatibility.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import available_backends, get_backend
from repro.core.backends.sparse import SparseDiffusionBackend
from repro.core.diffusion import diffuse_embeddings, refresh_embeddings
from repro.core.search import DiffusionSearchNetwork
from repro.gsp.filters import (
    SPARSE_DEFAULT_EPSILON,
    PersonalizedPageRank,
    SparsePersonalizedPageRank,
    coerce_sparse_signal,
    effective_tolerance,
    operator_l1_norm,
    operator_out_degrees,
)
from repro.gsp.normalization import transition_matrix
from repro.gsp.push import forward_push, sparse_forward_push, sparse_push_refresh

NORMALIZATIONS = ("column", "row", "symmetric")
ALPHAS = (0.1, 0.4, 0.5, 0.9)


@pytest.fixture(scope="module")
def sparse_signal(small_world_adjacency):
    rng = np.random.default_rng(42)
    n, dim = small_world_adjacency.n_nodes, 12
    holders = rng.choice(n, 8, replace=False)
    dense = np.zeros((n, dim))
    dense[holders] = rng.standard_normal((8, dim))
    return dense, sp.csr_matrix(dense)


class TestCoercion:
    def test_dense_matrix_to_csr(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        dense = np.zeros((n, 3))
        dense[5] = [1.0, 2.0, 3.0]
        matrix, was_vector = coerce_sparse_signal(dense, n)
        assert sp.isspmatrix_csr(matrix)
        assert not was_vector
        assert np.array_equal(matrix.toarray(), dense)

    def test_dense_vector_flagged(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        matrix, was_vector = coerce_sparse_signal(np.ones(n), n)
        assert was_vector
        assert matrix.shape == (n, 1)

    def test_sparse_input_not_aliased(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        original = sp.csr_matrix((n, 2))
        matrix, _ = coerce_sparse_signal(original, n)
        assert matrix is not original

    def test_row_count_mismatch(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        with pytest.raises(ValueError, match="rows"):
            coerce_sparse_signal(sp.csr_matrix((n + 1, 2)), n)

    def test_out_degrees_match_column_counts(self, small_world_adjacency):
        operator = transition_matrix(small_world_adjacency, "column")
        degrees = operator_out_degrees(operator)
        expected = np.bincount(
            operator.tocoo().col, minlength=operator.shape[0]
        )
        assert np.array_equal(degrees, expected)
        # memoized on the operator object
        assert operator_out_degrees(operator) is degrees


class TestSparseFilter:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    def test_epsilon_zero_bit_identical_to_power(
        self, small_world_adjacency, sparse_signal, normalization, alpha
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, normalization)
        reference = PersonalizedPageRank(alpha, tol=1e-9).apply_detailed(
            operator, dense
        )
        result = SparsePersonalizedPageRank(
            alpha, epsilon=0.0, tol=1e-9
        ).apply_detailed(operator, sparse)
        assert np.array_equal(result.signal.toarray(), reference.signal)
        assert result.iterations == reference.iterations
        assert result.converged

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("normalization", NORMALIZATIONS)
    def test_pruned_filter_tracks_solve_within_epsilon(
        self, small_world_adjacency, sparse_signal, normalization, alpha
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, normalization)
        exact = PersonalizedPageRank(alpha, method="solve").apply(operator, dense)
        epsilon = 1e-4
        result = SparsePersonalizedPageRank(
            alpha, epsilon=epsilon, tol=1e-9
        ).apply_detailed(operator, sparse)
        assert result.converged
        # worst-case amplification ~ eps * d_max / alpha; generous slack
        bound = epsilon * operator_out_degrees(operator).max() / alpha * 10
        assert np.abs(result.signal.toarray() - exact).max() < bound

    def test_pruning_shrinks_support(self, small_world_adjacency, sparse_signal):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        full = SparsePersonalizedPageRank(0.4, epsilon=0.0).apply(
            operator, sparse
        )
        pruned = SparsePersonalizedPageRank(0.4, epsilon=1e-2).apply(
            operator, sparse
        )
        assert pruned.nnz < full.nnz

    def test_dense_input_accepted(self, small_world_adjacency, sparse_signal):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        ppr = SparsePersonalizedPageRank(0.5, epsilon=0.0)
        assert np.array_equal(
            ppr.apply(operator, dense).toarray(),
            ppr.apply(operator, sparse).toarray(),
        )

    def test_vector_input_yields_column(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        operator = transition_matrix(small_world_adjacency, "column")
        signal = np.zeros(n)
        signal[3] = 1.0
        result = SparsePersonalizedPageRank(0.5, epsilon=0.0).apply(
            operator, signal
        )
        assert result.shape == (n, 1)
        reference = PersonalizedPageRank(0.5).apply(operator, signal)
        assert np.array_equal(result.toarray().ravel(), reference)

    def test_all_zero_signal(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        operator = transition_matrix(small_world_adjacency, "column")
        result = SparsePersonalizedPageRank(0.5).apply_detailed(
            operator, sp.csr_matrix((n, 4))
        )
        assert result.converged
        assert result.signal.nnz == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.0)
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.5, epsilon=-1e-3)
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.5, epsilon=float("nan"))
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(1.5)

    def test_max_iterations_cap(self, small_world_adjacency, sparse_signal):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        result = SparsePersonalizedPageRank(
            0.1, epsilon=0.0, tol=1e-14, max_iterations=2
        ).apply_detailed(operator, sparse)
        assert result.iterations == 2
        assert not result.converged


class TestSparseFilterAccounting:
    """A full sparse run reports its edge operations and a sound error bound."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-4, 1e-3])
    def test_residual_l1_bounds_exact_error(
        self, small_world_adjacency, sparse_signal, epsilon, alpha, dtype
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        exact = PersonalizedPageRank(alpha, method="solve").apply(operator, dense)
        result = SparsePersonalizedPageRank(
            alpha, epsilon=epsilon, dtype=dtype
        ).apply_detailed(operator, sparse)
        error = float(np.abs(result.signal.toarray() - exact).sum())
        # The LU solve is exact only to rounding (~1e-15 relative).
        assert result.residual_l1 >= error - 1e-12 * np.abs(exact).sum()
        assert np.isfinite(result.residual_l1)

    def test_floor_reports_pruning_error(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        exact = PersonalizedPageRank(0.5, method="solve").apply(operator, dense)
        result = SparsePersonalizedPageRank(0.5, epsilon=1e-2).apply_detailed(
            operator, sparse
        )
        error = float(np.abs(result.signal.toarray() - exact).sum())
        # Heavy pruning leaves a real error, and the floor sees it: sound,
        # and not orders of magnitude loose.
        assert error > 1e-2
        assert error <= result.residual_l1 <= 10 * error

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_operations_sum_active_out_degrees(
        self, small_world_adjacency, sparse_signal, epsilon
    ):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column")
        degrees = operator_out_degrees(operator)
        result = SparsePersonalizedPageRank(0.5, epsilon=epsilon).apply_detailed(
            operator, sparse
        )
        # Sweep k reads the out-edges of every row of the iterate it starts
        # from: the personalization's rows, then the support a run capped
        # at k − 1 sweeps returns.
        expected = 0
        support = np.flatnonzero(np.diff(sparse.indptr))
        for k in range(1, result.iterations + 1):
            expected += int(degrees[support].sum())
            capped = SparsePersonalizedPageRank(
                0.5, epsilon=epsilon, max_iterations=k
            ).apply(operator, sparse)
            support = np.flatnonzero(np.diff(capped.indptr))
        assert result.edge_operations == expected

    def test_operator_l1_norm_is_memoized_max_column_sum(
        self, small_world_adjacency
    ):
        column = transition_matrix(small_world_adjacency, "column")
        assert operator_l1_norm(column) == pytest.approx(1.0)
        assert operator_l1_norm(column) is operator_l1_norm(column)
        row = transition_matrix(small_world_adjacency, "row")
        sums = np.abs(row.toarray()).sum(axis=0)
        assert operator_l1_norm(row) == pytest.approx(sums.max())

    def test_backend_full_run_reports_filter_accounting(
        self, small_world_adjacency, sparse_signal
    ):
        _, sparse = sparse_signal
        outcome = SparseDiffusionBackend(epsilon=1e-3).diffuse(
            small_world_adjacency, sparse, alpha=0.5, tol=1e-8
        )
        detail = SparsePersonalizedPageRank(
            0.5, epsilon=1e-3, tol=1e-8
        ).apply_detailed(transition_matrix(small_world_adjacency), sparse)
        assert outcome.operations == detail.edge_operations > 0
        assert outcome.residual_l1 == detail.residual_l1 > 0
        assert not outcome.incremental


class TestSparsePush:
    def test_matches_dense_forward_push(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        reference = forward_push(operator, dense, alpha=0.4, tol=1e-9)
        result = sparse_forward_push(operator, sparse, alpha=0.4, tol=1e-9)
        assert result.converged
        assert sp.issparse(result.estimate)
        assert np.allclose(
            result.estimate.toarray(), reference.estimate, atol=1e-12
        )
        assert result.pushes > 0
        assert result.edge_operations > 0

    def test_float32_matches_dense_forward_push(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        reference = forward_push(operator, dense, alpha=0.4, tol=1e-9)
        result = sparse_forward_push(
            operator, sparse, alpha=0.4, tol=1e-9, dtype=np.float32
        )
        assert result.converged
        assert result.estimate.dtype == np.float32
        # A float32 push stops at the dtype's floored tolerance (~3.8e-6).
        atol = 10 * effective_tolerance(1e-9, np.float32)
        assert np.allclose(result.estimate.toarray(), reference.estimate, atol=atol)

    def test_refresh_patches_cached_csr(self, small_world_adjacency, sparse_signal):
        dense, sparse = sparse_signal
        n, dim = dense.shape
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        base = sparse_forward_push(operator, sparse, alpha=0.4, tol=1e-10)
        delta = sp.csr_matrix(
            (np.ones(dim), (np.full(dim, 7), np.arange(dim))), shape=(n, dim)
        )
        patched, result = sparse_push_refresh(
            operator, base.estimate, delta, alpha=0.4, tol=1e-10
        )
        assert result.converged
        full = sparse_forward_push(
            operator, sparse + delta, alpha=0.4, tol=1e-10
        )
        assert np.allclose(
            patched.toarray(), full.estimate.toarray(), atol=1e-7
        )

    def test_epsilon_truncation_reduces_work(
        self, small_world_adjacency, sparse_signal
    ):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        exact = sparse_forward_push(operator, sparse, alpha=0.4, tol=1e-9)
        truncated = sparse_forward_push(
            operator, sparse, alpha=0.4, tol=1e-9, epsilon=1e-2
        )
        assert truncated.edge_operations < exact.edge_operations

    def test_nan_epsilon_rejected(self, small_world_adjacency, sparse_signal):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        with pytest.raises(ValueError, match="epsilon"):
            sparse_forward_push(operator, sparse, epsilon=float("nan"))

    def test_shape_mismatch_rejected(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        with pytest.raises(ValueError, match="does not match"):
            sparse_push_refresh(
                operator, sp.csr_matrix((n, 3)), sp.csr_matrix((n, 4))
            )


class TestSparseBackend:
    def test_registered(self):
        assert "sparse" in available_backends()
        backend = get_backend("sparse")
        assert backend.supports_incremental
        assert backend.accepts_sparse
        assert backend.epsilon == SPARSE_DEFAULT_EPSILON

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SparseDiffusionBackend(epsilon=-1.0)
        with pytest.raises(ValueError):
            SparseDiffusionBackend(epsilon=float("nan"))

    def test_diffuse_embeddings_sparse_passthrough(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        outcome = diffuse_embeddings(
            small_world_adjacency,
            sparse,
            alpha=0.4,
            method=SparseDiffusionBackend(epsilon=0.0),
            tol=1e-9,
        )
        assert sp.issparse(outcome.embeddings)
        reference = diffuse_embeddings(
            small_world_adjacency, dense, alpha=0.4, method="power", tol=1e-9
        )
        assert np.array_equal(
            outcome.embeddings.toarray(), reference.embeddings
        )

    def test_sparse_input_densified_for_dense_backends(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        got = diffuse_embeddings(
            small_world_adjacency, sparse, alpha=0.4, method="power", tol=1e-9
        )
        want = diffuse_embeddings(
            small_world_adjacency, dense, alpha=0.4, method="power", tol=1e-9
        )
        assert isinstance(got.embeddings, np.ndarray)
        assert np.array_equal(got.embeddings, want.embeddings)

    def test_refresh_embeddings_sparse_backend(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        n, dim = dense.shape
        # ε=0 so the comparison is tolerance-exact: with pruning enabled the
        # patched and re-diffused supports may legitimately differ at the
        # ε-truncation level (pruning is path-dependent).
        backend = SparseDiffusionBackend(epsilon=0.0)
        outcome = diffuse_embeddings(
            small_world_adjacency, sparse, alpha=0.4, method=backend, tol=1e-10
        )
        delta = np.zeros((n, dim))
        delta[11] = 0.7
        patched = refresh_embeddings(
            small_world_adjacency,
            outcome.embeddings,
            delta,
            alpha=0.4,
            method=backend,
            tol=1e-10,
        )
        assert patched.incremental
        assert sp.issparse(patched.embeddings)
        redone = diffuse_embeddings(
            small_world_adjacency,
            sparse + sp.csr_matrix(delta),
            alpha=0.4,
            method=backend,
            tol=1e-10,
        )
        assert np.allclose(
            patched.embeddings.toarray(),
            redone.embeddings.toarray(),
            atol=1e-6,
        )


class TestSearchFacadeSparse:
    def _network(self, adjacency, seed=0, n_docs=10, dim=16):
        rng = np.random.default_rng(seed)
        net = DiffusionSearchNetwork(adjacency, dim=dim, alpha=0.5)
        docs = rng.standard_normal((n_docs, dim))
        nodes = rng.choice(adjacency.n_nodes, n_docs, replace=False)
        for i in range(n_docs):
            net.place_document(f"doc{i}", docs[i], int(nodes[i]))
        return net, docs, nodes

    def test_personalization_sparse_matches_dense(self, small_world_adjacency):
        net, _, _ = self._network(small_world_adjacency)
        assert np.array_equal(
            net.personalization_sparse().toarray(), net.personalization()
        )

    def test_sparse_diffuse_caches_csr(self, small_world_adjacency):
        net, _, _ = self._network(small_world_adjacency)
        outcome = net.diffuse(method="sparse")
        assert outcome.converged
        assert sp.issparse(outcome.embeddings)
        assert net.csr_embeddings is not None
        # the dense view densifies lazily and is memoized
        dense_view = net.embeddings
        assert isinstance(dense_view, np.ndarray)
        assert dense_view is net.embeddings
        assert np.array_equal(dense_view, net.csr_embeddings.toarray())

    def test_csr_embeddings_none_after_dense_diffusion(
        self, small_world_adjacency
    ):
        net, _, _ = self._network(small_world_adjacency)
        net.diffuse(method="power")
        assert net.csr_embeddings is None

    def test_search_matches_dense_pipeline(self, small_world_adjacency):
        net, docs, _ = self._network(small_world_adjacency, seed=3)
        dense_net, _, _ = self._network(small_world_adjacency, seed=3)
        net.diffuse(method=SparseDiffusionBackend(epsilon=0.0), tol=1e-9)
        dense_net.diffuse(method="power", tol=1e-9)
        for q in range(3):
            sparse_hit = net.search(docs[q], start_node=q, ttl=40)
            dense_hit = dense_net.search(docs[q], start_node=q, ttl=40)
            assert sparse_hit.visits == dense_hit.visits
            assert sparse_hit.best.doc_id == dense_hit.best.doc_id

    def test_incremental_refresh_on_sparse_cache(self, small_world_adjacency):
        # ε=0 keeps the cold-vs-patched comparison tolerance-exact; the
        # default ε would let the two runs truncate slightly different
        # supports (path-dependent pruning) while both stay within the ε
        # accuracy envelope.
        backend = SparseDiffusionBackend(epsilon=0.0)
        net, _, _ = self._network(small_world_adjacency, seed=5)
        first = net.diffuse(method=backend, tol=1e-10)
        assert not first.incremental
        rng = np.random.default_rng(99)
        net.place_document("late", rng.standard_normal(16), node=2)
        second = net.diffuse(method=backend, tol=1e-10)
        assert second.incremental
        assert second.converged
        assert net.csr_embeddings is not None
        assert not net.is_stale
        # the patched cache matches a cold sparse re-diffusion
        cold = DiffusionSearchNetwork(small_world_adjacency, dim=16, alpha=0.5)
        for doc_id, node in net._doc_locations.items():
            store = net.stores[node]
            cold.place_document(doc_id, store.embedding_of(doc_id), node)
        redone = cold.diffuse(method=backend, tol=1e-10)
        assert redone.converged
        assert np.allclose(
            net.csr_embeddings.toarray(),
            cold.csr_embeddings.toarray(),
            atol=1e-6,
        )

    def test_incremental_refresh_with_default_epsilon(
        self, small_world_adjacency
    ):
        """With pruning on, the refresh still lands inside the ε envelope."""
        net, _, _ = self._network(small_world_adjacency, seed=8)
        net.diffuse(method="sparse", tol=1e-10)
        rng = np.random.default_rng(100)
        net.place_document("late", rng.standard_normal(16), node=2)
        outcome = net.diffuse(method="sparse", tol=1e-10)
        assert outcome.incremental
        assert outcome.converged
        exact = PersonalizedPageRank(0.5, method="solve").apply(
            transition_matrix(small_world_adjacency, "column"),
            net.personalization(),
        )
        degrees = small_world_adjacency.degrees.max()
        bound = SPARSE_DEFAULT_EPSILON * degrees / 0.5 * 10
        assert np.abs(net.embeddings - exact).max() < bound

    def test_dense_incremental_after_sparse_cache(self, small_world_adjacency):
        """A push refresh composes with a sparse cache (densified on entry)."""
        net, _, _ = self._network(small_world_adjacency, seed=6)
        net.diffuse(method="sparse", tol=1e-10)
        rng = np.random.default_rng(7)
        net.place_document("extra", rng.standard_normal(16), node=1)
        outcome = net.diffuse(method="push", tol=1e-10)
        assert outcome.incremental
        assert isinstance(outcome.embeddings, np.ndarray)
        exact = PersonalizedPageRank(0.5, method="solve").apply(
            transition_matrix(small_world_adjacency, "column"),
            net.personalization(),
        )
        assert np.abs(net.embeddings - exact).max() < 1e-2


class TestRefreshShapes:
    def test_vector_refresh_keeps_vector_shape(self, small_world_adjacency):
        """refresh_embeddings on a 1-D cache returns a 1-D result (push)."""
        n = small_world_adjacency.n_nodes
        rng = np.random.default_rng(17)
        signal = rng.standard_normal(n)
        base = diffuse_embeddings(
            small_world_adjacency, signal, alpha=0.5, method="push", tol=1e-10
        )
        delta = np.zeros(n)
        delta[4] = 1.0
        # the facade coerces personalization to (n, 1); rebuild a 1-D cache
        cache = np.asarray(base.embeddings).reshape(-1)
        patched = refresh_embeddings(
            small_world_adjacency, cache, delta, alpha=0.5, method="push"
        )
        assert patched.embeddings.shape == (n,)
