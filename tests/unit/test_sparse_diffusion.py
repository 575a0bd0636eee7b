"""The sparse-first diffusion pipeline: filter, push kernel, backend, facade.

Equivalence contract: with ``epsilon=0`` the sparse filter is bit-identical
to the dense power iteration on every normalization; with ``epsilon > 0`` it
agrees with the exact solve within an ε-dependent tolerance.  The ``sparse``
backend plugs into every dispatcher (``diffuse_embeddings``,
``refresh_embeddings``, ``DiffusionSearchNetwork``) with row-block caches
end to end and a lazily densified dense view for backward compatibility.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import available_backends, get_backend
from repro.core.backends.sparse import SparseDiffusionBackend
from repro.core.diffusion import diffuse_embeddings, refresh_embeddings
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.filters import (
    SPARSE_DEFAULT_EPSILON,
    PersonalizedPageRank,
    RowBlock,
    SparsePersonalizedPageRank,
    coerce_sparse_signal,
    effective_tolerance,
    operator_l1_norm,
    operator_out_degrees,
)
from repro.gsp.normalization import transition_matrix
from repro.gsp.push import forward_push, push_refresh

NORMALIZATIONS = ("column", "row", "symmetric")


def as_block(matrix):
    """A CSR test signal as the block ``forward_push`` takes."""
    return coerce_sparse_signal(matrix, matrix.shape[0])[0]
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
    def test_dense_matrix_to_block(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        dense = np.zeros((n, 3))
        dense[5] = [1.0, 0.0, 3.0]
        matrix, was_vector = coerce_sparse_signal(dense, n)
        assert isinstance(matrix, RowBlock)
        assert not was_vector
        assert np.array_equal(matrix.nodes, [5])
        assert np.array_equal(matrix.toarray(), dense)

    def test_dense_vector_flagged(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        matrix, was_vector = coerce_sparse_signal(np.ones(n), n)
        assert was_vector
        assert matrix.shape == (n, 1)

    def test_sparse_input_not_aliased(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        original = sp.csr_matrix(np.ones((n, 2)))
        matrix, _ = coerce_sparse_signal(original, n)
        assert not np.shares_memory(matrix.rows, original.data)

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
        assert pruned.nodes.shape[0] < full.nodes.shape[0]

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
        assert result.signal.nodes.size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.0)
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.5, epsilon=-1e-3)
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(0.5, epsilon=float("nan"))
        with pytest.raises(ValueError):
            SparsePersonalizedPageRank(1.5)

    @pytest.mark.parametrize("cap", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_iteration_cap_rejected(
        self, small_world_adjacency, sparse_signal, cap
    ):
        _, sparse = sparse_signal
        with pytest.raises(TypeError):
            SparsePersonalizedPageRank(0.5, max_iterations=cap)
        with pytest.raises(TypeError):
            SparseDiffusionBackend().diffuse(
                small_world_adjacency, sparse, alpha=0.5, max_iterations=cap
            )

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
            support = capped.nodes
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
    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_dense_and_block_input_agree(
        self, small_world_adjacency, sparse_signal, epsilon, alpha
    ):
        """One kernel, two layouts: the same signal dense (every row a slot)
        and as a block (only its rows, appended as pushes reach nodes)."""
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        kwargs = dict(alpha=alpha, tol=1e-9, epsilon=epsilon)
        full = forward_push(operator, dense, **kwargs)
        rows = forward_push(operator, as_block(sparse), **kwargs)
        assert isinstance(rows.estimate, RowBlock)
        assert isinstance(full.estimate, np.ndarray)
        assert rows.converged and full.converged
        assert rows.sweeps == full.sweeps > 0
        assert rows.pushes == full.pushes
        assert rows.edge_operations == full.edge_operations
        assert np.allclose(rows.estimate.toarray(), full.estimate, rtol=0, atol=1e-12)
        assert rows.residual_l1 == pytest.approx(full.residual_l1, rel=0, abs=1e-12)

    def test_float32_matches_dense_forward_push(
        self, small_world_adjacency, sparse_signal
    ):
        dense, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        reference = forward_push(operator, dense, alpha=0.4, tol=1e-9)
        result = forward_push(
            operator, as_block(sparse), alpha=0.4, tol=1e-9, dtype=np.float32
        )
        dense32 = forward_push(
            operator, dense, alpha=0.4, tol=1e-9, dtype=np.float32
        )
        assert result.converged
        assert result.estimate.dtype == dense32.estimate.dtype == np.float32
        assert result.sweeps == dense32.sweeps
        assert result.pushes == dense32.pushes
        assert result.edge_operations == dense32.edge_operations
        # A float32 push stops at the dtype's floored tolerance (~3.8e-6).
        atol = 10 * effective_tolerance(1e-9, np.float32)
        assert np.allclose(result.estimate.toarray(), reference.estimate, atol=atol)
        assert np.allclose(result.estimate.toarray(), dense32.estimate, atol=atol)

    def test_refresh_patches_cached_block(self, small_world_adjacency, sparse_signal):
        dense, sparse = sparse_signal
        n, dim = dense.shape
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        base = forward_push(operator, as_block(sparse), alpha=0.4, tol=1e-10)
        delta = sp.csr_matrix(
            (np.ones(dim), (np.full(dim, 7), np.arange(dim))), shape=(n, dim)
        )
        patched, result = push_refresh(
            operator, base.estimate, as_block(delta), alpha=0.4, tol=1e-10
        )
        assert result.converged
        assert isinstance(patched, RowBlock)
        full = forward_push(
            operator, as_block(sparse + delta), alpha=0.4, tol=1e-10
        )
        assert np.allclose(
            patched.toarray(), full.estimate.toarray(), atol=1e-7
        )

    def test_epsilon_truncation_reduces_work(
        self, small_world_adjacency, sparse_signal
    ):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        exact = forward_push(operator, as_block(sparse), alpha=0.4, tol=1e-9)
        truncated = forward_push(
            operator, as_block(sparse), alpha=0.4, tol=1e-9, epsilon=1e-2
        )
        assert truncated.edge_operations < exact.edge_operations

    def test_nan_epsilon_rejected(self, small_world_adjacency, sparse_signal):
        _, sparse = sparse_signal
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        with pytest.raises(ValueError, match="epsilon"):
            forward_push(operator, sparse, epsilon=float("nan"))

    def test_shape_mismatch_rejected(self, small_world_adjacency):
        n = small_world_adjacency.n_nodes
        operator = transition_matrix(small_world_adjacency, "column", fmt="csc")
        with pytest.raises(ValueError, match="does not match"):
            push_refresh(
                operator,
                as_block(sp.csr_matrix((n, 3))),
                as_block(sp.csr_matrix((n, 4))),
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
        assert isinstance(outcome.embeddings, RowBlock)
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
        assert isinstance(patched.embeddings, RowBlock)
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

    @pytest.mark.parametrize("cache_csr", [False, True])
    @pytest.mark.parametrize("delta_csr", [False, True])
    def test_refresh_keeps_backend_format(
        self, small_world_adjacency, sparse_signal, cache_csr, delta_csr
    ):
        """``sparse`` patches into a block in whichever format the cache and
        the delta arrive (CSR converts at the ``refresh_embeddings`` edge)."""
        dense, sparse = sparse_signal
        n, dim = dense.shape
        cache = diffuse_embeddings(
            small_world_adjacency, dense, alpha=0.4, method="solve"
        ).embeddings
        delta = np.zeros((n, dim))
        delta[11] = 0.7
        patched = refresh_embeddings(
            small_world_adjacency,
            sp.csr_matrix(cache) if cache_csr else cache,
            sp.csr_matrix(delta) if delta_csr else delta,
            alpha=0.4,
            method=SparseDiffusionBackend(epsilon=0.0),
            tol=1e-10,
        )
        assert patched.incremental and patched.converged
        assert isinstance(patched.embeddings, RowBlock)
        exact = diffuse_embeddings(
            small_world_adjacency, dense + delta, alpha=0.4, method="solve"
        ).embeddings
        assert np.abs(patched.embeddings.toarray() - exact).max() < 1e-8


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

    def test_sparse_diffuse_caches_block(self, small_world_adjacency):
        net, _, _ = self._network(small_world_adjacency)
        outcome = net.diffuse(method="sparse")
        assert outcome.converged
        assert isinstance(outcome.embeddings, RowBlock)
        assert net.last_diffusion.embeddings is outcome.embeddings
        # the dense view densifies lazily and is memoized
        dense_view = net.embeddings
        assert isinstance(dense_view, np.ndarray)
        assert dense_view is net.embeddings
        assert np.array_equal(dense_view, outcome.embeddings.toarray())

    def test_dense_diffusion_caches_dense_array(self, small_world_adjacency):
        net, _, _ = self._network(small_world_adjacency)
        outcome = net.diffuse(method="power")
        assert isinstance(outcome.embeddings, np.ndarray)
        assert net.embeddings is outcome.embeddings

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
        assert isinstance(second.embeddings, RowBlock)
        assert not net.is_stale
        # the patched cache matches a cold sparse re-diffusion
        cold = DiffusionSearchNetwork(small_world_adjacency, dim=16, alpha=0.5)
        for doc_id, node in net._doc_locations.items():
            store = net.stores[node]
            cold.place_document(doc_id, store.embedding_of(doc_id), node)
        redone = cold.diffuse(method=backend, tol=1e-10)
        assert redone.converged
        assert np.allclose(
            net.last_diffusion.embeddings.toarray(),
            redone.embeddings.toarray(),
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

    def test_sparse_incremental_after_dense_cache(self, small_world_adjacency):
        """A sparse refresh patches a dense power cache into a block."""
        net, _, _ = self._network(small_world_adjacency, seed=6)
        net.diffuse(method="power", tol=1e-10)
        rng = np.random.default_rng(7)
        net.place_document("extra", rng.standard_normal(16), node=1)
        outcome = net.diffuse(
            method=SparseDiffusionBackend(epsilon=0.0), tol=1e-10
        )
        assert outcome.incremental and outcome.converged
        assert isinstance(outcome.embeddings, RowBlock)
        exact = PersonalizedPageRank(0.5, method="solve").apply(
            transition_matrix(small_world_adjacency, "column"),
            net.personalization(),
        )
        assert np.abs(net.embeddings - exact).max() < 1e-8

    def test_dense_full_run_after_sparse_cache(self, small_world_adjacency):
        """A dense backend cannot patch: after a block cache it re-diffuses
        in full and caches a dense array, and the block baseline it keeps
        lets the next sparse refresh patch that array."""
        net, _, _ = self._network(small_world_adjacency, seed=6)
        net.diffuse(method="sparse", tol=1e-10)
        rng = np.random.default_rng(7)
        net.place_document("extra", rng.standard_normal(16), node=1)
        outcome = net.diffuse(method="power", tol=1e-10)
        assert not outcome.incremental and outcome.converged
        assert isinstance(outcome.embeddings, np.ndarray)
        operator = transition_matrix(small_world_adjacency, "column")
        exact = PersonalizedPageRank(0.5, method="solve").apply(
            operator, net.personalization()
        )
        assert np.abs(net.embeddings - exact).max() < 1e-8
        net.place_document("later", rng.standard_normal(16), node=3)
        patched = net.diffuse(
            method=SparseDiffusionBackend(epsilon=0.0), tol=1e-10
        )
        assert patched.incremental and patched.converged
        exact = PersonalizedPageRank(0.5, method="solve").apply(
            operator, net.personalization()
        )
        assert np.abs(net.embeddings - exact).max() < 1e-8


class TestRefreshShapes:
    def test_vector_refresh_comes_back_as_column_block(
        self, small_world_adjacency
    ):
        """``refresh_embeddings`` coerces a 1-D cache and delta at its edge:
        the patch of a scalar signal is an ``(n, 1)`` block."""
        n = small_world_adjacency.n_nodes
        rng = np.random.default_rng(17)
        signal = rng.standard_normal(n)
        exact_backend = SparseDiffusionBackend(epsilon=0.0)
        base = diffuse_embeddings(
            small_world_adjacency, signal, alpha=0.5, method="solve"
        )
        cache = np.asarray(base.embeddings).reshape(-1)
        delta = np.zeros(n)
        delta[4] = 1.0
        patched = refresh_embeddings(
            small_world_adjacency,
            cache,
            delta,
            alpha=0.5,
            method=exact_backend,
            tol=1e-10,
        )
        assert patched.incremental and patched.converged
        assert isinstance(patched.embeddings, RowBlock)
        assert patched.embeddings.shape == (n, 1)
        exact = diffuse_embeddings(
            small_world_adjacency, signal + delta, alpha=0.5, method="solve"
        ).embeddings
        assert np.abs(patched.embeddings.toarray() - exact.reshape(n, 1)).max() < 1e-8


class TestRowBlock:
    """The sparse pipeline's one layout: its lookups, copies and patches."""

    @pytest.fixture
    def block(self):
        rows = np.array([[1.0, 0.0, -2.0], [0.5, 0.25, 0.0], [0.0, 0.0, 0.0]])
        return RowBlock(np.array([1, 4, 6]), rows, 8)

    def test_shape_dtype_and_row_lookup(self, block):
        assert block.shape == (8, 3) and block.dtype == np.float64
        assert np.array_equal(block[4], [0.5, 0.25, 0.0])
        assert np.array_equal(block[0], np.zeros(3))
        assert np.array_equal(block[np.array([7, 1, 6])], [[0, 0, 0], [1, 0, -2], [0, 0, 0]])
        assert block[np.empty(0, dtype=np.int64)].shape == (0, 3)
        assert np.array_equal(block.slot_of, [-1, 0, -1, -1, 1, -1, 2, -1])

    def test_toarray_and_tocsr(self, block):
        dense = block.toarray()
        assert np.array_equal(dense[[1, 4, 6]], block.rows)
        assert not dense[[0, 2, 3, 5, 7]].any()
        csr = block.tocsr()
        want = sp.csr_matrix(dense)
        assert csr.indices.dtype == np.int32
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(csr, part), getattr(want, part))

    @pytest.mark.parametrize("nodes", [[1, 1, 6], [-1, 4, 6], [1, 4, 8]])
    def test_nodes_must_be_distinct_and_in_range(self, nodes):
        with pytest.raises(ValueError, match="distinct"):
            RowBlock(np.array(nodes), np.ones((3, 2)), 8)

    def test_nodes_keep_slot_order(self):
        rows = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        block = RowBlock(np.array([4, 1, 6]), rows, 8)
        assert np.array_equal(block.nodes, [4, 1, 6])
        assert np.array_equal(block.slot_of[[1, 4, 6]], [1, 0, 2])
        assert np.array_equal(block[1], [2.0, 3.0])
        assert block.rows.base is rows  # kept, not copied

    def test_rows_must_match_nodes(self):
        with pytest.raises(ValueError, match="one"):
            RowBlock(np.array([1, 2]), np.ones((3, 2)), 8)

    def test_add_and_put_write_in_place(self, block):
        """``add`` sums into held rows and ``put`` overwrites them, in the
        block's own buffer; a node not held joins at the end."""
        buffer = block.rows.base
        block.add(np.array([4, 1]), np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
        assert block.rows.base is buffer
        assert np.array_equal(block[4], [1.5, 1.25, 1.0])
        assert np.array_equal(block[1], [3.0, 2.0, 0.0])
        block.put(np.array([6]), np.array([[7.0, 8.0, 9.0]]))
        assert block.rows.base is buffer
        assert np.array_equal(block[6], [7.0, 8.0, 9.0])
        block.add(np.array([0, 4]), np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
        block.put(np.array([7, 1]), np.array([[5.0, 5.0, 5.0], [0.0, 0.0, 0.0]]))
        assert np.array_equal(block.nodes, [1, 4, 6, 0, 7])
        assert np.array_equal(block[0], [1.0, 1.0, 1.0])  # 0 + row
        assert np.array_equal(block[4], [2.5, 1.25, 1.0])
        assert np.array_equal(block[7], [5.0, 5.0, 5.0])
        assert np.array_equal(block[1], np.zeros(3))
        assert np.array_equal(block.slot_of, [3, 0, -1, -1, 1, -1, 2, 4])

    def test_add_grows_past_capacity(self, block):
        """Joining rows past the spare capacity double it, capped at ``n``
        rows; every held row survives the copy."""
        before = block.toarray()
        block.add(np.array([2]), np.ones((1, 3)))
        buffer = block.rows.base
        assert buffer.shape[0] == 6  # 2 × 3
        assert block.size == 4
        block.put(np.array([0, 3]), np.full((2, 3), 2.0))
        assert block.rows.base is buffer  # filled, not grown
        block.add(np.array([5, 7]), np.full((2, 3), 3.0))
        assert block.rows.base.shape[0] == 8  # min(n, 2 × 6)
        assert block.size == 8
        want = before
        want[2] += 1.0
        want[[0, 3]] = 2.0
        want[[5, 7]] = 3.0
        assert np.array_equal(block.toarray(), want)
        assert np.array_equal(block.nodes, [1, 4, 6, 2, 0, 3, 5, 7])

    def test_appended_rows_do_not_read_spare_capacity(self, block):
        """Spare capacity is uninitialized: a row ``slots`` appends reads
        exactly 0.0, one ``add`` appends exactly ``0.0 + row`` and one
        ``append`` appends exactly the row given, whatever the spare rows
        held before."""
        block.add(np.array([2]), np.ones((1, 3)))  # grown to 6 rows
        buffer = block.rows.base
        buffer[block.size:] = np.nan
        assert np.array_equal(block.slots(np.array([4, 0])), [1, 4])
        assert block[0].tobytes() == np.zeros(3).tobytes()
        block.append(np.array([7]), np.array([[-0.0, 1.0, 2.0]]))
        assert block.rows.base is buffer and block.size == 6
        assert block[7].tobytes() == np.array([-0.0, 1.0, 2.0]).tobytes()
        block.add(np.array([3]), np.array([[-0.0, 1.5, -2.0]]))  # 6 → 8 rows
        assert block[3].tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()
        block.rows.base[block.size:] = np.nan
        block.add(np.array([5]), np.array([[3.0, -4.0, -0.0]]))
        assert block[5].tobytes() == np.array([3.0, -4.0, 0.0]).tobytes()
        assert np.array_equal(block.nodes, [1, 4, 6, 2, 0, 7, 3, 5])
        assert not np.isnan(block.toarray()).any()

    def test_patched_block_tocsr_sorts(self, block):
        """A block patched out of node order converts to the CSR of its
        dense array: rows in node order, explicit zeros dropped."""
        block.add(np.array([5, 0]), np.array([[0.0, 1.5, 0.0], [-1.0, 0.0, 2.0]]))
        assert np.array_equal(block.nodes, [1, 4, 6, 5, 0])
        csr, want = block.tocsr(), sp.csr_matrix(block.toarray())
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(csr, part), getattr(want, part))

    def test_coercion_sorts_a_patched_block(self, block):
        block.add(np.array([0]), np.ones((1, 3)))
        coerced, _ = coerce_sparse_signal(block, 8)
        assert coerced is not block
        assert np.array_equal(coerced.nodes, [0, 1, 4])
        assert np.array_equal(coerced.toarray(), block.toarray())

    def test_coercion_keeps_only_nonzero_rows(self, block):
        coerced, was_vector = coerce_sparse_signal(block, 8)
        assert not was_vector
        assert np.array_equal(coerced.nodes, [1, 4])  # row 6 is all zero
        assert np.array_equal(coerced.toarray(), block.toarray())
        again, _ = coerce_sparse_signal(coerced, 8)
        assert again is coerced
        single, _ = coerce_sparse_signal(coerced, 8, np.float32)
        assert single.dtype == np.float32
        with pytest.raises(ValueError, match="rows"):
            coerce_sparse_signal(block, 9)


class TestBlockCache:
    """The facade's block cache: patches write into it in place, exactly."""

    @staticmethod
    def network(seed):
        rng = np.random.default_rng(seed)
        net = DiffusionSearchNetwork(
            connected_watts_strogatz(80, 6, 0.2, seed=seed), dim=8, alpha=0.5
        )
        for i in range(15):
            net.place_document(f"d{i}", rng.standard_normal(8), int(rng.integers(80)))
        return net, rng

    def test_policy_built_before_a_patch_scores_the_patched_cache(self):
        """A patch writes into the cache block, so a policy taken before it
        scores like ``default_policy()`` after it (``QueryService`` rebuilds
        its policy after every refresh either way)."""
        net, rng = self.network(1)
        net.diffuse(method="sparse")
        policy = net.default_policy()
        before = net.last_diffusion.embeddings
        queries = rng.standard_normal((4, 8))
        candidates = np.arange(80)

        def scores_of(policy, query):
            return policy.score_batch(query[None, :], candidates, np.array([0, 80]))

        scores = [scores_of(policy, q) for q in queries]
        for node in (3, 40, 41):
            net.place_document(f"late{node}", rng.standard_normal(8), node)
        outcome = net.diffuse(method="sparse")
        assert outcome.incremental
        assert net.last_diffusion.embeddings is before
        fresh = net.default_policy()
        assert not np.array_equal(scores_of(fresh, queries[0]), scores[0])
        for q in queries:
            assert scores_of(policy, q).tobytes() == scores_of(fresh, q).tobytes()

    def test_patch_adds_push_estimate_exactly(self):
        """Each patched cache is the previous cache plus the push estimate
        of the delta, bit for bit, over random place/remove rounds."""
        net, rng = self.network(2)
        backend = SparseDiffusionBackend(epsilon=1e-4)
        net.diffuse(method=backend, tol=1e-9)
        operator = transition_matrix(net.adjacency, "column", fmt="csc")
        for _ in range(5):
            previous = net.last_diffusion.embeddings.toarray()
            before = net.personalization()
            for _ in range(int(rng.integers(1, 5))):
                docs = sorted(net._doc_locations)
                if rng.random() < 0.4:
                    net.remove_document(docs[int(rng.integers(len(docs)))])
                else:
                    net.place_document(
                        f"x{rng.integers(1 << 30)}",
                        rng.standard_normal(8),
                        int(rng.integers(80)),
                    )
            delta, _ = coerce_sparse_signal(net.personalization() - before, 80)
            estimate = forward_push(
                operator, delta, alpha=0.5, tol=1e-9, epsilon=1e-4
            ).estimate
            outcome = net.diffuse(method=backend, tol=1e-9)
            assert outcome.incremental and outcome.converged
            assert np.array_equal(
                outcome.embeddings.toarray(), previous + estimate.toarray()
            )
            assert np.array_equal(
                net._diffused_personalization.toarray(), net.personalization()
            )
