"""Tests for the forward-push kernel (Gauss–Southwell PPR)."""

import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.filters import PersonalizedPageRank, RowBlock, coerce_sparse_signal
from repro.gsp.normalization import transition_matrix
from repro.gsp import push
from repro.gsp.push import forward_push, push_refresh


@pytest.fixture(scope="module")
def adjacency():
    return CompressedAdjacency.from_networkx(
        connected_watts_strogatz(40, 4, 0.2, seed=13)
    )


@pytest.fixture(scope="module")
def operator(adjacency):
    return transition_matrix(adjacency, "column")


@pytest.fixture(scope="module")
def exact(operator):
    def solve(signal, alpha):
        return PersonalizedPageRank(alpha, method="solve").apply(operator, signal)

    return solve


class TestColdStart:
    def test_matches_exact_solve(self, operator, exact):
        rng = np.random.default_rng(3)
        signal = rng.standard_normal((40, 6))
        result = forward_push(operator, signal, alpha=0.4, tol=1e-10)
        assert result.converged
        assert np.max(np.abs(result.estimate - exact(signal, 0.4))) < 1e-8

    @pytest.mark.parametrize("cap", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_sweep_cap_rejected(self, operator, cap):
        with pytest.raises(TypeError):
            forward_push(operator, np.ones(40), max_sweeps=cap)

    def test_vector_signal_preserves_shape_and_mass(self, operator):
        signal = np.zeros(40)
        signal[0] = 1.0
        result = forward_push(operator, signal, alpha=0.3, tol=1e-12)
        assert result.estimate.shape == (40,)
        # Column-stochastic PPR conserves the unit of personalization mass.
        assert result.estimate.sum() == pytest.approx(1.0, abs=1e-8)

    def test_zero_signal_converges_immediately(self, operator):
        result = forward_push(operator, np.zeros((40, 3)), alpha=0.5)
        assert result.converged
        assert result.sweeps == 0
        assert result.pushes == 0
        assert result.edge_operations == 0
        assert np.all(result.estimate == 0.0)

    def test_work_accounting_consistent(self, operator):
        rng = np.random.default_rng(5)
        signal = rng.standard_normal((40, 2))
        result = forward_push(operator, signal, alpha=0.5, tol=1e-8)
        assert result.pushes > 0
        # Every push traverses at least one edge on this connected graph.
        assert result.edge_operations >= result.pushes
        assert result.sweeps <= result.pushes

    def test_sweep_cap_reports_not_converged(self, operator):
        rng = np.random.default_rng(7)
        signal = rng.standard_normal((40, 2))
        result = forward_push(operator, signal, alpha=0.1, tol=1e-12, max_sweeps=2)
        assert not result.converged
        assert result.sweeps == 2
        assert result.residual > 1e-12

    @pytest.mark.parametrize("kind", ["column", "row", "symmetric"])
    def test_all_normalizations(self, adjacency, kind, exact):
        operator = transition_matrix(adjacency, kind)
        rng = np.random.default_rng(9)
        signal = rng.standard_normal((40, 3))
        reference = PersonalizedPageRank(0.5, method="solve").apply(
            operator, signal
        )
        result = forward_push(operator, signal, alpha=0.5, tol=1e-10)
        assert np.max(np.abs(result.estimate - reference)) < 1e-8

    def test_validation(self, operator):
        with pytest.raises(ValueError, match="rows"):
            forward_push(operator, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="alpha"):
            forward_push(operator, np.zeros(40), alpha=0.0)
        with pytest.raises(ValueError):
            forward_push(operator, np.zeros(40), tol=0.0)


class TestRefresh:
    def test_delta_patch_matches_fresh_solve(self, operator, exact):
        rng = np.random.default_rng(11)
        before = rng.standard_normal((40, 4))
        after = before.copy()
        after[7] += rng.standard_normal(4)
        after[23] = 0.0
        base = forward_push(operator, before, alpha=0.4, tol=1e-11)
        patched, result = push_refresh(
            operator, base.estimate, after - before, alpha=0.4, tol=1e-11
        )
        assert result.converged
        assert np.max(np.abs(patched - exact(after, 0.4))) < 1e-8

    def test_zero_delta_is_free(self, operator):
        rng = np.random.default_rng(13)
        signal = rng.standard_normal((40, 2))
        base = forward_push(operator, signal, alpha=0.5, tol=1e-9)
        patched, result = push_refresh(
            operator, base.estimate, np.zeros_like(signal), alpha=0.5
        )
        assert result.edge_operations == 0
        assert np.array_equal(patched, base.estimate)

    def test_vector_refresh(self, operator, exact):
        signal = np.zeros(40)
        signal[0] = 1.0
        base = forward_push(operator, signal, alpha=0.5, tol=1e-11)
        delta = np.zeros(40)
        delta[5] = 2.0
        patched, _ = push_refresh(
            operator, base.estimate, delta, alpha=0.5, tol=1e-11
        )
        assert patched.shape == (40,)
        assert np.max(np.abs(patched - exact(signal + delta, 0.5))) < 1e-8

    def test_block_patch_without_joins_keeps_the_buffer(self, operator):
        """A block cache with spare capacity, patched by a push that pushes
        only nodes it holds, keeps its row buffer: only the pushed rows
        change, and no slot moves."""
        rng = np.random.default_rng(31)
        cache = RowBlock(np.arange(30), rng.standard_normal((30, 4)), 40)
        cache.slots(np.array([30]))  # spare capacity: 31 of 40 rows held
        buffer = cache.rows.base
        assert buffer.shape[0] > cache.size
        rows_before = cache.rows.copy()
        slot_of_before = cache.slot_of.copy()
        delta = np.zeros((40, 4))
        delta[5] = [1.0, -0.5, 0.25, 0.0]
        # tol 0.3: node 5 pushes, its neighbors receive at most 0.5 / degree.
        patched, result = push_refresh(
            operator, cache, coerce_sparse_signal(delta, 40)[0], alpha=0.5, tol=0.3
        )
        assert patched is cache and result.converged
        assert np.array_equal(result.estimate.nodes, [5])
        assert cache.rows.base is buffer and cache.size == 31
        assert cache.slot_of.tobytes() == slot_of_before.tobytes()
        untouched = np.arange(31) != cache.slot_of[5]
        assert cache.rows[untouched].tobytes() == rows_before[untouched].tobytes()
        assert np.array_equal(cache[5], rows_before[5] + 0.5 * delta[5])

    def test_unconverged_block_patch_leaves_the_cache(self, operator):
        rng = np.random.default_rng(37)
        cache = RowBlock(np.arange(40), rng.standard_normal((40, 3)), 40)
        before = cache.toarray()
        delta = np.zeros((40, 3))
        delta[[3, 20]] = rng.standard_normal((2, 3))
        patched, result = push_refresh(
            operator, cache, coerce_sparse_signal(delta, 40)[0],
            alpha=0.1, tol=1e-12, max_sweeps=2,
        )
        assert patched is cache and not result.converged
        assert cache.toarray().tobytes() == before.tobytes()

    def test_shape_mismatch_rejected(self, operator):
        with pytest.raises(ValueError, match="match"):
            push_refresh(operator, np.zeros((40, 2)), np.zeros((40, 3)))

    def test_sparse_delta_cheaper_than_cold_start(self, operator):
        """Work scales with the change, not the network (single-row delta)."""
        rng = np.random.default_rng(17)
        before = rng.standard_normal((40, 4))
        cold = forward_push(operator, before, alpha=0.7, tol=1e-6)
        delta = np.zeros_like(before)
        delta[3] = 1e-3  # a small local change
        _, result = push_refresh(
            operator, cold.estimate, delta, alpha=0.7, tol=1e-6
        )
        assert result.edge_operations < cold.edge_operations


class TestRowBlockLayouts:
    """Edges of the row-block layout behind dense and block input."""

    def assert_same_run(self, rows, full):
        assert rows.sweeps == full.sweeps
        assert rows.pushes == full.pushes
        assert rows.edge_operations == full.edge_operations
        got, want = (
            r.estimate.toarray() if isinstance(r.estimate, RowBlock) else r.estimate
            for r in (rows, full)
        )
        assert np.allclose(got.reshape(want.shape), want, rtol=0, atol=1e-12)
        assert rows.residual_l1 == pytest.approx(full.residual_l1, rel=0, abs=1e-12)

    def test_block_delta_reaching_every_node(self, operator):
        """The block appends all 40 rows, but its slots are not node ids, so
        a sweep pushing all of them must still scatter by slot."""
        delta = np.zeros((40, 3))
        delta[17] = [1.0, -2.0, 0.5]
        block, _ = coerce_sparse_signal(delta, 40)
        rows = forward_push(operator, block, alpha=0.1, tol=1e-12)
        full = forward_push(operator, delta, alpha=0.1, tol=1e-12)
        assert rows.converged
        # Every node, in the order each was first pushed.
        assert np.array_equal(np.sort(rows.estimate.nodes), np.arange(40))
        assert rows.pushes >= 40 * 5
        self.assert_same_run(rows, full)

    def test_vector_signal_matches_block_column(self, operator):
        rng = np.random.default_rng(21)
        signal = rng.standard_normal(40)
        full = forward_push(operator, signal, alpha=0.5, tol=1e-10)
        column, _ = coerce_sparse_signal(signal[:, None], 40)
        rows = forward_push(operator, column, alpha=0.5, tol=1e-10)
        assert full.estimate.shape == (40,)
        assert rows.estimate.shape == (40, 1)
        self.assert_same_run(rows, full)

    def test_empty_block_signal_runs_no_sweep(self, operator):
        empty = RowBlock(np.empty(0, dtype=np.int64), np.zeros((0, 3)), 40)
        result = forward_push(operator, empty, alpha=0.5)
        assert result.sweeps == result.pushes == result.edge_operations == 0
        assert result.converged
        assert result.residual == result.residual_l1 == 0.0
        assert isinstance(result.estimate, RowBlock)
        assert result.estimate.shape == (40, 3)
        assert result.estimate.nodes.size == 0

    @pytest.mark.parametrize("epsilon", [0.0, 1e-3])
    def test_zero_row_delta_matches_csr_copy(self, operator, epsilon):
        """A dirty node whose row nets to zero seeds no slot, as its CSR copy
        stores no row for it: the run is bit for bit the run of the copy's
        rows, even though pushes later reach that node and push it, so that
        it holds an estimate row."""
        rng = np.random.default_rng(29)
        nodes = np.array([2, 9, 10, 11, 30])
        rows = rng.standard_normal((5, 4))
        rows[1] = rows[3] = 0.0  # nodes 9 and 11, next to the others
        block = RowBlock(nodes, rows, 40)
        copy = block.tocsr()
        held = np.flatnonzero(np.diff(copy.indptr))
        stored = RowBlock(held, copy[held].toarray(), 40)
        got, want = (
            forward_push(operator, signal, alpha=0.2, tol=1e-12, epsilon=epsilon)
            for signal in (block, stored)
        )
        assert np.array_equal(held, [2, 10, 30])
        assert (got.sweeps, got.pushes, got.edge_operations) == (
            want.sweeps, want.pushes, want.edge_operations,
        )
        assert got.residual_l1 == want.residual_l1
        assert {9, 11} <= set(got.estimate.nodes.tolist())
        assert np.array_equal(got.estimate.nodes, want.estimate.nodes)
        assert got.estimate.rows.tobytes() == want.estimate.rows.tobytes()

    @pytest.mark.parametrize("epsilon", [0.02, 0.05])
    def test_block_estimate_holds_exactly_the_pushed_rows(self, operator, epsilon):
        """Block input keeps estimate rows only for the nodes it pushes: the
        rows a dense run's estimate holds nonzero, not the wider set of rows
        the scatters reached."""
        delta = np.zeros((40, 3))
        delta[17] = [1.0, -2.0, 0.5]
        block, _ = coerce_sparse_signal(delta, 40)
        rows = forward_push(operator, block, alpha=0.1, tol=1e-12, epsilon=epsilon)
        full = forward_push(operator, delta, alpha=0.1, tol=1e-12, epsilon=epsilon)
        pushed = np.flatnonzero(np.any(full.estimate != 0, axis=1))
        nodes = rows.estimate.nodes
        assert np.unique(nodes).shape == nodes.shape
        assert np.array_equal(np.sort(nodes), pushed)
        assert pushed.shape[0] < 40
        self.assert_same_run(rows, full)

    def test_block_grows_past_first_capacity(self):
        """The growth the push's residual and estimate and the cache share:
        each node not held gets a zero row in slot order, and capacity
        doubles, capped at ``n`` rows."""
        rows = np.array([[1.0, 2.0], [3.0, -4.0]])
        block = RowBlock(np.array([4, 7]), rows.copy(), 10)
        assert block.rows.base.shape[0] == 2  # no spare capacity
        slots = block.slots(np.array([7, 0, 9, 3, 4, 8]))
        assert np.array_equal(slots, [1, 2, 3, 4, 0, 5])
        assert block.size == 6 and block.rows.base.shape[0] == 6
        assert np.array_equal(block.nodes, [4, 7, 0, 9, 3, 8])
        assert np.array_equal(block.rows[:2], rows)
        assert not block.rows[2:].any()
        assert np.array_equal(block.slot_of[[0, 3, 4, 7, 8, 9]], [2, 4, 0, 1, 5, 3])
        assert (block.slot_of[[1, 2, 5, 6]] == -1).all()
        assert np.array_equal(block.slots(np.array([1])), [6])
        assert block.rows.base.shape[0] == 10  # min(n, 2 * 6)
        assert np.array_equal(block.nodes, [4, 7, 0, 9, 3, 8, 1])
        assert np.array_equal(block.rows[:2], rows) and not block.rows[2:].any()

    def test_scatter_in_row_chunks(self, operator, monkeypatch):
        rng = np.random.default_rng(23)
        delta = np.zeros((40, 4))
        delta[[2, 30]] = rng.standard_normal((2, 4))
        whole = forward_push(operator, delta, alpha=0.3, tol=1e-10)
        monkeypatch.setattr(push, "_SCATTER_CHUNK_ROWS", 3)
        for signal in (delta, coerce_sparse_signal(delta, 40)[0]):
            self.assert_same_run(
                forward_push(operator, signal, alpha=0.3, tol=1e-10), whole
            )
