"""The sparse PPR filter against the loop it replaced, field for field.

``SparsePersonalizedPageRank.apply_detailed`` keeps a grow-only support in
join order, a node → row map and operator slices that live as long as the
support does.  ``reference_sparse_ppr`` (``tests/scalar_reference.py``)
re-assembles every iterate through ``union1d``/``searchsorted`` and
re-slices each row chunk every sweep.  Every :class:`DiffusionResult` field
must be bit-identical: the CSR arrays, ``iterations``, ``residual``,
``converged``, ``diffused_mass_ratio``, ``edge_operations`` and
``residual_l1``.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scalar_reference import diffusion_differences, reference_sparse_ppr

import repro.gsp.filters as filters
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import cycle_union_adjacency
from repro.gsp.filters import PrunedMassWarning, SparsePersonalizedPageRank
from repro.gsp.normalization import transition_matrix

N_NODES = 1_500
DIM = 8


@pytest.fixture(scope="module")
def overlay():
    return cycle_union_adjacency(N_NODES, 6, seed=3)


@pytest.fixture(scope="module")
def holders_signal():
    """Unit-scale rows on 2% of the nodes, the shape of a serving corpus."""
    rng = np.random.default_rng(5)
    holders = rng.choice(N_NODES, N_NODES // 50, replace=False)
    dense = np.zeros((N_NODES, DIM))
    dense[holders] = rng.standard_normal((holders.shape[0], DIM))
    return sp.csr_matrix(dense)


@pytest.fixture
def small_chunks(monkeypatch):
    """Cut slices into 64-row chunks, so every run crosses several."""
    monkeypatch.setattr(filters, "_SPARSE_CHUNK_ROWS", 64)


def run_both(ppr, operator, signal):
    with warnings.catch_warnings():
        # ε = 1e-2 collapses the diffusion on purpose; both sides warn.
        warnings.simplefilter("ignore", PrunedMassWarning)
        return ppr.apply_detailed(operator, signal), reference_sparse_ppr(
            ppr, operator, signal
        )


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("epsilon", [0.0, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("normalization", ["column", "row", "symmetric"])
def test_every_field_matches_reference(
    overlay, holders_signal, normalization, epsilon, alpha, dtype
):
    operator = transition_matrix(overlay, normalization)
    ppr = SparsePersonalizedPageRank(alpha, epsilon=epsilon, tol=1e-8, dtype=dtype)
    got, want = run_both(ppr, operator, holders_signal)
    assert diffusion_differences(got, want) == []


def test_default_chunks_match_reference():
    """Several default-size chunks: a slice wider than 2 × 2048 rows."""
    overlay = cycle_union_adjacency(20_000, 8, seed=9)
    rng = np.random.default_rng(10)
    holders = rng.choice(20_000, 200, replace=False)
    dense = np.zeros((20_000, 4))
    dense[holders] = rng.standard_normal((200, 4))
    operator = transition_matrix(overlay, "column")
    ppr = SparsePersonalizedPageRank(0.5, epsilon=1e-4, tol=1e-8)
    got, want = run_both(ppr, operator, sp.csr_matrix(dense))
    assert got.signal.tocsr().getnnz(axis=1).astype(bool).sum() > 2 * filters._SPARSE_CHUNK_ROWS
    assert diffusion_differences(got, want) == []


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("max_iterations", [1, 2, 10_000])
@pytest.mark.parametrize("epsilon", [0.0, 1e-3])
def test_iteration_caps_match_reference(
    overlay, holders_signal, epsilon, max_iterations
):
    operator = transition_matrix(overlay, "column")
    ppr = SparsePersonalizedPageRank(
        0.3, epsilon=epsilon, tol=1e-8, max_iterations=max_iterations
    )
    got, want = run_both(ppr, operator, holders_signal)
    assert got.iterations == min(max_iterations, want.iterations)
    assert diffusion_differences(got, want) == []


def isolated_holders_operator():
    """A 12-node path plus 4 isolated nodes, as a column operator."""
    n = 16
    rows = np.concatenate([np.arange(11), np.arange(1, 12)])
    cols = np.concatenate([np.arange(1, 12), np.arange(11)])
    adjacency = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    topology = CompressedAdjacency(adjacency.indptr, adjacency.indices)
    return transition_matrix(topology, "column")


def input_forms():
    rng = np.random.default_rng(11)
    n = 16
    mixed = np.zeros((n, 3))
    mixed[[0, 5, 13, 15]] = rng.standard_normal((4, 3))  # 13, 15 are isolated
    return {
        "dense": rng.standard_normal((n, 3)),
        "vector": rng.standard_normal(n),
        "all_zero_csr": sp.csr_matrix((n, 4)),
        "all_zero_dense": np.zeros((n, 2)),
        "isolated_holders_only": sp.csr_matrix(
            np.where(np.arange(n)[:, None] >= 12, 1.0, 0.0) * np.ones((n, 2))
        ),
        "mixed_holders": sp.csr_matrix(mixed),
    }


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("form", sorted(input_forms()))
def test_input_forms_match_reference(form, epsilon):
    """Dense, vector and all-zero input, and teleport rows no edge reaches."""
    operator = isolated_holders_operator()
    ppr = SparsePersonalizedPageRank(0.5, epsilon=epsilon, tol=1e-10)
    got, want = run_both(ppr, operator, input_forms()[form])
    assert diffusion_differences(got, want) == []


@pytest.mark.filterwarnings("ignore::repro.gsp.filters.PrunedMassWarning")
def test_isolated_holders_keep_their_teleport_rows():
    operator = isolated_holders_operator()
    signal = input_forms()["mixed_holders"]
    result = SparsePersonalizedPageRank(0.5, epsilon=1e-3).apply_detailed(
        operator, signal
    )
    dense = result.signal.toarray()
    assert np.array_equal(dense[[13, 15]], 0.5 * signal.toarray()[[13, 15]])


def support(result) -> set[int]:
    return set(np.flatnonzero(np.diff(result.signal.tocsr().indptr)).tolist())


@pytest.mark.filterwarnings("ignore::repro.gsp.filters.PrunedMassWarning")
@pytest.mark.parametrize("epsilon", [0.0, 1e-4, 1e-3, 1e-2])
def test_support_only_grows(overlay, holders_signal, epsilon):
    """The support after k sweeps lies inside the support after k + 1."""
    operator = transition_matrix(overlay, "column")
    supports = [
        support(
            SparsePersonalizedPageRank(
                0.5, epsilon=epsilon, tol=1e-8, max_iterations=k
            ).apply_detailed(operator, holders_signal)
        )
        for k in range(1, 9)
    ]
    holders = set(np.flatnonzero(np.diff(holders_signal.indptr)).tolist())
    assert holders <= supports[0]
    for fewer, more in zip(supports, supports[1:]):
        assert fewer <= more
    if epsilon < 1e-2:  # at 1e-2 every neighbor is pruned: no growth at all
        assert len(supports[-1]) > len(supports[0])
