"""Tests for forwarding policies (§IV-C next-hop selection)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.forwarding import (
    DegreeBiasedPolicy,
    EmbeddingGuidedPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock
from repro.retrieval.scoring import top_k_indices


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def embeddings():
    # node i's embedding is i * e1 + noise-free structure for predictability
    return np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [0.0, 3.0],
            [0.5, 0.5],
        ]
    )


class TestEmbeddingGuided:
    def test_argmax_selection(self, embeddings, rng):
        policy = EmbeddingGuidedPolicy(embeddings)
        query = np.array([1.0, 0.0])
        chosen = policy.select(query, np.array([0, 1, 2, 3]), 1, rng)
        assert list(chosen) == [2]

    def test_query_direction_matters(self, embeddings, rng):
        policy = EmbeddingGuidedPolicy(embeddings)
        query = np.array([0.0, 1.0])
        chosen = policy.select(query, np.array([0, 1, 2, 3]), 1, rng)
        assert list(chosen) == [3]

    def test_fanout_top_k(self, embeddings, rng):
        policy = EmbeddingGuidedPolicy(embeddings)
        query = np.array([1.0, 0.0])
        chosen = policy.select(query, np.array([0, 1, 2, 4]), 2, rng)
        assert list(chosen) == [2, 1]

    def test_ties_broken_by_candidate_order(self, rng):
        tied = np.zeros((4, 2))
        policy = EmbeddingGuidedPolicy(tied)
        chosen = policy.select(np.ones(2), np.array([2, 3]), 1, rng)
        assert list(chosen) == [2]

    def test_empty_candidates(self, embeddings, rng):
        policy = EmbeddingGuidedPolicy(embeddings)
        out = policy.select(np.ones(2), np.array([], dtype=np.int64), 1, rng)
        assert out.size == 0

    def test_scores_helper(self, embeddings):
        policy = EmbeddingGuidedPolicy(embeddings)
        scores = policy.scores(np.array([1.0, 1.0]), np.array([3, 4]))
        assert np.allclose(scores, [3.0, 1.0])

    def test_select_ignores_rng(self, embeddings):
        policy = EmbeddingGuidedPolicy(embeddings)
        query = np.array([1.0, 0.0])
        out = [
            list(policy.select(query, np.array([0, 1, 2]), 1, np.random.default_rng(s)))
            for s in range(5)
        ]
        assert all(o == out[0] for o in out)

    def test_score_batch_matches_per_walk_scores(self, embeddings):
        """``score_batch`` scores every walk's candidates in one call, each
        segment bit-identical to a one-walk :meth:`scores` call, for a dense
        and a block cache alike."""
        queries = np.array([[1.0, 0.0], [0.5, -2.0]])
        candidates = np.array([0, 1, 2, 3, 4, 2], dtype=np.int64)
        offsets = np.array([0, 4, 6])
        block = RowBlock(np.arange(1, 5), embeddings[1:], 5)  # row 0 is zero
        for cache in (embeddings, block):
            policy = EmbeddingGuidedPolicy(cache)
            got = policy.score_batch(queries, candidates, offsets)
            want = np.concatenate(
                [
                    policy.scores(queries[s], candidates[offsets[s] : offsets[s + 1]])
                    for s in range(2)
                ]
            )
            assert np.array_equal(got, want)

    def test_describe(self, embeddings):
        assert "embedding-guided" in EmbeddingGuidedPolicy(embeddings).describe()


class TestPrecomputedScore:
    def test_matches_embedding_guided(self, embeddings, rng):
        """The linearity fast path: scores = E @ q gives identical selections."""
        query = np.array([0.7, -0.2])
        guided = EmbeddingGuidedPolicy(embeddings)
        precomputed = PrecomputedScorePolicy(embeddings @ query)
        candidates = np.array([0, 1, 2, 3, 4])
        for fanout in (1, 2, 3):
            a = guided.select(query, candidates, fanout, rng)
            b = precomputed.select(query, candidates, fanout, rng)
            assert np.array_equal(a, b)

    def test_rejects_matrix_scores(self):
        with pytest.raises(ValueError):
            PrecomputedScorePolicy(np.zeros((2, 2)))


class TestRandomWalk:
    def test_uniform_coverage(self):
        policy = RandomWalkPolicy()
        rng = np.random.default_rng(2)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(600):
            chosen = policy.select(np.zeros(2), np.array([1, 2, 3]), 1, rng)
            counts[int(chosen[0])] += 1
        for count in counts.values():
            assert 120 <= count <= 280  # roughly uniform

    def test_fanout_without_replacement(self):
        policy = RandomWalkPolicy()
        rng = np.random.default_rng(3)
        chosen = policy.select(np.zeros(2), np.array([1, 2, 3]), 3, rng)
        assert sorted(chosen) == [1, 2, 3]

    def test_fanout_capped_at_candidates(self):
        policy = RandomWalkPolicy()
        rng = np.random.default_rng(4)
        chosen = policy.select(np.zeros(2), np.array([5]), 4, rng)
        assert list(chosen) == [5]


class TestDegreeBiased:
    def test_prefers_hub(self, rng):
        import networkx as nx

        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(4))
        policy = DegreeBiasedPolicy(adjacency)
        chosen = policy.select(np.zeros(2), np.array([0, 1, 2]), 1, rng)
        assert list(chosen) == [0]  # the hub

    def test_describe(self):
        import networkx as nx

        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(2))
        assert DegreeBiasedPolicy(adjacency).describe() == "degree-biased"


class TestSparseScoring:
    """Block-backed policies decide identically to their dense twins.

    The sparse diffusion pipeline hands the policy its embedding cache as a
    :class:`RowBlock`; held rows carry the same values a densified copy
    would, and nodes without a row score exactly 0.0, so selections must be
    bit-identical across representations.
    """

    @pytest.fixture
    def sparse_embeddings(self, rng):
        dense = np.zeros((30, 6))
        rows = np.sort(rng.choice(30, 12, replace=False))
        dense[rows] = rng.standard_normal((12, 6))
        return dense, RowBlock(rows, dense[rows], 30)

    def test_embedding_guided_select_matches_dense(self, sparse_embeddings, rng):
        dense, sparse = sparse_embeddings
        dense_policy = EmbeddingGuidedPolicy(dense)
        sparse_policy = EmbeddingGuidedPolicy(sparse)
        query = rng.standard_normal(6)
        candidates = np.arange(30, dtype=np.int64)
        for fanout in (1, 3):
            assert np.array_equal(
                dense_policy.select(query, candidates, fanout, rng),
                sparse_policy.select(query, candidates, fanout, rng),
            )

    def test_embedding_guided_scores_match_dense(self, sparse_embeddings, rng):
        dense, sparse = sparse_embeddings
        query = rng.standard_normal(6)
        candidates = np.array([0, 4, 7, 29])
        got = EmbeddingGuidedPolicy(sparse).scores(query, candidates)
        want = EmbeddingGuidedPolicy(dense).scores(query, candidates)
        assert np.allclose(got, want, atol=1e-14)

    def test_embedding_guided_select_batch_matches_dense(
        self, sparse_embeddings, rng
    ):
        dense, sparse = sparse_embeddings
        queries = rng.standard_normal((2, 6))
        candidates = np.concatenate(
            [np.arange(15, dtype=np.int64), np.arange(10, 30, dtype=np.int64)]
        )
        offsets = np.array([0, 15, 35])
        fanouts = np.array([2, 2])
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        got = EmbeddingGuidedPolicy(sparse).select_batch(
            queries, candidates, offsets, fanouts, rngs
        )
        want = EmbeddingGuidedPolicy(dense).select_batch(
            queries, candidates, offsets, fanouts, rngs
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @staticmethod
    def pruned_csr(rng, dtype):
        """A CSR cache with rows of mixed lengths and every fourth row empty."""
        dense = rng.standard_normal((40, 16)) * (rng.random((40, 16)) < 0.5)
        dense[::4] = 0.0
        # Rows 5 and 9 are equal and long, so they tie for the top score
        # under a query along row 5.
        dense[5] = 3.0 * rng.standard_normal(16)
        dense[9] = dense[5]
        return sp.csr_matrix(dense, dtype=dtype)

    @staticmethod
    def same_rows(matrix):
        """The CSR matrix's stored rows as a block (empty rows held by none)."""
        held = np.flatnonzero(np.diff(matrix.indptr))
        return RowBlock(held, matrix[held].toarray(), matrix.shape[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scores_bit_identical_to_row_matvec(self, rng, dtype):
        matrix = self.pruned_csr(rng, dtype)
        policy = EmbeddingGuidedPolicy(self.same_rows(matrix))
        query = rng.standard_normal(16)
        empty = np.flatnonzero(np.diff(matrix.indptr) == 0)
        for candidates in (
            np.arange(40, dtype=np.int64),  # stored and empty rows mixed
            np.array([5]),
            empty[:4],
        ):
            got = policy.scores(query, candidates)
            want = np.asarray(matrix[candidates] @ query).ravel()
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
        assert np.all(policy.scores(query, empty) == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_select_batch_matches_per_segment_top_k(self, rng, dtype):
        matrix = self.pruned_csr(rng, dtype)
        policy = EmbeddingGuidedPolicy(self.same_rows(matrix))
        queries = rng.standard_normal((4, 16))
        queries[0] = matrix[5].toarray().ravel()
        segments = [
            np.array([2, 5, 7, 9, 11]),  # rows 5 and 9 tie at the top
            np.array([], dtype=np.int64),
            np.arange(12, 30),
            np.array([0, 4, 8, 12, 13]),  # four empty rows tie at 0.0
        ]
        fanouts = np.array([1, 2, 3, 2])
        candidates = np.concatenate(segments)
        offsets = np.concatenate(([0], np.cumsum([len(seg) for seg in segments])))
        chosen, chosen_offsets = policy.select_batch(
            queries,
            candidates,
            offsets,
            fanouts,
            [np.random.default_rng(s) for s in range(4)],
        )
        want = []
        for s, segment in enumerate(segments):
            reference = np.asarray(matrix[segment] @ queries[s]).ravel()
            want.append(offsets[s] + top_k_indices(reference, fanouts[s]))
        first = np.asarray(matrix[segments[0]] @ queries[0]).ravel()
        assert first[1] == first[3] == first.max()
        assert np.array_equal(chosen, np.concatenate(want))
        assert np.array_equal(
            chosen_offsets, np.concatenate(([0], np.cumsum([len(w) for w in want])))
        )

    def test_sparse_dim_mismatch_rejected(self, sparse_embeddings):
        _, sparse = sparse_embeddings
        policy = EmbeddingGuidedPolicy(sparse)
        with pytest.raises(ValueError, match="mismatch"):
            policy.scores(np.zeros(5), np.array([0, 1]))

    def test_policy_keeps_the_block_it_was_built_over(self, sparse_embeddings):
        """Blocks are read-only, so a policy never sees a later patch."""
        _, sparse = sparse_embeddings
        policy = EmbeddingGuidedPolicy(sparse)
        assert policy.embeddings is sparse
        with pytest.raises(ValueError, match="read-only"):
            sparse.rows[0] = 1.0

    def test_scipy_sparse_input_rejected(self, sparse_embeddings):
        """Two input formats: dense or a block.  CSR converts at the API
        edge (``coerce_sparse_signal``), not in the policies."""
        dense, _ = sparse_embeddings
        with pytest.raises(ValueError):
            EmbeddingGuidedPolicy(sp.csr_matrix(dense))
        with pytest.raises(ValueError):
            PrecomputedScorePolicy(sp.csr_matrix(dense[:, :1]))
