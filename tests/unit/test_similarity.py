"""Tests for repro.embeddings.similarity."""

import numpy as np
import pytest

from repro.embeddings.similarity import (
    cosine_similarity,
    dot_scores,
    l2_normalize,
)


class TestL2Normalize:
    def test_unit_norm_1d(self):
        out = l2_normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(out), 1.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_unit_norm_2d(self):
        out = l2_normalize(np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_vector_stays_zero(self):
        assert np.allclose(l2_normalize(np.zeros(4)), 0.0)

    def test_zero_row_in_matrix_stays_zero(self):
        mat = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = l2_normalize(mat)
        assert np.allclose(out[0], 0.0)
        assert np.isclose(np.linalg.norm(out[1]), 1.0)

    def test_does_not_mutate_input(self):
        arr = np.array([2.0, 0.0])
        l2_normalize(arr)
        assert arr[0] == 2.0

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros((2, 2, 2)))


class TestDotScores:
    def test_matches_manual(self):
        q = np.array([1.0, 2.0])
        docs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.allclose(dot_scores(q, docs), [1.0, 2.0, 3.0])

    def test_single_document_vector(self):
        assert np.allclose(dot_scores(np.array([1.0, 1.0]), np.array([2.0, 3.0])), [5.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dot_scores(np.ones(3), np.ones((2, 4)))

    def test_2d_query_rejected(self):
        with pytest.raises(ValueError):
            dot_scores(np.ones((2, 2)), np.ones((2, 2)))


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.isclose(cosine_similarity(v, v)[0], 1.0)

    def test_orthogonal_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 5.0])
        assert np.isclose(cosine_similarity(a, b)[0], 0.0)

    def test_opposite_vectors(self):
        a = np.array([1.0, 0.0])
        assert np.isclose(cosine_similarity(a, -a)[0], -1.0)

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0])
        b = np.array([[2.0, 1.0]])
        assert np.isclose(
            cosine_similarity(a, b)[0], cosine_similarity(10 * a, 5 * b)[0]
        )

