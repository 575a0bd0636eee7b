"""Tests for repro.embeddings.model.WordEmbeddingModel."""

import numpy as np
import pytest

from repro.embeddings.model import WordEmbeddingModel


@pytest.fixture
def model() -> WordEmbeddingModel:
    words = ["alpha", "beta", "gamma", "delta"]
    vectors = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.9, 0.1, 0.0],  # close to alpha
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return WordEmbeddingModel(words, vectors)


class TestConstruction:
    def test_length_and_dim(self, model):
        assert len(model) == 4
        assert model.dim == 3

    def test_mismatched_counts_raise(self):
        with pytest.raises(ValueError, match="words but"):
            WordEmbeddingModel(["a"], np.zeros((2, 3)))

    def test_duplicate_words_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            WordEmbeddingModel(["a", "a"], np.zeros((2, 3)))

    def test_1d_vectors_raise(self):
        with pytest.raises(ValueError):
            WordEmbeddingModel(["a"], np.zeros(3))


class TestLookup:
    def test_contains(self, model):
        assert "alpha" in model
        assert "omega" not in model

    def test_index_roundtrip(self, model):
        for i, word in enumerate(model.words):
            assert model.index_of(word) == i
            assert model.word_at(i) == word

    def test_unknown_word_raises(self, model):
        with pytest.raises(KeyError):
            model.index_of("omega")

    def test_vector_returns_copy(self, model):
        v = model.vector("alpha")
        v[0] = 99.0
        assert model.vector("alpha")[0] == 1.0

    def test_vectors_for_stacks_in_order(self, model):
        mat = model.vectors_for(["gamma", "alpha"])
        assert np.allclose(mat[0], model.vector("gamma"))
        assert np.allclose(mat[1], model.vector("alpha"))

    def test_vectors_for_returns_fresh_array(self, model):
        mat = model.vectors_for(["alpha", "alpha", "delta"])
        assert mat.flags.writeable
        assert not np.shares_memory(mat, model.vectors)
        mat[:] = 7.0
        assert model.vector("alpha").tolist() == [1.0, 0.0, 0.0]
        assert model.vector("delta").tolist() == [0.0, 0.0, 1.0]

    def test_vectors_property_readonly(self, model):
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 5.0


class TestSimilarity:
    def test_similarity_close_pair(self, model):
        assert model.similarity("alpha", "beta") > 0.9

    def test_most_similar_excludes_self(self, model):
        results = model.most_similar("alpha", top_n=2)
        names = [w for w, _ in results]
        assert "alpha" not in names
        assert names[0] == "beta"

    def test_most_similar_include_self(self, model):
        results = model.most_similar("alpha", top_n=1, exclude_self=False)
        assert results[0][0] == "alpha"
        assert np.isclose(results[0][1], 1.0)

    def test_neighbors_above_threshold(self, model):
        hits = model.neighbors_above("alpha", 0.6)
        assert [w for w, _ in hits] == ["beta"]

    def test_neighbors_above_high_threshold_empty(self, model):
        assert model.neighbors_above("delta", 0.9) == []

    def test_neighbors_sorted_descending(self, model):
        hits = model.neighbors_above("alpha", -1.0)
        sims = [s for _, s in hits]
        assert sims == sorted(sims, reverse=True)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.6, 0.99])
    def test_neighbor_words_above_matches_neighbors_above(self, model, threshold):
        expected = [
            [word for word, _ in model.neighbors_above(model.word_at(row), threshold)]
            for row in (3, 0, 2, 1)
        ]
        assert model.neighbor_words_above([3, 0, 2, 1], threshold) == expected

    def test_normalized_copy(self, model):
        norm = model.normalized()
        assert np.allclose(np.linalg.norm(norm.vectors, axis=1), 1.0)
        # original unchanged
        assert not np.allclose(np.linalg.norm(model.vectors, axis=1), 1.0)


class TestIO:
    def test_save_load_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = WordEmbeddingModel.load(path)
        assert loaded.words == model.words
        assert np.allclose(loaded.vectors, model.vectors)

    def test_text_format_roundtrip(self, model, tmp_path):
        path = tmp_path / "glove.txt"
        lines = [
            f"{w} " + " ".join(str(x) for x in model.vector(w)) for w in model.words
        ]
        path.write_text("\n".join(lines))
        loaded = WordEmbeddingModel.from_text_format(path)
        assert loaded.words == model.words
        assert np.allclose(loaded.vectors, model.vectors)

    def test_text_format_empty_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no embeddings"):
            WordEmbeddingModel.from_text_format(path)

    def test_text_format_inconsistent_dims_raise(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2 3\nb 1 2\n")
        with pytest.raises(ValueError, match="inconsistent"):
            WordEmbeddingModel.from_text_format(path)
