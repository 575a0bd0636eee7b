"""Word embedding container mirroring a minimal GenSim ``KeyedVectors`` API.

The paper draws its documents and queries from a pre-trained GloVe vocabulary;
:class:`WordEmbeddingModel` is the in-repo equivalent: an ordered vocabulary
with an aligned matrix of vectors and exact nearest-neighbor search.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.similarity import cosine_similarity, l2_normalize

#: How far a blocked cosine may sit from the threshold, and half how far
#: from its sorted neighbour, before the row is left to
#: :meth:`WordEmbeddingModel.neighbors_above`.  A block product sums in
#: another order than the per-word matrix-vector product, so the two
#: cosines differ in the last bits; for unit vectors of dimension ``d`` by
#: at most about ``2 * d * 2**-53`` (7e-14 at 300-d), far inside this margin.
BLOCK_COSINE_MARGIN = 1e-9


class WordEmbeddingModel:
    """An immutable vocabulary of words with aligned embedding vectors.

    Parameters
    ----------
    words:
        Vocabulary, one entry per embedding row.  Must be unique.
    vectors:
        Array of shape ``(len(words), dim)``.
    metadata:
        Optional free-form provenance (generator parameters, cluster labels...).
    """

    def __init__(
        self,
        words: Sequence[str],
        vectors: np.ndarray,
        metadata: dict | None = None,
    ) -> None:
        words = list(words)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        if len(words) != vectors.shape[0]:
            raise ValueError(
                f"{len(words)} words but {vectors.shape[0]} vectors"
            )
        if len(set(words)) != len(words):
            raise ValueError("vocabulary contains duplicate words")
        self._words = words
        self._vectors = vectors
        self._index = {word: i for i, word in enumerate(words)}
        self.metadata = dict(metadata or {})
        self._unit_vectors: np.ndarray | None = None  # lazy cosine cache

    # ------------------------------------------------------------------ basic

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self._vectors.shape[1]

    @property
    def words(self) -> list[str]:
        """The vocabulary in index order (copy)."""
        return list(self._words)

    @property
    def vectors(self) -> np.ndarray:
        """The full ``(n_words, dim)`` matrix (read-only view)."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    def index_of(self, word: str) -> int:
        """Row index of ``word``; raises ``KeyError`` for unknown words."""
        return self._index[word]

    def word_at(self, index: int) -> str:
        """Vocabulary entry at row ``index``."""
        return self._words[index]

    def vector(self, word: str) -> np.ndarray:
        """The embedding of ``word`` (copy)."""
        return self._vectors[self._index[word]].copy()

    def vectors_for(self, words: Iterable[str]) -> np.ndarray:
        """Stack the embeddings of ``words`` into a fresh ``(n, dim)`` matrix."""
        rows = [self._index[w] for w in words]
        return self._vectors[rows]

    # ------------------------------------------------------------- similarity

    def _unit_matrix(self) -> np.ndarray:
        """Lazily cached L2-normalized vocabulary matrix (vectors are
        immutable, so the cache never invalidates)."""
        if self._unit_vectors is None:
            self._unit_vectors = l2_normalize(self._vectors)
        return self._unit_vectors

    def _cosine_to_all(self, word: str) -> np.ndarray:
        unit_query = l2_normalize(self._vectors[self._index[word]])
        return self._unit_matrix() @ unit_query

    def similarity(self, word_a: str, word_b: str) -> float:
        """Cosine similarity between two vocabulary words."""
        return float(
            cosine_similarity(self.vector(word_a), self.vector(word_b))[0]
        )

    def most_similar(
        self,
        word: str,
        top_n: int = 10,
        *,
        exclude_self: bool = True,
    ) -> list[tuple[str, float]]:
        """The ``top_n`` vocabulary words most cosine-similar to ``word``."""
        sims = self._cosine_to_all(word)
        order = np.argsort(-sims)
        results: list[tuple[str, float]] = []
        self_idx = self._index[word]
        for idx in order:
            if exclude_self and idx == self_idx:
                continue
            results.append((self._words[idx], float(sims[idx])))
            if len(results) >= top_n:
                break
        return results

    def neighbors_above(
        self,
        word: str,
        threshold: float,
        *,
        exclude_self: bool = True,
    ) -> list[tuple[str, float]]:
        """All words with cosine similarity to ``word`` above ``threshold``.

        This is the gold-document construction rule of the paper (§V-B): a
        query word's gold documents are its neighbors with cosine > 0.6.
        """
        sims = self._cosine_to_all(word)
        self_idx = self._index[word]
        hits = [
            (self._words[i], float(sims[i]))
            for i in np.flatnonzero(sims > threshold)
            if not (exclude_self and i == self_idx)
        ]
        hits.sort(key=lambda pair: -pair[1])
        return hits

    def neighbor_words_above(
        self, rows: Sequence[int] | np.ndarray, threshold: float
    ) -> list[list[str]]:
        """For each vocabulary row in ``rows``, the words
        ``neighbors_above(word_at(row), threshold)`` returns, in its order.

        One product of the block's unit rows with the unit matrix gives
        every row's cosines.  A row is decided from them only when every
        neighbor candidate (self excluded) lies more than
        :data:`BLOCK_COSINE_MARGIN` above the threshold and consecutive
        sorted candidates lie more than twice the margin apart; the block's
        rounding can then change neither the set nor its order.  Any other
        row goes through :meth:`neighbors_above`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        unit = self._unit_matrix()
        sims = unit[rows] @ unit.T
        sims[np.arange(rows.size), rows] = -np.inf  # self is never a neighbor
        results: list[list[str]] = []
        for row, row_sims in zip(rows.tolist(), sims):
            candidates = np.flatnonzero(row_sims > threshold - BLOCK_COSINE_MARGIN)
            ranked = candidates[np.argsort(-row_sims[candidates])]
            cosines = row_sims[ranked]
            if cosines.size and (
                cosines[-1] <= threshold + BLOCK_COSINE_MARGIN
                or np.any(cosines[:-1] - cosines[1:] <= 2 * BLOCK_COSINE_MARGIN)
            ):
                hits = self.neighbors_above(self._words[row], threshold)
                results.append([word for word, _ in hits])
            else:
                results.append([self._words[i] for i in ranked.tolist()])
        return results

    def normalized(self) -> "WordEmbeddingModel":
        """A copy of the model with L2-normalized vectors."""
        return WordEmbeddingModel(
            self._words, l2_normalize(self._vectors), dict(self.metadata)
        )

    # -------------------------------------------------------------------- I/O

    def save(self, path: str | Path) -> None:
        """Persist to an ``.npz`` archive (words, vectors)."""
        path = Path(path)
        np.savez_compressed(
            path,
            words=np.asarray(self._words, dtype=object),
            vectors=self._vectors,
        )

    @classmethod
    def load(cls, path: str | Path) -> "WordEmbeddingModel":
        """Load a model previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=True) as data:
            words = [str(w) for w in data["words"]]
            vectors = np.asarray(data["vectors"], dtype=np.float64)
        return cls(words, vectors)

    @classmethod
    def from_text_format(cls, path: str | Path) -> "WordEmbeddingModel":
        """Load GloVe's plain-text format: ``word v1 v2 ... vd`` per line.

        Allows plugging in the real ``glove.6B.300d.txt`` when available,
        making the synthetic substitute swappable for the paper's exact data.
        """
        words: list[str] = []
        rows: list[np.ndarray] = []
        with open(Path(path), "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    continue
                words.append(parts[0])
                rows.append(np.asarray(parts[1:], dtype=np.float64))
        if not rows:
            raise ValueError(f"no embeddings found in {path}")
        dims = {row.shape[0] for row in rows}
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions in {path}: {sorted(dims)}")
        return cls(words, np.vstack(rows))
