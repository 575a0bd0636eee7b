"""Embedding substrate: the dense-retrieval vector spaces of the paper.

The paper represents documents and queries with 300-d GloVe word vectors.
With no network access, :mod:`repro.embeddings.synthetic` provides a
from-scratch substitute: a clustered unit-vector model calibrated to the
geometric properties retrieval relies on (high-cosine gold neighbors,
near-orthogonal irrelevant words).  It returns a
:class:`repro.embeddings.model.WordEmbeddingModel`;
:meth:`~repro.embeddings.model.WordEmbeddingModel.from_text_format` loads
the real GloVe vectors into the same class when they are on disk.
"""

from repro.embeddings.model import WordEmbeddingModel
from repro.embeddings.similarity import (
    l2_normalize,
    cosine_similarity,
    dot_scores,
    pairwise_cosine,
)
from repro.embeddings.synthetic import SyntheticCorpusConfig, synthetic_word_embeddings

__all__ = [
    "WordEmbeddingModel",
    "l2_normalize",
    "cosine_similarity",
    "dot_scores",
    "pairwise_cosine",
    "SyntheticCorpusConfig",
    "synthetic_word_embeddings",
]
