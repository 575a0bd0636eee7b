"""Similarity kernels for the bi-encoder vector space model (paper §III-A).

The comparison mechanism ``phi`` of eq. (2) is a dot product or cosine
similarity; the two coincide for L2-normalized embeddings (paper footnote 7).
"""

from __future__ import annotations

import numpy as np


def l2_normalize(vectors: np.ndarray, *, eps: float = 1e-12) -> np.ndarray:
    """Return a copy of ``vectors`` scaled to unit L2 norm.

    Works on a single vector (1-D) or a stack of row vectors (2-D).  Vectors
    with norm below ``eps`` are returned as zeros rather than dividing by ~0.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        norm = float(np.linalg.norm(vectors))
        if norm < eps:
            return np.zeros_like(vectors)
        return vectors / norm
    if vectors.ndim == 2:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        safe = np.where(norms < eps, 1.0, norms)
        out = vectors / safe
        out[norms[:, 0] < eps] = 0.0
        return out
    raise ValueError(f"vectors must be 1-D or 2-D, got shape {vectors.shape}")


def dot_scores(query: np.ndarray, documents: np.ndarray) -> np.ndarray:
    """Dot-product relevance of ``query`` against each row of ``documents``.

    This is the comparison function used throughout the paper: the relevance of
    a document (or of a node embedding) to a query is ``e_q · e_d`` (eq. 2–3).
    """
    query = np.asarray(query, dtype=np.float64)
    documents = np.asarray(documents, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D, got shape {query.shape}")
    if documents.ndim == 1:
        documents = documents[None, :]
    if documents.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]} dims, "
            f"documents have {documents.shape[1]}"
        )
    return documents @ query


def cosine_similarity(query: np.ndarray, documents: np.ndarray) -> np.ndarray:
    """Cosine similarity of ``query`` against each row of ``documents``."""
    query = l2_normalize(np.asarray(query, dtype=np.float64))
    documents = np.asarray(documents, dtype=np.float64)
    if documents.ndim == 1:
        documents = documents[None, :]
    return dot_scores(query, l2_normalize(documents))

