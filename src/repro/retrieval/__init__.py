"""Dense retrieval substrate (paper §II-B, §III-A).

Implements the bi-encoder vector space model: per-node document stores with
exact top-k scoring and the running top-k tracker carried by queries.
"""

from repro.retrieval.vector_store import DocumentStore, StoredDocument
from repro.retrieval.scoring import rank_documents, top_k_indices
from repro.retrieval.topk import TopKTracker, ScoredDocument

__all__ = [
    "DocumentStore",
    "StoredDocument",
    "rank_documents",
    "top_k_indices",
    "TopKTracker",
    "ScoredDocument",
]
