"""Document placement over P2P nodes.

The paper distributes documents uniformly (§V-B) and conjectures that
realistic, spatially correlated distributions would aid diffusion; the
community-correlated placement implements that conjecture for the ablation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.retrieval.vector_store import DocumentStore
from repro.utils import check_positive, check_probability, ensure_rng
from repro.utils.rng import RngLike


def uniform_placement(
    n_documents: int,
    n_nodes: int,
    *,
    seed: RngLike = None,
) -> np.ndarray:
    """Assign each document to a node uniformly at random (paper §V-B)."""
    check_positive(n_documents, "n_documents")
    check_positive(n_nodes, "n_nodes")
    rng = ensure_rng(seed)
    return rng.integers(0, n_nodes, size=n_documents, dtype=np.int64)


def community_correlated_placement(
    doc_clusters: np.ndarray,
    node_communities: np.ndarray,
    *,
    mixing: float = 0.0,
    seed: RngLike = None,
) -> np.ndarray:
    """Place same-cluster documents inside the same graph community.

    Each document cluster is mapped to one community (chosen with probability
    proportional to community size, so small communities are not overloaded);
    a document lands on a uniform node of its cluster's community, except
    with probability ``mixing`` it escapes to a uniform node anywhere.
    Documents with cluster −1 (no topic) are always placed uniformly.
    """
    check_probability(mixing, "mixing")
    rng = ensure_rng(seed)
    doc_clusters = np.asarray(doc_clusters, dtype=np.int64)
    node_communities = np.asarray(node_communities, dtype=np.int64)
    n_nodes = node_communities.shape[0]
    if n_nodes == 0:
        raise ValueError("node_communities is empty")

    community_ids = np.unique(node_communities)
    community_members = {
        int(c): np.flatnonzero(node_communities == c) for c in community_ids
    }
    sizes = np.asarray([community_members[int(c)].size for c in community_ids])
    community_probs = sizes / sizes.sum()

    cluster_ids = np.unique(doc_clusters[doc_clusters >= 0])
    community_of_cluster = {
        int(cluster): int(community_ids[rng.choice(community_ids.size, p=community_probs)])
        for cluster in cluster_ids
    }

    nodes = np.empty(doc_clusters.shape[0], dtype=np.int64)
    for i, cluster in enumerate(doc_clusters):
        if cluster < 0 or rng.random() < mixing:
            nodes[i] = rng.integers(n_nodes)
        else:
            members = community_members[community_of_cluster[int(cluster)]]
            nodes[i] = members[int(rng.integers(members.size))]
    return nodes


class PlacedStores(Mapping[int, DocumentStore]):
    """Read-only node → :class:`DocumentStore` view of one placement.

    Keeps the placed documents once, as embedding-matrix rows in one stable
    node order plus per-node offsets, and builds a node's store on its first
    lookup, then returns that same object on every later one.  A walk that
    visits a hundred of a thousand occupied nodes builds a hundred stores.
    Iteration yields the occupied nodes in ascending order; ``in``, ``len``
    and iteration never build a store.
    """

    def __init__(
        self,
        doc_ids: list[Hashable],
        matrix: np.ndarray,
        rows: np.ndarray,
        nodes: np.ndarray,
        dim: int,
    ) -> None:
        order = np.argsort(nodes, kind="stable")
        occupied, starts = np.unique(nodes[order], return_index=True)
        self._doc_ids = doc_ids
        self._matrix = matrix
        self._rows = rows[order]
        self._offsets = [*starts.tolist(), order.shape[0]]
        self._slot = {node: i for i, node in enumerate(occupied.tolist())}
        self._built: list[DocumentStore | None] = [None] * len(self._slot)
        self._dim = dim

    def __getitem__(self, node: int) -> DocumentStore:
        slot = self._slot[node]
        store = self._built[slot]
        if store is None:
            rows = self._rows[self._offsets[slot] : self._offsets[slot + 1]]
            store = self._built[slot] = DocumentStore.from_documents(
                self._dim,
                [self._doc_ids[r] for r in rows.tolist()],
                self._matrix[rows],
            )
        return store

    def __contains__(self, node: object) -> bool:
        return node in self._slot

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)


def build_stores(
    doc_ids: Sequence[Hashable],
    embeddings: np.ndarray,
    nodes: np.ndarray,
    dim: int,
    *,
    rows: np.ndarray | None = None,
) -> Mapping[int, DocumentStore]:
    """Group placed documents into per-node :class:`DocumentStore` objects.

    Document ``i`` sits on ``nodes[i]``; its id and embedding are
    ``doc_ids[i]`` and ``embeddings[i]``, or with ``rows`` given,
    ``doc_ids[rows[i]]`` and ``embeddings[rows[i]]`` (a vocabulary plus
    the rows drawn from it).  Returns a read-only mapping that iterates
    the occupied nodes in ascending order and builds a node's store
    lazily, on its first lookup (see :class:`PlacedStores`), with the
    node's documents in input order.  Alignment and ``dim`` are checked
    here, not on first lookup.

    The mapping is a snapshot: later changes to the caller's ids or
    arrays never reach a store.  ``doc_ids`` is copied, and so is a
    writeable ``embeddings``.  A read-only one is taken to be immutable
    and shared, which spares the simulation a copy of its vocabulary per
    iteration (:attr:`WordEmbeddingModel.vectors` is read-only).
    """
    ids = list(doc_ids)
    matrix = np.asarray(embeddings)
    nodes = np.asarray(nodes, dtype=np.int64)
    rows = np.arange(len(ids)) if rows is None else np.asarray(rows, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1] != dim or dim < 1:
        raise ValueError(
            f"embeddings must be 2-D with {dim} columns, got shape {matrix.shape}"
        )
    if len(ids) != matrix.shape[0] or nodes.ndim != 1 or rows.shape != nodes.shape:
        raise ValueError("doc_ids, embeddings and nodes must be aligned")
    if rows.size and not 0 <= rows.min() <= rows.max() < len(ids):
        raise ValueError(f"rows must lie in [0, {len(ids)})")
    if matrix.dtype != np.float64 or matrix.flags.writeable:
        matrix = matrix.astype(np.float64)
    return PlacedStores(ids, matrix, rows, nodes, dim)
