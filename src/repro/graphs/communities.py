"""Community detection by label propagation.

Communities serve the *correlated document placement* ablation: the paper
(§V-B) expects realistic document distributions to exhibit spatial
correlation, i.e. nodes in the same community hold topically related
documents.  Communities give us the "spatial" unit for that placement.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.utils import ensure_rng
from repro.utils.rng import RngLike


def label_propagation_communities(
    adjacency: CompressedAdjacency,
    *,
    max_iterations: int = 100,
    seed: RngLike = None,
) -> np.ndarray:
    """Asynchronous label propagation; returns a community id per node.

    Each node repeatedly adopts the most frequent label among its neighbors
    (ties broken uniformly at random) until no label changes or
    ``max_iterations`` passes complete.  Labels are compacted to ``0..k-1``.
    """
    rng = ensure_rng(seed)
    n = adjacency.n_nodes
    labels = np.arange(n, dtype=np.int64)
    order = np.arange(n)
    for _ in range(max_iterations):
        changed = False
        rng.shuffle(order)
        for u in order:
            neigh = adjacency.neighbors(int(u))
            if neigh.size == 0:
                continue
            neighbor_labels = labels[neigh]
            values, counts = np.unique(neighbor_labels, return_counts=True)
            best = values[counts == counts.max()]
            new_label = int(best[rng.integers(best.size)]) if best.size > 1 else int(best[0])
            if new_label != labels[u]:
                labels[u] = new_label
                changed = True
        if not changed:
            break
    # Compact labels to 0..k-1 in order of first appearance.
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)
