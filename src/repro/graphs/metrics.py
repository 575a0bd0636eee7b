"""Graph measurements: BFS distances, clustering, degree statistics.

BFS runs over :class:`~repro.graphs.adjacency.CompressedAdjacency` because the
experiment harness calls it once per iteration (distances from the gold
document's node define Fig. 3's x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.utils import ensure_rng
from repro.utils.rng import RngLike

UNREACHABLE = -1


def bfs_distances(adjacency: CompressedAdjacency, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every node (−1 when unreachable).

    Level-synchronous frontier expansion over the CSR arrays: each level
    gathers every frontier node's neighbor row in one shot and keeps the
    still-unlabeled ones, so the cost per level is a handful of array
    operations instead of a Python loop per edge.  The experiment harness
    calls this once per iteration, which made the per-edge loop a measurable
    slice of the Fig. 3 driver.
    """
    if not 0 <= source < adjacency.n_nodes:
        raise ValueError(f"source {source} out of range")
    dist = np.full(adjacency.n_nodes, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    indptr, indices = adjacency.indptr, adjacency.indices
    iota = np.arange(indices.shape[0], dtype=np.int64)
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        row_starts = indptr[frontier]
        lens = indptr[frontier + 1] - row_starts
        offsets = lens.cumsum()
        total = int(offsets[-1])
        flat = indices[(row_starts - offsets + lens).repeat(lens) + iota[:total]]
        fresh = flat[dist[flat] == UNREACHABLE]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        dist[frontier] = level
    return dist


def estimate_diameter(
    adjacency: CompressedAdjacency,
    *,
    n_sweeps: int = 4,
    seed: RngLike = None,
) -> int:
    """Lower-bound the diameter with repeated double sweeps.

    Each sweep runs BFS from a random node, then BFS again from the farthest
    node found; the maximum eccentricity observed is returned.  Exact on
    trees; a tight lower bound on social graphs.
    """
    rng = ensure_rng(seed)
    best = 0
    for _ in range(max(1, n_sweeps)):
        start = int(rng.integers(adjacency.n_nodes))
        dist = bfs_distances(adjacency, start)
        reachable = dist >= 0
        far = int(np.argmax(np.where(reachable, dist, -1)))
        dist2 = bfs_distances(adjacency, far)
        best = max(best, int(dist2.max()))
    return best


def average_clustering(
    adjacency: CompressedAdjacency,
    *,
    n_samples: int | None = None,
    seed: RngLike = None,
) -> float:
    """Mean local clustering coefficient (sampled when ``n_samples`` given).

    The local coefficient of ``u`` is ``2 T(u) / (deg(u) (deg(u) − 1))`` with
    ``T(u)`` the number of triangles through ``u``; degree-<2 nodes count 0.
    """
    rng = ensure_rng(seed)
    n = adjacency.n_nodes
    if n == 0:
        return 0.0
    if n_samples is None or n_samples >= n:
        nodes = np.arange(n)
    else:
        nodes = rng.choice(n, size=n_samples, replace=False)
    neighbor_sets = {}
    total = 0.0
    for u in nodes:
        u = int(u)
        neigh = adjacency.neighbors(u)
        degree = neigh.shape[0]
        if degree < 2:
            continue
        if u not in neighbor_sets:
            neighbor_sets[u] = set(int(x) for x in neigh)
        triangles = 0
        for v in neigh:
            v = int(v)
            if v not in neighbor_sets:
                neighbor_sets[v] = set(int(x) for x in adjacency.neighbors(v))
            triangles += len(neighbor_sets[u] & neighbor_sets[v])
        total += triangles / (degree * (degree - 1))
    return total / nodes.shape[0]


def degree_statistics(adjacency: CompressedAdjacency) -> dict[str, float]:
    """Min / max / mean / median degree of the graph."""
    degrees = adjacency.degrees
    if degrees.size == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "median": 0.0}
    return {
        "min": float(degrees.min()),
        "max": float(degrees.max()),
        "mean": float(degrees.mean()),
        "median": float(np.median(degrees)),
    }


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of a topology, for reporting and calibration."""

    n_nodes: int
    n_edges: int
    mean_degree: float
    max_degree: int
    clustering: float
    diameter_lower_bound: int


def summarize_graph(
    adjacency: CompressedAdjacency,
    *,
    clustering_samples: int | None = 500,
    seed: RngLike = 0,
) -> GraphSummary:
    """Compute a :class:`GraphSummary` (clustering sampled for speed)."""
    stats = degree_statistics(adjacency)
    return GraphSummary(
        n_nodes=adjacency.n_nodes,
        n_edges=adjacency.n_edges,
        mean_degree=stats["mean"],
        max_degree=int(stats["max"]),
        clustering=average_clustering(
            adjacency, n_samples=clustering_samples, seed=seed
        ),
        diameter_lower_bound=estimate_diameter(adjacency, seed=seed),
    )
