"""Classic topology generators with a connectivity guarantee.

All generators return *connected* undirected graphs with integer nodes
``0..n-1`` — a P2P overlay that is not connected cannot route queries, and the
experiment harness assumes one component.  Disconnected draws are repaired by
bridging components with random edges (cheaper and less disruptive to the
degree sequence than re-drawing).
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.utils import check_positive, check_probability, ensure_rng
from repro.utils.rng import RngLike


def _connect_components(graph: nx.Graph, rng: np.random.Generator) -> nx.Graph:
    """Bridge the components of ``graph`` with random edges (in place)."""
    components = [list(c) for c in nx.connected_components(graph)]
    if len(components) <= 1:
        return graph
    anchor = components[0]
    for component in components[1:]:
        u = anchor[int(rng.integers(len(anchor)))]
        v = component[int(rng.integers(len(component)))]
        graph.add_edge(u, v)
        anchor.extend(component)
    return graph


def connected_watts_strogatz(
    n: int, k: int, p: float, *, seed: RngLike = None
) -> nx.Graph:
    """Watts–Strogatz small-world graph, repaired to a single component."""
    check_positive(n, "n")
    check_positive(k, "k")
    check_probability(p, "p")
    rng = ensure_rng(seed)
    graph = nx.watts_strogatz_graph(n, k, p, seed=int(rng.integers(2**31)))
    return _connect_components(graph, rng)


def cycle_union_adjacency(
    n: int, degree: int = 10, *, seed: RngLike = None
) -> "CompressedAdjacency":
    """Random near-regular graph built directly in CSR — no networkx.

    The union of ``degree // 2`` independent random Hamiltonian cycles:
    every node gets degree ``2 · (degree // 2)`` (minus the occasional
    duplicate-edge collision), the graph is connected by construction (each
    cycle alone spans all nodes), and the whole build is a handful of numpy
    array operations — ``O(n · degree)`` time and memory.  This is the
    generator for benchmark-scale topologies (100k+ nodes) where the
    per-edge Python overhead of the networkx generators dominates the
    actual experiment.
    """
    from repro.graphs.adjacency import CompressedAdjacency

    check_positive(n, "n")
    check_positive(degree, "degree")
    if n < 3:
        raise ValueError(f"n must be at least 3 for a cycle, got {n}")
    rng = ensure_rng(seed)
    sources = []
    targets = []
    for _ in range(max(1, degree // 2)):
        permutation = rng.permutation(n).astype(np.int64)
        sources.append(permutation)
        targets.append(np.roll(permutation, -1))
    src = np.concatenate(sources)
    dst = np.concatenate(targets)
    # Symmetrize, then dedup directed edges via composite keys.
    u = np.concatenate((src, dst))
    v = np.concatenate((dst, src))
    keys = np.unique(u * np.int64(n) + v)
    rows = keys // n
    cols = keys % n
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(rows, minlength=n)))
    ).astype(np.int64)
    return CompressedAdjacency(indptr, cols)


def community_cycle_adjacency(
    n: int,
    degree: int = 10,
    n_communities: int = 8,
    cross_fraction: float = 0.05,
    *,
    seed: RngLike = None,
) -> "CompressedAdjacency":
    """Planted-community near-regular overlay built directly in CSR.

    The community-structured sibling of :func:`cycle_union_adjacency` (and
    built at the same ``O(n · degree)`` numpy cost): nodes are split into
    ``n_communities`` contiguous blocks, each block gets the union of
    ``degree // 2`` random Hamiltonian cycles *within* the block, and a
    ``cross_fraction`` of additional edge slots is spent on uniform random
    cross-node pairs, plus one cycle through a random representative of
    each community so the overlay is connected by construction.  The result
    has strong, discoverable community structure with a tunable cross-edge
    fraction — the benchmark topology for serving, fault and end-to-end runs
    (decentralized social overlays are community-structured).
    """
    from repro.graphs.adjacency import CompressedAdjacency

    check_positive(n, "n")
    check_positive(degree, "degree")
    check_positive(n_communities, "n_communities")
    check_probability(cross_fraction, "cross_fraction")
    if n < 3 * n_communities:
        raise ValueError(
            f"need >= 3 nodes per community for intra cycles, got "
            f"{n} nodes across {n_communities} communities"
        )
    rng = ensure_rng(seed)
    bounds = np.linspace(0, n, n_communities + 1).astype(np.int64)
    sources = []
    targets = []
    for _ in range(max(1, degree // 2)):
        # One permutation per sweep, rolled within each community block:
        # a Hamiltonian cycle inside every block, no edges across.
        permutation = np.empty(n, dtype=np.int64)
        rolled = np.empty(n, dtype=np.int64)
        for c in range(n_communities):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            block = lo + rng.permutation(hi - lo).astype(np.int64)
            permutation[lo:hi] = block
            rolled[lo:hi] = np.roll(block, -1)
        sources.append(permutation)
        targets.append(rolled)
    # Connectivity spine: a cycle through one representative per community.
    reps = np.array(
        [
            int(bounds[c]) + int(rng.integers(int(bounds[c + 1] - bounds[c])))
            for c in range(n_communities)
        ],
        dtype=np.int64,
    )
    if n_communities > 1:
        sources.append(reps)
        targets.append(np.roll(reps, -1))
    # Tunable leakage: uniform random pairs (mostly cross-community).
    n_cross = int(n * degree * cross_fraction / 2)
    if n_cross:
        pairs = rng.integers(0, n, size=(2, n_cross), dtype=np.int64)
        keep = pairs[0] != pairs[1]
        sources.append(pairs[0][keep])
        targets.append(pairs[1][keep])
    src = np.concatenate(sources)
    dst = np.concatenate(targets)
    u = np.concatenate((src, dst))
    v = np.concatenate((dst, src))
    keys = np.unique(u * np.int64(n) + v)
    rows = keys // n
    cols = keys % n
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(rows, minlength=n)))
    ).astype(np.int64)
    return CompressedAdjacency(indptr, cols)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2-D grid with nodes relabeled to integers (deterministic topology).

    Grids have long hop distances for their size, which makes them useful for
    testing the distance-dependent behaviour of Fig. 3 deterministically.
    """
    check_positive(rows, "rows")
    check_positive(cols, "cols")
    graph = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")
