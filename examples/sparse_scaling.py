"""Sparse-first diffusion: search a 50,000-node network on a laptop budget.

The dense pipeline materializes an ``(n_nodes, dim)`` embedding matrix even
though most nodes hold no documents.  The ``sparse`` backend keeps the
personalization, the diffusion iterate, and the cached embeddings as row
blocks (the rows of the nodes the diffusion reached, plus a node → row map)
with degree-normalized ε-pruning, so precompute time and memory track the
diffused support instead of the network size — and the walk policy scores
the block's rows directly, never densifying.

Run with ``PYTHONPATH=src python examples/sparse_scaling.py``.
"""

import time

import numpy as np

from repro import DiffusionSearchNetwork
from repro.core import SparseDiffusionBackend
from repro.graphs.generators import cycle_union_adjacency

N_NODES = 50_000
DIM = 64
N_DOCUMENTS = 400
TTL = 50


def main() -> None:
    rng = np.random.default_rng(0)

    started = time.perf_counter()
    adjacency = cycle_union_adjacency(N_NODES, 10, seed=1)
    print(
        f"overlay: {adjacency.n_nodes} nodes / {adjacency.n_edges} edges "
        f"(built in {time.perf_counter() - started:.2f}s, no networkx)"
    )

    net = DiffusionSearchNetwork(adjacency, dim=DIM, alpha=0.5)
    documents = rng.standard_normal((N_DOCUMENTS, DIM))
    nodes = rng.choice(N_NODES, N_DOCUMENTS, replace=False)
    for i in range(N_DOCUMENTS):
        net.place_document(f"doc-{i}", documents[i], int(nodes[i]))

    started = time.perf_counter()
    outcome = net.diffuse(method="sparse")
    elapsed = time.perf_counter() - started
    cache = outcome.embeddings
    density = cache.rows.size / float(N_NODES * DIM)
    print(
        f"sparse diffusion: {elapsed:.2f}s, {outcome.iterations} sweeps, "
        f"converged={outcome.converged}"
    )
    block_bytes = cache.rows.nbytes + cache.nodes.nbytes + cache.slot_of.nbytes
    csr = cache.tocsr()
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    print(
        f"row-block embedding cache: {cache.nodes.shape[0]} rows, "
        f"{cache.rows.size} stored values ({density:.1%} of the dense "
        f"{N_NODES}x{DIM} matrix), {block_bytes / 1e6:.1f} MB "
        f"({csr_bytes / 1e6:.1f} MB as CSR)"
    )

    # Queries walk the network scoring the block's rows directly — the
    # dense matrix is never materialized.
    hits = 0
    trials = 20
    started = time.perf_counter()
    for q in range(trials):
        target = int(rng.integers(N_DOCUMENTS))
        start = int(rng.integers(N_NODES))
        result = net.search(documents[target], start_node=start, ttl=TTL)
        hits += result.found(f"doc-{target}", top=1)
    elapsed = time.perf_counter() - started
    print(
        f"{trials} TTL-{TTL} searches from random nodes: "
        f"{hits}/{trials} top-1 hits, {elapsed / trials * 1e3:.1f} ms/query"
    )

    # Content changes patch the cache incrementally (work ~ the change).
    net.place_document("late-arrival", rng.standard_normal(DIM), node=7)
    refreshed = net.diffuse(method="sparse")
    print(
        f"incremental refresh after one placement: incremental="
        f"{refreshed.incremental}, {refreshed.operations} edge operations"
    )

    # A tighter epsilon trades memory for tail accuracy.
    tight = DiffusionSearchNetwork(adjacency, dim=DIM, alpha=0.5)
    for i in range(N_DOCUMENTS):
        tight.place_document(f"doc-{i}", documents[i], int(nodes[i]))
    tight_cache = tight.diffuse(method=SparseDiffusionBackend(epsilon=1e-4)).embeddings
    print(
        f"epsilon=1e-4 cache density: "
        f"{tight_cache.rows.size / float(N_NODES * DIM):.1%} "
        "(keeps more of the score tail)"
    )


if __name__ == "__main__":
    main()
