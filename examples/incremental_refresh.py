"""Incremental re-diffusion: keep routing hints fresh under churn, cheaply.

The paper's warm-up (Fig. 2 lines 3-6) diffuses every node's personalization
vector over the whole network.  When a single document is placed or removed,
re-running that warm-up repeats work for thousands of unchanged nodes.  The
``sparse`` diffusion backend instead patches the cached embeddings by
diffusing only the sparse *delta* — Forward Push work proportional to the
change.  With ``epsilon=0.0`` it prunes nothing, so the patch is exact.

This example:

1. builds a 1000-node overlay and places 300 documents,
2. runs the cold-start diffusion,
3. places one more document and refreshes incrementally,
4. compares the incremental cost against a full re-diffusion and verifies
   both give the same embeddings (to push tolerance).

Run: ``python examples/incremental_refresh.py``
"""

import numpy as np

from repro import DiffusionSearchNetwork, FacebookLikeConfig, facebook_like_graph
from repro.core.backends import SparseDiffusionBackend

SEED = 23
DIM = 64
N_DOCS = 300


def main() -> None:
    rng = np.random.default_rng(SEED)
    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes=1000, target_edges=15000, n_egos=8), seed=SEED
    )
    net = DiffusionSearchNetwork(graph, dim=DIM, alpha=0.5)
    for i in range(N_DOCS):
        net.place_document(
            f"doc-{i}", rng.standard_normal(DIM), int(rng.integers(net.n_nodes))
        )
    print(f"network: {net.n_nodes} nodes, {net.n_documents} documents")

    # Cold start: the exact sparse backend diffuses the full personalization.
    exact = SparseDiffusionBackend(epsilon=0.0)
    cold = net.diffuse(method=exact, tol=1e-8)
    print(
        f"cold-start: {cold.iterations} sweeps, "
        f"{cold.operations:,} edge operations"
    )

    # One document arrives: only its node's personalization row changes.
    net.place_document("breaking-news", rng.standard_normal(DIM), node=7)
    print(f"placed 1 document; dirty nodes: {sorted(net.dirty_nodes)}")

    incremental = net.diffuse(method=exact, tol=1e-8)  # patches, not redoes
    print(
        f"incremental refresh: {incremental.iterations} sweeps, "
        f"{incremental.operations:,} edge operations "
        f"({incremental.operations / cold.operations:.1%} of cold start)"
    )
    assert incremental.incremental

    # A full re-diffusion computes the same embeddings the expensive way.
    full = net.diffuse(method=exact, tol=1e-8, incremental=False)
    error = float(
        np.max(np.abs(incremental.embeddings.toarray() - full.embeddings.toarray()))
    )
    print(
        f"full re-diffusion:   {full.iterations} sweeps, "
        f"{full.operations:,} edge operations"
    )
    print(f"max |incremental − full| = {error:.2e}")

    speedup = full.operations / max(1, incremental.operations)
    print(f"\nthe incremental patch did {speedup:.1f}x less graph work for")
    print("the same routing hints — re-diffusion cost now tracks the churn")
    print("rate instead of the network size.")


if __name__ == "__main__":
    main()
