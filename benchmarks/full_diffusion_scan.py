"""Check the sparse PPR filter against its reference loop on the serving corpus.

Builds the corpus that the serving workloads diffuse during set-up
(``perfbench.workloads.make_corpus``: ``community_cycle_adjacency(50 000, 8,
16 communities, 5% cross edges)`` and 1 000 unit 64-d documents) at two
seeds.  Each corpus's personalization is diffused with
``SparsePersonalizedPageRank`` (α = 0.5, ε = 1e-4, tol = 1e-8, the serving
settings) and with ``reference_sparse_ppr`` from ``tests/scalar_reference.py``,
the union-based loop it replaced, alternating.  Prints the times, sweeps,
support rows and edge operations, and exits 1 unless every
``DiffusionResult`` field is identical.  There is no timing assertion, and
nothing is written::

    python benchmarks/full_diffusion_scan.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


from perfbench.workloads import ALPHA, DIM, EPSILON, TOL, make_corpus  # noqa: E402
from repro.core.search import DiffusionSearchNetwork  # noqa: E402
from repro.graphs.adjacency import CompressedAdjacency  # noqa: E402
from repro.gsp.filters import SparsePersonalizedPageRank  # noqa: E402
from repro.gsp.normalization import transition_matrix  # noqa: E402
from tests.scalar_reference import (  # noqa: E402
    diffusion_differences,
    reference_sparse_ppr,
)

SEEDS = (1, 2)
ROUNDS = 2


def main() -> int:
    failed = False
    for seed in SEEDS:
        corpus = make_corpus(seed)
        adjacency = CompressedAdjacency(corpus.indptr, corpus.indices)
        network = DiffusionSearchNetwork(adjacency, DIM, alpha=ALPHA)
        network.place_documents(
            zip(corpus.doc_ids, corpus.vectors, corpus.nodes.tolist())
        )
        signal = network.personalization_sparse()
        operator = transition_matrix(adjacency, network.normalization)
        ppr = SparsePersonalizedPageRank(ALPHA, epsilon=EPSILON, tol=TOL)
        print(
            f"seed {seed}: {adjacency.n_nodes:,} nodes, {len(corpus.doc_ids):,} "
            f"documents on {signal.nodes.shape[0]:,} "
            f"holders, {DIM}-d, alpha={ALPHA}, epsilon={EPSILON:g}, tol={TOL:g}"
        )
        times: dict[str, list[float]] = {"reference": [], "filter": []}
        for _ in range(ROUNDS):
            start = time.perf_counter()
            want = reference_sparse_ppr(ppr, operator, signal)
            times["reference"].append(time.perf_counter() - start)
            start = time.perf_counter()
            got = ppr.apply_detailed(operator, signal)
            times["filter"].append(time.perf_counter() - start)
        best = {name: min(runs) for name, runs in times.items()}
        print(
            "  reference_sparse_ppr (union1d loop): "
            + " ".join(f"{t:6.3f}" for t in times["reference"])
            + " s"
        )
        print(
            "  SparsePersonalizedPageRank:          "
            + " ".join(f"{t:6.3f}" for t in times["filter"])
            + f" s  (best {best['reference'] / best['filter']:.2f}x)"
        )
        support_rows = got.signal.nodes.shape[0]
        print(
            f"  {got.iterations} sweeps, {support_rows:,} support rows, "
            f"{got.edge_operations:,} edge operations, "
            f"residual_l1 {got.residual_l1:.1f}"
        )
        mismatched = diffusion_differences(got, want)
        if mismatched:
            failed = True
            print(f"  results differ in: {', '.join(mismatched)}", file=sys.stderr)
        else:
            print("  identical: every DiffusionResult field")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
