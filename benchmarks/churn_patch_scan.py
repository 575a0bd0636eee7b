"""Check the in-place block patch against the copying merge on churn_serve's writes.

Builds the serving corpus (``perfbench.workloads.make_corpus``) at two
seeds, diffuses it with the ``sparse`` backend at the serving settings
(α = 0.5, ε = 1e-4, tol = 1e-8), then replays churn_serve's write mix
(``perfbench.workloads.make_stream(..., churn=True)``: four writes a round,
add:move:delete 1:6:1) and patches the cache every five rounds, twelve
patches a seed.  Each patch runs once through
``DiffusionSearchNetwork.diffuse``, which patches the block cache in place,
and once through ``reference_push_refresh`` from
``tests/scalar_reference.py``: the full-estimate push and sorted merge into
a new block that the in-place patch replaced, applied to its own copy of
the cache.  Prints both paths' patch times, and exits 1 unless after every
patch the two dense caches are byte-identical and the pushes agree on
sweeps, pushes, edge operations, residual, residual L1 and convergence.
There is no timing assertion, and nothing is written::

    python benchmarks/churn_patch_scan.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

import repro.core.backends.sparse as sparse_backend  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ALPHA,
    DIM,
    EPSILON,
    TOL,
    WRITES_PER_ROUND,
    make_corpus,
    make_stream,
)
from repro.churn.stream import apply_churn_event  # noqa: E402
from repro.core.backends import SparseDiffusionBackend  # noqa: E402
from repro.core.search import DiffusionSearchNetwork  # noqa: E402
from repro.graphs.adjacency import CompressedAdjacency  # noqa: E402
from repro.gsp.filters import RowBlock  # noqa: E402
from repro.gsp.normalization import transition_matrix  # noqa: E402
from tests.scalar_reference import reference_push_refresh  # noqa: E402

SEEDS = (1, 2)
PATCHES = 12
ROUNDS_PER_PATCH = 5
FIELDS = ("sweeps", "pushes", "edge_operations", "residual", "residual_l1", "converged")


def main() -> int:
    # The facade's push results, for the push counts its outcome leaves out.
    pushes = []
    push_refresh = sparse_backend.push_refresh

    def recorded(*args, **kwargs):
        patched, result = push_refresh(*args, **kwargs)
        pushes.append(result)
        return patched, result

    sparse_backend.push_refresh = recorded
    failed = False
    for seed in SEEDS:
        corpus = make_corpus(seed)
        stream = make_stream(
            corpus, seed, 0, PATCHES * ROUNDS_PER_PATCH, faults=False, churn=True
        )
        adjacency = CompressedAdjacency(corpus.indptr, corpus.indices)
        n = adjacency.n_nodes
        network = DiffusionSearchNetwork(adjacency, DIM, alpha=ALPHA)
        network.place_documents(
            zip(corpus.doc_ids, corpus.vectors, corpus.nodes.tolist())
        )
        backend = SparseDiffusionBackend(epsilon=EPSILON)
        network.diffuse(method=backend, tol=TOL)
        cache = network.last_diffusion.embeddings
        reference = RowBlock(cache.nodes.copy(), cache.rows.copy(), n)
        previous = network.personalization_sparse()
        operator = transition_matrix(adjacency, "column", fmt="csc")
        print(
            f"seed {seed}: {n:,} nodes, {cache.nodes.shape[0]:,} cached rows, "
            f"{PATCHES} patches of {ROUNDS_PER_PATCH * WRITES_PER_ROUND} writes"
        )
        times: dict[str, list[float]] = {"in place": [], "reference": []}
        mismatches = []
        embedding_of = stream.add_vectors.__getitem__
        for patch in range(PATCHES):
            rounds = stream.rounds[patch * ROUNDS_PER_PATCH:(patch + 1) * ROUNDS_PER_PATCH]
            for event in (e for r in rounds for e in r.writes):
                apply_churn_event(network, event, embedding_of=embedding_of)
            # The facade's delta: current minus diffused rows of the dirty nodes.
            dirty = np.array(sorted(network.dirty_nodes), dtype=np.int64)
            current = network.personalization_sparse()
            delta = RowBlock(dirty, current[dirty] - previous[dirty], n)
            previous = current

            start = time.perf_counter()
            outcome = network.diffuse(method=backend, tol=TOL)
            times["in place"].append(time.perf_counter() - start)
            start = time.perf_counter()
            reference, want = reference_push_refresh(
                operator, reference, delta, alpha=ALPHA, tol=TOL, epsilon=EPSILON
            )
            times["reference"].append(time.perf_counter() - start)

            got = pushes[-1]
            differ = [name for name in FIELDS if getattr(got, name) != getattr(want, name)]
            if not outcome.incremental or outcome.embeddings is not cache:
                differ.append("patched in place")
            if (
                network.last_diffusion.embeddings.toarray().tobytes()
                != reference.toarray().tobytes()
            ):
                differ.append("cache")
            if differ:
                mismatches.append(f"patch {patch}: {', '.join(differ)}")
        for name, runs in times.items():
            ms = np.array(runs) * 1e3
            print(
                f"  {name:>9}: median {np.median(ms):6.2f} ms, "
                f"min {ms.min():6.2f}, max {ms.max():6.2f}"
            )
        print(
            f"  {cache.nodes.shape[0]:,} cached rows after the last patch "
            f"(reference: {reference.nodes.shape[0]:,})"
        )
        if mismatches:
            failed = True
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"  identical after every patch: cache bytes and {', '.join(FIELDS)}")
    sparse_backend.push_refresh = push_refresh
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
