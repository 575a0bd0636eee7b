"""Time the forward-push kernel on dense and row-block input (README "One push kernel").

The set-up: ``facebook_like_graph(FacebookLikeConfig(n, m, n_egos=8),
seed=5)`` at 1 000 nodes / 22 000 edges and 4 039 / 88 234, with a column
operator; 1 000 standard-normal documents placed uniformly (rng seed 11)
and summed per node; α = 0.5 and tol = 1e-8.  Each row pushes one signal
twice, once as a dense array and once as a ``RowBlock`` of its nonzero
rows, and prints the best of 5 wall times with the run's sweeps and edge
operations.  ``--check`` also fails unless both inputs run the same sweeps,
pushes and edge operations and their estimates agree within 1e-12.
Nothing is written::

    python benchmarks/push_table.py [--check]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.graphs.adjacency import CompressedAdjacency  # noqa: E402
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph  # noqa: E402
from repro.gsp.filters import RowBlock, coerce_sparse_signal  # noqa: E402
from repro.gsp.normalization import transition_matrix  # noqa: E402
from repro.gsp.push import PushResult, forward_push  # noqa: E402

ALPHA = 0.5
TOL = 1e-8
REPEATS = 5
N_DOCUMENTS = 1000
GRAPHS = {1000: 22_000, 4039: 88_234}


def setup(n_nodes: int, dim: int) -> tuple[sp.csc_matrix, np.ndarray, np.random.Generator]:
    """Column operator, summed document signal and the generator that placed it."""
    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes, GRAPHS[n_nodes], n_egos=8), seed=5
    )
    operator = transition_matrix(
        CompressedAdjacency.from_networkx(graph), "column", fmt="csc"
    )
    rng = np.random.default_rng(11)
    nodes = rng.integers(0, n_nodes, size=N_DOCUMENTS)
    signal = np.zeros((n_nodes, dim))
    np.add.at(signal, nodes, rng.standard_normal((N_DOCUMENTS, dim)))
    return operator, signal, rng


def rows() -> list[tuple[str, sp.csc_matrix, np.ndarray]]:
    """(label, operator, dense signal) per table row; a 1-column signal is 1-D."""
    table = []
    for n_nodes in GRAPHS:
        operator, signal, _ = setup(n_nodes, 1)
        table.append((f"{n_nodes:,} nodes, 1 column, cold", operator, signal[:, 0]))
    operator, signal, rng = setup(4039, 64)
    table.append(("4,039 nodes, 64 columns, cold", operator, signal))
    delta = np.zeros_like(signal)
    delta[rng.choice(signal.shape[0], 5, replace=False)] = rng.standard_normal((5, 64))
    table.append(("4,039 nodes, 64 columns, 5-row delta", operator, delta))
    return table


def best_of(operator: sp.csc_matrix, signal: np.ndarray | RowBlock) -> tuple[float, PushResult]:
    """Best wall time in ms over ``REPEATS`` runs, and the last run's result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = forward_push(operator, signal, alpha=ALPHA, tol=TOL)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, result


def mismatches(dense: PushResult, block: PushResult) -> list[str]:
    """How the two inputs' runs differ, if they do."""
    found = [
        f"{field}: dense {getattr(dense, field)} != block {getattr(block, field)}"
        for field in ("sweeps", "pushes", "edge_operations")
        if getattr(dense, field) != getattr(block, field)
    ]
    gap = np.abs(block.estimate.toarray().reshape(dense.estimate.shape) - dense.estimate)
    if gap.max(initial=0.0) > 1e-12:
        found.append(f"estimates differ by {gap.max():.3g}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless dense and block input make the same run",
    )
    args = parser.parse_args(argv)
    header = (
        f"{'signal':<38} {'dense ms':>9} {'block ms':>9} {'blk/dense':>9} "
        f"{'sweeps':>6} {'edge ops':>10}"
    )
    print(header)
    print("-" * len(header))
    failures = []
    for label, operator, signal in rows():
        dense_ms, dense = best_of(operator, signal)
        block, _ = coerce_sparse_signal(
            signal.reshape(signal.shape[0], -1), signal.shape[0]
        )
        block_ms, rows_run = best_of(operator, block)
        print(
            f"{label:<38} {dense_ms:>9.1f} {block_ms:>9.1f} {block_ms / dense_ms:>9.2f} "
            f"{dense.sweeps:>6} {dense.edge_operations:>10,}"
        )
        failures += [f"{label}: {problem}" for problem in mismatches(dense, rows_run)]
    if args.check and failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
