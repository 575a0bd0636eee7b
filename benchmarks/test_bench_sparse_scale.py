"""Benchmark: the sparse-first diffusion pipeline at benchmark scale.

Three measurements on a near-regular random overlay (built directly in CSR
by :func:`repro.graphs.generators.cycle_union_adjacency` — networkx-free,
so 100k nodes build in well under a second):

1. **Precompute speed at the dense-feasible size** — the ``sparse`` backend
   vs dense ``power`` on the same personalization, same tolerance.  The
   issue targets >= 2x at 10k nodes with top-k score overlap >= 0.99 at the
   default epsilon.
2. **Peak memory at 10x that size** — the sparse backend runs the diffusion
   at a node count the dense path cannot reasonably touch; its measured
   peak is compared against the dense 10k-node peak extrapolated linearly
   (dense memory is Theta(n * dim), so 10x nodes => 10x bytes).  Target:
   >= 5x below the extrapolation.
3. **The epsilon knob** — accuracy (top-k overlap vs dense) and iterate
   density as a function of the pruning threshold, recording the
   density/accuracy trade-off the filter docstring describes.

Reduced mode (default; CI smoke and the plain suite) shrinks both sizes and
asserts conservative floors; full mode (``REPRO_BENCH_SPARSE_FULL=1`` or
``REPRO_FULL=1``) runs the issue's 10k/100k configuration and asserts its
targets.  The committed ``results/sparse_scale.{txt,json}`` come from a full
run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from benchmarks.conftest import emit_report, measure_peak_memory
from repro.core.backends import get_backend
from repro.experiments.common import full_requested
from repro.graphs.generators import cycle_union_adjacency
from repro.gsp.filters import SPARSE_DEFAULT_EPSILON, RowBlock
from repro.core.backends.sparse import SparseDiffusionBackend
from repro.kernels import kernel_info

BENCH_FULL_ENV = "REPRO_BENCH_SPARSE_FULL"

DIM = 64
DEGREE = 10
HOLDER_FRACTION = 0.01  # document holders per node (the sparse E0 support)
TOP_K_FRACTION = 0.01  # ranking depth of the overlap metric (top 1% of nodes)
N_QUERIES = 30
EPSILON_SWEEP = (1e-2, 3e-3, 1e-3, 3e-4)


def bench_full_requested() -> bool:
    flag = os.environ.get(BENCH_FULL_ENV, "").strip()
    return flag in ("1", "true", "yes") or full_requested()


@dataclass(frozen=True)
class BenchSize:
    label: str
    dense_nodes: int  # where dense power runs (speed + memory baseline)
    sparse_nodes: int  # where only the sparse backend runs
    repetitions: int
    min_speedup: float  # sparse vs dense at dense_nodes
    min_memory_ratio: float  # extrapolated dense peak / sparse peak
    min_overlap: float  # top-k overlap at the default epsilon
    min_f32_overlap: float  # top-k overlap of the float32 pipeline vs float64


# The reduced overlap floor is looser than the full-size target: at 2k
# nodes the top-1% cut is only 20 nodes and the boundary sits deeper into
# the pruned tail, so the deterministic measurement (~0.967) runs below the
# 10k-node one (~0.993) by construction, not by regression.  The float32
# floor follows the same logic (single-precision noise flips more of a
# 20-node boundary than a 100-node one).
REDUCED = BenchSize(
    label="reduced (2k/20k nodes)",
    dense_nodes=2_000,
    sparse_nodes=20_000,
    repetitions=2,
    min_speedup=1.3,
    min_memory_ratio=2.5,
    min_overlap=0.94,
    min_f32_overlap=0.95,
)
# The committed measurement exceeds the issue's floors (2x speed, 5x
# memory, 0.99 overlap, 0.98 float32-vs-float64 overlap); the assertion
# floors sit at the issue targets.
FULL = BenchSize(
    label="full (10k/100k nodes, issue target)",
    dense_nodes=10_000,
    sparse_nodes=100_000,
    repetitions=3,
    min_speedup=2.0,
    min_memory_ratio=5.0,
    min_overlap=0.99,
    min_f32_overlap=0.98,
)


def _cache_bytes(block: RowBlock) -> int:
    return int(block.rows.nbytes + block.nodes.nbytes + block.slot_of.nbytes)


def _personalization(n: int, seed: int) -> sp.csr_matrix:
    """Sparse E0: unit-scale rows on a random ``HOLDER_FRACTION`` of nodes."""
    rng = np.random.default_rng(seed)
    holders = np.sort(rng.choice(n, max(1, int(n * HOLDER_FRACTION)), replace=False))
    block = rng.standard_normal((holders.shape[0], DIM))
    rows = np.repeat(holders.astype(np.int64), DIM)
    cols = np.tile(np.arange(DIM, dtype=np.int64), holders.shape[0])
    return sp.csr_matrix((block.ravel(), (rows, cols)), shape=(n, DIM))


def _time_diffusion(backend, adjacency, personalization, repetitions) -> tuple[float, object]:
    best = float("inf")
    outcome = None
    for _ in range(repetitions):
        started = time.perf_counter()
        outcome = backend.diffuse(adjacency, personalization, alpha=0.5, tol=1e-8)
        best = min(best, time.perf_counter() - started)
    return best, outcome


def _overlap(dense_embeddings, sparse_embeddings, top_k: int, seed: int) -> float:
    """Mean top-``top_k`` node overlap of diffused scores over random queries."""
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((DIM, N_QUERIES))
    dense_scores = dense_embeddings @ queries
    sparse_scores = np.asarray(sparse_embeddings.tocsr() @ queries)
    overlaps = []
    for j in range(N_QUERIES):
        top_dense = set(np.argsort(-dense_scores[:, j])[:top_k].tolist())
        top_sparse = set(np.argsort(-sparse_scores[:, j])[:top_k].tolist())
        overlaps.append(len(top_dense & top_sparse) / top_k)
    return float(np.mean(overlaps))


def test_sparse_scale():
    size = FULL if bench_full_requested() else REDUCED
    top_k = max(10, int(size.dense_nodes * TOP_K_FRACTION))

    # --- dense-feasible size: speed + memory baseline + accuracy sweep ----
    adjacency = cycle_union_adjacency(size.dense_nodes, DEGREE, seed=11)
    e0_sparse = _personalization(size.dense_nodes, seed=12)
    e0_dense = e0_sparse.toarray()

    power = get_backend("power")
    sparse = get_backend("sparse")
    # Warm operator/normalization caches out of the timed region.
    power.diffuse(adjacency, e0_dense, alpha=0.5, tol=1e-2)
    sparse.diffuse(adjacency, e0_sparse, alpha=0.5, tol=1e-2)

    dense_time, dense_outcome = _time_diffusion(
        power, adjacency, e0_dense, size.repetitions
    )
    sparse_time, sparse_outcome = _time_diffusion(
        sparse, adjacency, e0_sparse, size.repetitions
    )
    speedup = dense_time / sparse_time
    overlap = _overlap(
        dense_outcome.embeddings, sparse_outcome.embeddings, top_k, seed=13
    )

    _, dense_peak = measure_peak_memory(
        lambda: power.diffuse(adjacency, e0_dense, alpha=0.5, tol=1e-8)
    )

    sweep = []
    for epsilon in EPSILON_SWEEP:
        backend = SparseDiffusionBackend(epsilon=epsilon)
        eps_time, eps_outcome = _time_diffusion(
            backend, adjacency, e0_sparse, size.repetitions
        )
        sweep.append(
            {
                "epsilon": epsilon,
                "time_s": eps_time,
                "speedup_vs_dense": dense_time / eps_time,
                "density": eps_outcome.embeddings.rows.size
                / float(size.dense_nodes * DIM),
                "overlap_top_k": _overlap(
                    dense_outcome.embeddings, eps_outcome.embeddings, top_k, seed=13
                ),
                "converged": bool(eps_outcome.converged),
            }
        )

    # --- float32 pipeline: accuracy cost + cache bytes vs float64 --------
    f32_backend = SparseDiffusionBackend(dtype=np.float32)
    f32_backend.diffuse(adjacency, e0_sparse, alpha=0.5, tol=1e-2)  # warm
    f32_time, f32_outcome = _time_diffusion(
        f32_backend, adjacency, e0_sparse, size.repetitions
    )
    f32_overlap = _overlap(
        sparse_outcome.embeddings.toarray(),
        f32_outcome.embeddings,
        top_k,
        seed=13,
    )
    f64_cache_bytes = _cache_bytes(sparse_outcome.embeddings)
    f32_cache_bytes = _cache_bytes(f32_outcome.embeddings)

    # --- 10x size: the graph only the sparse path touches ----------------
    big_adjacency = cycle_union_adjacency(size.sparse_nodes, DEGREE, seed=21)
    big_e0 = _personalization(size.sparse_nodes, seed=22)
    sparse_big = get_backend("sparse")
    sparse_big.diffuse(big_adjacency, big_e0, alpha=0.5, tol=1e-2)  # warm caches
    # Wall-clock from an untraced run: tracemalloc's per-allocation overhead
    # would otherwise inflate the timing (see measure_peak_memory).
    big_time, big_outcome = _time_diffusion(
        sparse_big, big_adjacency, big_e0, size.repetitions
    )
    _, sparse_peak = measure_peak_memory(
        lambda: sparse_big.diffuse(big_adjacency, big_e0, alpha=0.5, tol=1e-8)
    )
    scale_factor = size.sparse_nodes / size.dense_nodes
    extrapolated_dense_peak = dense_peak * scale_factor
    memory_ratio = extrapolated_dense_peak / sparse_peak
    big_density = big_outcome.embeddings.rows.size / float(size.sparse_nodes * DIM)

    lines = [
        "Sparse-first diffusion pipeline vs dense power iteration",
        f"configuration: {size.label}; dim={DIM}, degree~{DEGREE}, "
        f"{HOLDER_FRACTION:.0%} document holders, alpha=0.5, tol=1e-8, "
        f"default epsilon={SPARSE_DEFAULT_EPSILON:g}",
        f"precompute at {size.dense_nodes} nodes "
        f"(best of {size.repetitions}):",
        f"  dense power : {dense_time * 1e3:8.1f} ms   "
        f"(peak memory {dense_peak / 1e6:7.1f} MB)",
        f"  sparse      : {sparse_time * 1e3:8.1f} ms   "
        f"speedup {speedup:5.2f}x (floor {size.min_speedup}x)",
        f"  top-{top_k} overlap vs dense: {overlap:.4f} "
        f"(floor {size.min_overlap})",
        f"epsilon sweep at {size.dense_nodes} nodes "
        "(accuracy/density trade-off):",
    ]
    for entry in sweep:
        lines.append(
            f"  eps={entry['epsilon']:<7g} {entry['time_s'] * 1e3:7.1f} ms  "
            f"density {entry['density']:6.3f}  "
            f"overlap@{top_k} {entry['overlap_top_k']:.4f}"
        )
    lines += [
        f"float32 pipeline at {size.dense_nodes} nodes "
        "(SparseDiffusionBackend(dtype=float32)):",
        f"  wall-clock  : {f32_time * 1e3:8.1f} ms "
        f"(float64 sparse: {sparse_time * 1e3:.1f} ms)",
        f"  top-{top_k} overlap vs float64 sparse: {f32_overlap:.4f} "
        f"(floor {size.min_f32_overlap})",
        f"  block cache : {f32_cache_bytes / 1e6:7.2f} MB vs "
        f"{f64_cache_bytes / 1e6:.2f} MB float64 "
        f"({f64_cache_bytes / f32_cache_bytes:.2f}x smaller rows + node "
        "maps)",
        f"sparse backend at {size.sparse_nodes} nodes "
        "(dense path not attempted):",
        f"  wall-clock  : {big_time:8.2f} s (best of {size.repetitions}; "
        f"{big_outcome.iterations} sweeps, converged={big_outcome.converged})",
        f"  peak memory : {sparse_peak / 1e6:8.1f} MB; dense extrapolation "
        f"{extrapolated_dense_peak / 1e6:.1f} MB "
        f"({scale_factor:.0f}x the measured {size.dense_nodes}-node peak)",
        f"  memory ratio: {memory_ratio:8.2f}x lower than dense "
        f"(floor {size.min_memory_ratio}x)",
        f"  cached embedding density: {big_density:.4f} "
        "(block rows scored directly by the walk policy)",
    ]
    emit_report(
        "sparse_scale" if size is FULL else "sparse_scale_reduced",
        "\n".join(lines),
        data={
            "criterion": "wall_clock_speedup_and_ranking_overlap",
            "seed": 11,  # sweep graph seed; signal/scale graph use 12/21/22
            "configuration": {
                "label": size.label,
                "dense_nodes": size.dense_nodes,
                "sparse_nodes": size.sparse_nodes,
                "dim": DIM,
                "degree": DEGREE,
                "holder_fraction": HOLDER_FRACTION,
                "alpha": 0.5,
                "tol": 1e-8,
                "default_epsilon": SPARSE_DEFAULT_EPSILON,
                "repetitions": size.repetitions,
            },
            "dense": {
                "nodes": size.dense_nodes,
                "time_s": dense_time,
                "peak_memory_bytes": dense_peak,
                "iterations": dense_outcome.iterations,
            },
            "sparse_at_dense_size": {
                "nodes": size.dense_nodes,
                "time_s": sparse_time,
                "speedup_vs_dense": speedup,
                "overlap_top_k": overlap,
                "top_k": top_k,
                "iterations": sparse_outcome.iterations,
            },
            "epsilon_sweep": sweep,
            "float32_pipeline": {
                "nodes": size.dense_nodes,
                "time_s": f32_time,
                "overlap_top_k_vs_float64": f32_overlap,
                "min_overlap": size.min_f32_overlap,
                "cache_bytes_float32": f32_cache_bytes,
                "cache_bytes_float64": f64_cache_bytes,
                "cache_ratio": f64_cache_bytes / f32_cache_bytes,
                "iterations": f32_outcome.iterations,
                "converged": bool(f32_outcome.converged),
            },
            "kernels": kernel_info(),
            "sparse_at_scale": {
                "nodes": size.sparse_nodes,
                "time_s": big_time,
                "peak_memory_bytes": sparse_peak,
                "extrapolated_dense_peak_bytes": extrapolated_dense_peak,
                "memory_ratio_vs_dense_extrapolation": memory_ratio,
                "embedding_density": big_density,
                "iterations": big_outcome.iterations,
                "converged": bool(big_outcome.converged),
            },
        },
    )

    assert sparse_outcome.converged
    assert big_outcome.converged
    assert overlap >= size.min_overlap, (
        f"top-{top_k} overlap {overlap:.4f} below {size.min_overlap} at the "
        f"default epsilon {SPARSE_DEFAULT_EPSILON:g}"
    )
    assert speedup >= size.min_speedup, (
        f"sparse precompute only {speedup:.2f}x faster than dense power at "
        f"{size.dense_nodes} nodes (floor {size.min_speedup}x)"
    )
    assert memory_ratio >= size.min_memory_ratio, (
        f"sparse peak at {size.sparse_nodes} nodes only {memory_ratio:.2f}x "
        f"below the dense extrapolation (floor {size.min_memory_ratio}x)"
    )
    assert f32_outcome.converged
    assert f32_outcome.embeddings.dtype == np.float32
    assert f32_overlap >= size.min_f32_overlap, (
        f"float32 pipeline top-{top_k} overlap {f32_overlap:.4f} vs float64 "
        f"below {size.min_f32_overlap}"
    )
