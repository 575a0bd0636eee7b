"""Benchmark: batched vs scalar-loop execution of the Fig. 3 hot path.

Runs the same accuracy experiment (3 alphas x distances 0-8, TTL 50) twice —
once through the original one-walk-at-a-time driver (``engine="scalar"``)
and once through the batched pipeline (``run_queries`` lockstep walks +
multi-column diffusion) — and asserts both that the grids are identical and
that the batched pipeline is decisively faster.

Two sizes:

* reduced (default; the CI smoke job and the plain test suite): a 300-node
  graph and few iterations, finishing in well under a second, asserting a
  conservative >= 2x so perf regressions in the batch path fail loudly
  without flaking on slow runners.
* full (``REPRO_BENCH_BATCH_FULL=1`` or ``REPRO_FULL=1``): the issue's
  target configuration — 1000 nodes, TTL 50 — asserting the >= 5x
  end-to-end speedup recorded in ``benchmarks/results/batch_engine.txt``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from benchmarks.conftest import emit_report, measure_peak_memory
from repro.experiments.common import full_requested
from repro.kernels import kernel_info
from repro.embeddings.synthetic import SyntheticCorpusConfig, synthetic_word_embeddings
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.simulation.runner import run_accuracy_experiment
from repro.simulation.scenario import AccuracyScenario
from repro.simulation.workload import build_workload

BENCH_FULL_ENV = "REPRO_BENCH_BATCH_FULL"


def bench_full_requested() -> bool:
    flag = os.environ.get(BENCH_FULL_ENV, "").strip()
    return flag in ("1", "true", "yes") or full_requested()


@dataclass(frozen=True)
class BenchSize:
    label: str
    n_nodes: int
    target_edges: int
    n_documents: int
    iterations: int
    repetitions: int
    min_speedup: float


REDUCED = BenchSize(
    label="reduced (300 nodes)",
    n_nodes=300,
    target_edges=6600,
    n_documents=40,
    iterations=8,
    repetitions=2,
    min_speedup=2.0,
)
# The committed measurement (benchmarks/results/batch_engine.txt) exceeds
# the issue's 5x target; the assertion floor sits below it so that ±15%
# machine noise (observed on shared runners) cannot fail a healthy build,
# while a real regression in the batch path still does.
FULL = BenchSize(
    label="full (1000 nodes, issue target)",
    n_nodes=1000,
    target_edges=22000,
    n_documents=100,
    iterations=30,
    repetitions=4,
    min_speedup=4.0,
)


def _build_setting(size: BenchSize):
    graph = facebook_like_graph(
        FacebookLikeConfig(
            n_nodes=size.n_nodes, target_edges=size.target_edges, n_egos=8
        ),
        seed=11,
    )
    adjacency = CompressedAdjacency.from_networkx(graph)
    model = synthetic_word_embeddings(
        SyntheticCorpusConfig(
            n_words=6000, dim=128, n_clusters=400, intra_cluster_cosine=0.72
        ),
        seed=12,
    )
    workload = build_workload(model, n_queries=100, threshold=0.6, seed=13)
    scenario = AccuracyScenario(
        n_documents=size.n_documents,
        alphas=(0.1, 0.5, 0.9),
        max_distance=8,
        ttl=50,
        iterations=size.iterations,
        seed=0,
    )
    return adjacency, workload, scenario


def _time_engine(adjacency, workload, scenario, engine, repetitions) -> tuple[float, object]:
    best = float("inf")
    grid = None
    for _ in range(repetitions):
        started = time.perf_counter()
        grid = run_accuracy_experiment(adjacency, workload, scenario, engine=engine)
        best = min(best, time.perf_counter() - started)
    return best, grid


def test_batch_engine_speedup():
    size = FULL if bench_full_requested() else REDUCED
    adjacency, workload, scenario = _build_setting(size)

    # Warm both pipelines (operator caches, LU factorization, imports) so
    # the measurement reflects steady-state per-iteration cost.
    warm = AccuracyScenario(
        n_documents=size.n_documents, alphas=scenario.alphas, iterations=1, seed=1
    )
    run_accuracy_experiment(adjacency, workload, warm)
    run_accuracy_experiment(adjacency, workload, warm, engine="scalar")

    scalar_time, scalar_grid = _time_engine(
        adjacency, workload, scenario, "scalar", size.repetitions
    )
    batch_time, batch_grid = _time_engine(
        adjacency, workload, scenario, "batch", size.repetitions
    )
    speedup = scalar_time / batch_time
    # Peak memory of one driver run per engine (untimed pass: tracemalloc
    # adds a few percent of overhead, so it never touches the speed numbers).
    _, scalar_peak = measure_peak_memory(
        lambda: run_accuracy_experiment(
            adjacency, workload, scenario, engine="scalar"
        )
    )
    _, batch_peak = measure_peak_memory(
        lambda: run_accuracy_experiment(adjacency, workload, scenario)
    )
    walks = sum(scalar_grid.samples.values())
    success_gap = sum(
        abs(batch_grid.successes.get(key, 0) - scalar_grid.successes.get(key, 0))
        for key in set(batch_grid.samples) | set(scalar_grid.samples)
    )

    # Separate files per size, so routine reduced-mode runs (tier-1, CI
    # smoke) never overwrite the committed full-size measurement.
    report_name = "batch_engine" if size is FULL else "batch_engine_reduced"
    emit_report(
        report_name,
        "\n".join(
            [
                "Fig. 3 accuracy driver: batched vs scalar-loop execution",
                f"configuration: {size.label}",
                f"  graph: {adjacency.n_nodes} nodes / {adjacency.n_edges} edges",
                f"  scenario: M={scenario.n_documents} documents, "
                f"alphas={scenario.alphas}, distances 0-{scenario.max_distance}, "
                f"TTL {scenario.ttl}, {scenario.iterations} iterations "
                f"({walks} walks total)",
                f"  scalar loop : {scalar_time * 1e3:8.1f} ms "
                f"(best of {size.repetitions}; peak memory "
                f"{scalar_peak / 1e6:.1f} MB)",
                f"  batched     : {batch_time * 1e3:8.1f} ms "
                f"(best of {size.repetitions}; peak memory "
                f"{batch_peak / 1e6:.1f} MB)",
                f"  speedup     : {speedup:8.2f}x (floor {size.min_speedup}x)",
                "grids identical: "
                f"{batch_grid.successes == scalar_grid.successes} "
                f"(success-count gap {success_gap} of {walks} walks)",
                "batched pipeline = run_queries lockstep walks "
                "+ one multi-column diffusion per iteration "
                "(cached sparse-LU solve, one factorization per alpha)",
                f"kernel backend: {kernel_info()['backend']} "
                "(repro.kernels.dispatch)",
            ]
        ),
        data={
            "criterion": "wall_clock_speedup",
            "kernels": kernel_info(),
            "seed": 11,  # graph seed; embeddings/workload use 12/13
            "configuration": {
                "label": size.label,
                "n_nodes": adjacency.n_nodes,
                "n_edges": adjacency.n_edges,
                "n_documents": size.n_documents,
                "alphas": list(scenario.alphas),
                "ttl": scenario.ttl,
                "iterations": scenario.iterations,
                "repetitions": size.repetitions,
                "walks": int(walks),
            },
            "scalar": {
                "time_s": scalar_time,
                "peak_memory_bytes": scalar_peak,
            },
            "batch": {"time_s": batch_time, "peak_memory_bytes": batch_peak},
            "speedup": speedup,
            "min_speedup": size.min_speedup,
            "grids_identical": batch_grid.successes == scalar_grid.successes,
            "success_count_gap": int(success_gap),
        },
    )

    # Correctness first: the batched pipeline must reproduce the scalar
    # driver's grid.  Sample counts are structurally identical; success
    # counts have been identical in every observed run, but the batch path's
    # exact multi-column solve only agrees with the scalar power iteration
    # to ~1e-10, so a tiny cross-platform slack guards against a near-tie
    # argmax flip masquerading as a benchmark failure.
    assert batch_grid.samples == scalar_grid.samples
    assert success_gap <= max(1, walks // 100), (
        f"batched grid diverged from scalar grid: {success_gap} of {walks} "
        "walk outcomes differ"
    )
    # Then speed: regressions in the batch path fail loudly.
    assert speedup >= size.min_speedup, (
        f"batched driver only {speedup:.2f}x faster than the scalar loop "
        f"(floor {size.min_speedup}x at {size.label})"
    )
