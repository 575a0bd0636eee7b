"""Benchmarks: ablations of the paper's design choices.

Each bench regenerates one ablation table: the alpha continuum, parallel
walks, top-k tracking, document placement, and personalization weighting.
"""

import pytest

from benchmarks.conftest import emit_report
from repro.experiments.ablations import (
    alpha_sweep,
    fanout_sweep,
    multi_gold_recall,
    personalization_comparison,
    placement_comparison,
    topk_sweep,
)
from repro.simulation.reporting import format_rows


def test_alpha_sweep(benchmark, env, bench_iterations):
    """The noise-vs-reach trade-off (§V-C) on a fine alpha grid."""
    rows = benchmark.pedantic(
        lambda: alpha_sweep(n_documents=1000, iterations=bench_iterations),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_alpha_sweep",
        format_rows(rows, title="alpha sweep, M=1000 (paper samples 0.1/0.5/0.9)"),
        data={"n_documents": 1000, "iterations": bench_iterations, "rows": rows},
    )
    assert len(rows) == 8
    assert all(0 <= row["success rate"] <= 1 for row in rows)


def test_fanout_sweep(benchmark, env, bench_iterations):
    """Parallel walks (paper future work): success vs message cost."""
    rows = benchmark.pedantic(
        lambda: fanout_sweep(n_documents=1000, iterations=bench_iterations),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_fanout",
        format_rows(rows, title="parallel walks, M=1000"),
        data={"n_documents": 1000, "iterations": bench_iterations, "rows": rows},
    )
    by_fanout = {row["fanout"]: row["success rate"] for row in rows}
    # more walkers never hurt accuracy (they strictly add coverage)
    assert by_fanout[4] >= by_fanout[1] - 0.05


def test_topk_sweep(benchmark, env, bench_iterations):
    """Top-k tracking (paper future work): k=1 vs 5 vs 10."""
    rows = benchmark.pedantic(
        lambda: topk_sweep(n_documents=1000, iterations=bench_iterations),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_topk",
        format_rows(rows, title="top-k tracking, M=1000"),
        data={"n_documents": 1000, "iterations": bench_iterations, "rows": rows},
    )
    for row in rows:
        assert row["top-k hit rate"] >= row["top-1 hit rate"]


def test_multi_gold_recall(benchmark, env, bench_iterations):
    """Top-k recall with several golds in the network (paper future work)."""
    rows = benchmark.pedantic(
        lambda: multi_gold_recall(
            n_documents=1000, k=5, iterations=bench_iterations
        ),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_multigold",
        format_rows(rows, title="multi-gold top-5 recall, M=1000, TTL=50"),
        data={
            "n_documents": 1000,
            "k": 5,
            "iterations": bench_iterations,
            "rows": rows,
        },
    )
    assert rows[0]["any-gold hit rate"] >= rows[0]["recall@budget"]


def test_placement_comparison(benchmark, env, bench_iterations):
    """Uniform vs community-correlated placement (§V-B conjecture)."""
    rows = benchmark.pedantic(
        lambda: placement_comparison(
            n_documents=1000, iterations=bench_iterations
        ),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_placement",
        format_rows(
            rows,
            title="uniform vs correlated placement, M=1000, alpha=0.5 "
            "(paper: correlation is expected to aid diffusion)",
        ),
        data={"n_documents": 1000, "iterations": bench_iterations, "rows": rows},
    )
    assert {row["placement"] for row in rows} == {"uniform", "correlated"}


def test_personalization_comparison(benchmark, env, bench_iterations):
    """Sum (paper) vs mean/sqrt/l2 weightings (§IV-A risk discussion)."""
    rows = benchmark.pedantic(
        lambda: personalization_comparison(
            n_documents=1000, iterations=bench_iterations
        ),
        rounds=1,
        iterations=1,
    )
    emit_report(
        "ablation_personalization",
        format_rows(rows, title="personalization weighting, M=1000"),
        data={"n_documents": 1000, "iterations": bench_iterations, "rows": rows},
    )
    assert {row["weighting"] for row in rows} == {"sum", "mean", "sqrt", "l2"}
