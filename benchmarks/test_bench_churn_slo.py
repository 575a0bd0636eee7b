"""Benchmark: SLO-driven refresh scheduling under sustained churn.

The claim committed by this bench: under a sustained churn stream
(10⁵+ events in full mode) the :class:`repro.churn.RefreshScheduler` —
deciding defer / incremental / full per tick from the
:class:`~repro.churn.StalenessTracker` bound and the fitted
:class:`~repro.churn.RefreshCostModel` — holds serving quality
(overlap@100 of served vs exact diffusion scores ≥ 0.95 at every
checkpoint) at measurably lower refresh cost (total edge operations)
than refreshing fully on every tick, while the never-refresh baseline
drops below that quality floor.  Alongside, the tracker's cheap bound is
validated against ground truth: at every checkpoint it must dominate the
true L1 error of the SLO policy's served scores.

Four policies replay the *same* deterministic event sequence on the
scalar relevance signal (one diffusable weight per node, the harness of
:class:`repro.simulation.refresh.SignalRefresher`):

* ``stale``     — warm up once, never refresh (free, rots);
* ``full``      — re-diffuse from scratch every tick (fresh, O(network)/tick);
* ``slo``       — the scheduler, with a banked per-tick edge-op budget;
* ``slo_tight`` — the scheduler starved of budget, to show the explicit
  degradation path (stale serving with a stamped, still-sound bound).

Reduced mode (default; the CI ``churn-smoke`` step) runs a small overlay;
full mode (``REPRO_BENCH_CHURN_FULL=1`` or ``REPRO_FULL=1``) the
committed 10⁵-event scale.  Results land in
``benchmarks/results/churn_slo{,_reduced}.{txt,json}``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from benchmarks.conftest import emit_report, measure_peak_memory
from repro.churn import (
    ChurnRates,
    ChurnStream,
    RefreshSLO,
    RefreshScheduler,
    SignalChurnState,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.simulation.refresh import SignalRefresher

BENCH_FULL_ENV = "REPRO_BENCH_CHURN_FULL"

ALPHA = 0.5
TOL = 1e-8
OVERLAP_K = 100
SEED = 71  # one seed drives graph, placement, and churn generation
OVERLAP_FLOOR = 0.95
# The SLO path must spend measurably less than full-every-tick, not
# marginally less: at most this fraction of its edge operations.
SLO_COST_CEILING = 0.7

RATES = ChurnRates(
    doc_add=1.0,
    doc_move=6.0,
    doc_delete=1.0,
    node_leave=0.1,
    node_join=0.1,
)


def bench_full_requested() -> bool:
    flag = os.environ.get(BENCH_FULL_ENV, "").strip()
    if flag in ("1", "true", "yes"):
        return True
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


@dataclass(frozen=True)
class BenchSize:
    label: str
    n_nodes: int
    degree: int
    n_docs: int
    n_events: int
    events_per_tick: int
    checkpoint_every: int  # ticks between exact-solve checkpoints
    staleness_target: float  # L1 score-error units
    budget_fraction: float  # per-tick budget as a fraction of one full run
    tight_budget_fraction: float  # the deliberately starved variant
    max_banked_ticks: float


REDUCED = BenchSize(
    label="reduced (400 nodes, 2.5k events)",
    n_nodes=400,
    degree=6,
    n_docs=120,
    n_events=2_500,
    events_per_tick=5,
    checkpoint_every=50,
    staleness_target=2.0,
    budget_fraction=0.8,
    tight_budget_fraction=0.05,
    max_banked_ticks=20.0,
)
FULL = BenchSize(
    label="full (1k nodes, 100k events)",
    n_nodes=1_000,
    degree=6,
    n_docs=300,
    n_events=100_000,
    # Small ticks keep per-tick dirty mass (~7 L1 units) well below the
    # incremental/full crossover: the push intercept (sweeps to drain any
    # delta to tol) dominates incremental cost, so large batches erode
    # the saving while tiny ones just multiply the tick count.
    events_per_tick=4,
    checkpoint_every=1_250,
    staleness_target=2.0,
    budget_fraction=0.8,
    tight_budget_fraction=0.05,
    max_banked_ticks=20.0,
)


def _build(size: BenchSize):
    """Operator, initial placement, and the deterministic churn stream."""
    adjacency = CompressedAdjacency.from_networkx(
        connected_watts_strogatz(size.n_nodes, size.degree, 0.2, seed=SEED)
    )
    operator = transition_matrix(adjacency, "column")
    rng = np.random.default_rng(SEED)
    placement = {
        f"doc-{d}": int(rng.integers(size.n_nodes)) for d in range(size.n_docs)
    }
    stream = ChurnStream(
        size.n_nodes, RATES, initial_placement=placement, seed=SEED
    )
    events = stream.events(n=size.n_events)
    return operator, placement, events


def _ticks(events, per_tick):
    for start in range(0, len(events), per_tick):
        yield events[start:start + per_tick]


def _overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    top_a = set(np.argsort(-a)[:k].tolist())
    top_b = set(np.argsort(-b)[:k].tolist())
    return len(top_a & top_b) / k


def _run_policy(policy: str, size: BenchSize, operator, placement, events):
    """Replay the event stream under one refresh policy.

    Returns per-checkpoint quality records plus total refresh cost.  The
    exact reference at each checkpoint is a direct linear solve of the
    current signal — ground truth, charged to nobody.
    """
    exact_filter = PersonalizedPageRank(ALPHA, method="solve")
    refresher = SignalRefresher(operator, ALPHA, tol=TOL)
    state = SignalChurnState(size.n_nodes, initial_placement=placement)
    warmup = refresher.cold_start(state.signal.copy())
    served = warmup.scores
    state.commit_refresh(warmup.residual_l1, full=True)
    edge_ops = warmup.edge_operations

    scheduler = None
    if policy in ("slo", "slo_tight"):
        fraction = (
            size.budget_fraction
            if policy == "slo"
            else size.tight_budget_fraction
        )
        full_cost = refresher.cost_estimate("full")
        scheduler = RefreshScheduler(
            RefreshSLO(
                staleness_target=size.staleness_target,
                refresh_budget_per_tick=fraction * full_cost,
                max_banked_ticks=size.max_banked_ticks,
            ),
            refresher.cost_model,  # the refresher's own fit — one pricing brain
        )

    checkpoints = []
    for tick, batch in enumerate(_ticks(events, size.events_per_tick), 1):
        for event in batch:
            state.apply(event)
        if policy == "full":
            outcome = refresher.refresh(
                "full", served, state.baseline, state.signal
            )
            served = outcome.scores
            state.commit_refresh(outcome.residual_l1, full=True)
            edge_ops += outcome.edge_operations
        elif scheduler is not None:
            scheduler.tick()
            decision = scheduler.decide(state.refreshable(), state.dirty_mass)
            if decision.action != "defer":
                outcome = refresher.refresh(
                    decision.action, served, state.baseline, state.signal
                )
                served = outcome.scores
                state.commit_refresh(
                    outcome.residual_l1, full=decision.action == "full"
                )
                scheduler.commit(decision, outcome.edge_operations)
                edge_ops += outcome.edge_operations
        if tick % size.checkpoint_every == 0:
            exact = exact_filter.apply(operator, state.signal)
            checkpoints.append(
                {
                    "tick": tick,
                    "events": tick * size.events_per_tick,
                    "overlap": _overlap(served, exact, OVERLAP_K),
                    "true_l1_error": float(np.abs(served - exact).sum()),
                    "bound": state.bound(),
                }
            )
    return {
        "policy": policy,
        "edge_operations": int(edge_ops),
        "warmup_edge_operations": int(warmup.edge_operations),
        "checkpoints": checkpoints,
        "min_overlap": min(c["overlap"] for c in checkpoints),
        "scheduler": scheduler.summary() if scheduler is not None else None,
    }


def test_churn_slo_scheduling():
    size = FULL if bench_full_requested() else REDUCED
    wall_start = time.perf_counter()
    operator, placement, events = _build(size)

    def drive():
        return {
            policy: _run_policy(policy, size, operator, placement, events)
            for policy in ("stale", "full", "slo", "slo_tight")
        }

    results, peak_memory = measure_peak_memory(drive)
    wall_seconds = time.perf_counter() - wall_start

    stale, full, slo = results["stale"], results["full"], results["slo"]
    tight = results["slo_tight"]
    cost_ratio = slo["edge_operations"] / full["edge_operations"]
    sched = slo["scheduler"]

    # ---- report ------------------------------------------------------------
    lines = [
        "SLO-driven refresh scheduling under sustained churn",
        f"configuration: {size.label}; degree~{size.degree}, alpha={ALPHA}, "
        f"tol={TOL:g}, seed={SEED}",
        f"churn: {size.n_events} events "
        f"(rates: add={RATES.doc_add}, move={RATES.doc_move}, "
        f"delete={RATES.doc_delete}, leave={RATES.node_leave}, "
        f"join={RATES.node_join}), {size.events_per_tick} events/tick",
        f"SLO: staleness_target={size.staleness_target} (L1), per-tick "
        f"budget={size.budget_fraction:.2f} x full-run cost, "
        f"bank cap={size.max_banked_ticks:g} ticks",
        "",
        "policy      edge-ops (x warmup) | min overlap@100 | verdict",
    ]
    tight_ratio = tight["edge_operations"] / full["edge_operations"]
    verdicts = {
        "stale": "quality floor violated (expected)",
        "full": "fresh every tick (cost ceiling)",
        "slo": f"scheduled ({cost_ratio:.2f}x full-every-tick cost)",
        "slo_tight": (
            f"starved budget ({tight_ratio:.2f}x): explicit degradation"
        ),
    }
    for record in (stale, full, slo, tight):
        ops = record["edge_operations"]
        rel = ops / record["warmup_edge_operations"]
        lines.append(
            f"  {record['policy']:<9} {ops:>12,d} ({rel:6.1f}x) | "
            f"{record['min_overlap']:15.3f} | "
            + verdicts[record["policy"]]
        )
    lines += [
        "",
        f"scheduler: {sched['decisions']} over {sched['ticks']} ticks, "
        f"{sched['slo_violations']} SLO violations (served stale, stamped), "
        f"{sched['total_refresh_operations']:,d} refresh edge-ops",
        f"starved scheduler: {tight['scheduler']['decisions']}, "
        f"{tight['scheduler']['slo_violations']} SLO violations",
        "",
        "SLO-policy checkpoints (bound must dominate true error):",
        "    events |  overlap@100 | true L1 error |  bound",
    ]
    for check in slo["checkpoints"]:
        lines.append(
            f"  {check['events']:>8d} | {check['overlap']:12.3f} | "
            f"{check['true_l1_error']:13.4g} | {check['bound']:8.4g}"
        )
    lines.append(
        f"\nwall time {wall_seconds:.1f}s; peak memory "
        f"{peak_memory / 1e6:.1f} MB (all four replays)"
    )

    emit_report(
        "churn_slo" if size is FULL else "churn_slo_reduced",
        "\n".join(lines),
        data={
            "configuration": {
                "label": size.label,
                "n_nodes": size.n_nodes,
                "degree": size.degree,
                "n_docs": size.n_docs,
                "n_events": size.n_events,
                "events_per_tick": size.events_per_tick,
                "checkpoint_every": size.checkpoint_every,
                "alpha": ALPHA,
                "tol": TOL,
                "overlap_k": OVERLAP_K,
                "rates": {
                    "doc_add": RATES.doc_add,
                    "doc_move": RATES.doc_move,
                    "doc_delete": RATES.doc_delete,
                    "node_leave": RATES.node_leave,
                    "node_join": RATES.node_join,
                },
                "slo": {
                    "staleness_target": size.staleness_target,
                    "budget_fraction": size.budget_fraction,
                    "max_banked_ticks": size.max_banked_ticks,
                },
            },
            "seed": SEED,
            "criterion": "edge_operations_vs_overlap_at_100",
            "peak_memory_bytes": peak_memory,
            "wall_seconds": wall_seconds,
            "policies": results,
            "slo_cost_ratio_to_full": cost_ratio,
        },
    )

    # ---- acceptance --------------------------------------------------------
    # The scheduler holds the quality floor ...
    assert slo["min_overlap"] >= OVERLAP_FLOOR, (
        f"SLO policy violated the overlap floor: {slo['min_overlap']:.3f} "
        f"< {OVERLAP_FLOOR}"
    )
    # ... at measurably lower refresh cost than refreshing every tick ...
    assert cost_ratio < SLO_COST_CEILING, (
        f"SLO policy spent {cost_ratio:.2f}x of full-every-tick edge ops "
        f"(ceiling {SLO_COST_CEILING}): scheduling saved nothing"
    )
    # ... while never refreshing rots below the floor (the floor is real).
    assert stale["min_overlap"] < OVERLAP_FLOOR, (
        f"stale-only still at overlap {stale['min_overlap']:.3f}: churn too "
        "weak to discriminate policies"
    )
    # The cheap staleness bound is sound: it dominates the true L1 error of
    # the served scores at every checkpoint — including under starvation,
    # where serving stale is only honest if the stamped bound still holds.
    for record in (slo, tight):
        for check in record["checkpoints"]:
            assert check["bound"] >= check["true_l1_error"] - 1e-9, (
                f"staleness bound {check['bound']:.4g} under-reports true "
                f"error {check['true_l1_error']:.4g} at "
                f"{check['events']} events ({record['policy']})"
            )
    # Starving the budget forces explicit degradation: violations are
    # counted, not hidden, and quality trails the funded scheduler.
    assert tight["scheduler"]["slo_violations"] > 0
    assert tight["min_overlap"] <= slo["min_overlap"]
    # Full-every-tick stays essentially exact — the cost ceiling we beat is
    # a real quality ceiling too.
    assert full["min_overlap"] >= 0.99
