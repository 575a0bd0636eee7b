"""SLO-driven refresh scheduling under sustained document churn.

A deployed diffusion index never stands still: documents are added,
moved, and deleted while queries keep arriving.  Re-diffusing on every
change is fresh but ruinous; never refreshing is free but rots.  This
example walks the middle path from ``repro.churn``:

1. a seeded :class:`~repro.churn.ChurnStream` generates a deterministic
   mixed stream of doc add/move/delete and node join/leave events;
2. a :class:`~repro.churn.StalenessTracker` (inside
   :class:`~repro.churn.SignalChurnState`) maintains a *cheap, sound*
   upper bound on the L1 error of the served scores — no diffusion runs
   to know how stale we are;
3. a :class:`~repro.churn.RefreshScheduler` picks defer / incremental /
   full per tick from the bound's refreshable part, a fitted
   :class:`~repro.churn.RefreshCostModel`, and a banked edge-op budget,
   degrading explicitly (counted SLO violations) when starved.

Run: ``python examples/churn_slo.py``
"""

import numpy as np

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

SEED = 17
N_NODES = 200
N_DOCS = 60
ALPHA = 0.5
TOL = 1e-8
N_EVENTS = 400
EVENTS_PER_TICK = 4
STALENESS_TARGET = 2.0  # L1 units of tolerated score error


def main() -> None:
    adjacency = CompressedAdjacency.from_networkx(
        connected_watts_strogatz(N_NODES, 6, 0.2, seed=SEED)
    )
    operator = transition_matrix(adjacency, "column")
    rng = np.random.default_rng(SEED)
    placement = {f"doc-{d}": int(rng.integers(N_NODES)) for d in range(N_DOCS)}

    stream = ChurnStream(
        N_NODES,
        ChurnRates(doc_add=1.0, doc_move=6.0, doc_delete=1.0,
                   node_leave=0.1, node_join=0.1),
        initial_placement=placement,
        seed=SEED,
    )
    events = stream.events(n=N_EVENTS)
    print(f"{len(events)} churn events over a {N_NODES}-node overlay")

    # Warm up: one converged diffusion establishes the served baseline.
    refresher = SignalRefresher(operator, ALPHA, tol=TOL)
    state = SignalChurnState(N_NODES, initial_placement=placement)
    warmup = refresher.cold_start(state.signal.copy())
    served = warmup.scores
    state.commit_refresh(warmup.residual_l1, full=True)
    full_cost = refresher.cost_estimate("full")
    print(f"warm-up diffusion: {warmup.edge_operations:,d} edge ops\n")

    # The scheduler shares the refresher's own cost model — one pricing
    # brain for both estimation and execution.
    scheduler = RefreshScheduler(
        RefreshSLO(
            staleness_target=STALENESS_TARGET,
            refresh_budget_per_tick=0.6 * full_cost,
            max_banked_ticks=10.0,
        ),
        refresher.cost_model,
    )

    exact_filter = PersonalizedPageRank(ALPHA, method="solve")
    print("tick  action       bound   true err  edge-ops")
    for tick in range(0, len(events), EVENTS_PER_TICK):
        for event in events[tick:tick + EVENTS_PER_TICK]:
            state.apply(event)
        scheduler.tick()
        decision = scheduler.decide(state.refreshable(), state.dirty_mass)
        ops = 0
        if decision.action != "defer":
            outcome = refresher.refresh(
                decision.action, served, state.baseline, state.signal
            )
            served = outcome.scores
            state.commit_refresh(
                outcome.residual_l1, full=decision.action == "full"
            )
            scheduler.commit(decision, outcome.edge_operations)
            ops = outcome.edge_operations
        exact = exact_filter.apply(operator, state.signal)
        true_error = float(np.abs(served - exact).sum())
        assert state.bound() >= true_error - 1e-9, "bound must stay sound"
        print(
            f"{tick // EVENTS_PER_TICK:4d}  {decision.action:<11} "
            f"{state.bound():7.3f}  {true_error:8.3f}  {ops:9,d}"
        )

    summary = scheduler.summary()
    every_tick = summary["ticks"] * full_cost
    print(
        f"\nscheduler: {summary['decisions']} over {summary['ticks']} ticks, "
        f"{summary['slo_violations']} SLO violations"
    )
    print(
        f"refresh spend: {summary['total_refresh_operations']:,d} edge ops "
        f"vs {every_tick:,.0f} for full-every-tick "
        f"({summary['total_refresh_operations'] / every_tick:.2f}x)"
    )


if __name__ == "__main__":
    main()
