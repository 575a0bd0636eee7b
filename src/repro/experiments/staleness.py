"""Time-evolving conditions: search accuracy under stale diffusion state.

The paper defers "time-evolving conditions" to future work (§V-B).  This
experiment quantifies the cost of staleness: documents keep moving after the
diffusion warm-up, and queries route on embeddings computed for the *old*
placement.  The sweep re-places a growing fraction of the documents without
re-diffusing and measures the top-1 hit rate, answering the operational
question "how often must the network re-diffuse?".

:func:`refresh_strategy_sweep` extends the question to *how* to re-diffuse:
alongside the do-nothing baseline it measures the accuracy and cost of a
full re-diffusion versus the incremental push refresh
(:mod:`repro.simulation.refresh`), which patches the old scores from the
sparse change alone.

Usage::

    python -m repro.experiments.staleness [--full] [--iterations N] [--refresh]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.batch import run_queries
from repro.core.engine import WalkConfig
from repro.core.forwarding import PrecomputedScorePolicy
from repro.experiments.common import get_environment, resolve_full
from repro.simulation.placement import build_stores
from repro.simulation.refresh import REFRESH_STRATEGIES, SignalRefresher
from repro.simulation.reporting import format_rows
from repro.utils.rng import spawn_rngs

DEFAULT_STALE_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 1.0)


def _flatten_stores(stores):
    """Flatten per-node stores into aligned (doc_ids, embeddings, nodes)."""
    doc_ids, embeddings, nodes = [], [], []
    for node, store in stores.items():
        for doc_id in store.doc_ids:
            doc_ids.append(doc_id)
            embeddings.append(store.embedding_of(doc_id))
            nodes.append(node)
    return doc_ids, np.vstack(embeddings), np.asarray(nodes, dtype=np.int64)


def _move_fraction(nodes, fraction, n, rng):
    """Re-place a ``fraction`` of the documents on uniform random nodes."""
    moved_nodes = nodes.copy()
    n_moved = int(round(fraction * nodes.size))
    if n_moved:
        which = rng.choice(nodes.size, size=n_moved, replace=False)
        moved_nodes[which] = rng.integers(0, n, size=n_moved)
    return moved_nodes


def staleness_sweep(
    *,
    n_documents: int = 1000,
    stale_fractions: tuple[float, ...] = DEFAULT_STALE_FRACTIONS,
    alpha: float = 0.5,
    ttl: int = 50,
    starts_per_iteration: int = 4,
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Hit rate when a fraction of documents moved after the last diffusion.

    ``stale_fraction = 0`` is the paper's setting (fresh diffusion);
    ``1.0`` means every document — including the gold — moved, so the
    diffusion hints describe a placement that no longer exists.
    """
    from repro.simulation.runner import IterationSampler

    env = get_environment(full)
    if iterations is None:
        iterations = 150 if full else 50
    sampler = IterationSampler(env.adjacency, env.workload)
    config = WalkConfig(ttl=ttl, fanout=1, k=1)
    n = env.adjacency.n_nodes

    successes = {fraction: 0 for fraction in stale_fractions}
    total = 0
    for rng in spawn_rngs(53, iterations):
        data = sampler.sample(n_documents, rng)
        # Diffusion runs on the original placement...
        scores = sampler.diffuse_scores(data.relevance_signal, alpha)
        policy = PrecomputedScorePolicy(scores)

        # ...then documents move. Rebuild the true stores per fraction.
        doc_ids, embeddings, nodes = _flatten_stores(data.stores)

        starts = rng.integers(0, n, size=starts_per_iteration)
        total += starts_per_iteration
        for fraction in stale_fractions:
            moved_nodes = _move_fraction(nodes, fraction, n, rng)
            stores = build_stores(doc_ids, embeddings, moved_nodes, env.model.dim)
            # paired design: identical starts across fractions cut variance
            results = run_queries(
                env.adjacency, stores, policy, data.query_embedding, starts, config
            )
            successes[fraction] += sum(
                result.found(data.gold_word, top=1) for result in results
            )

    return [
        {
            "stale fraction": fraction,
            "success rate": round(successes[fraction] / total, 3),
        }
        for fraction in stale_fractions
    ]


def refresh_strategy_sweep(
    *,
    n_documents: int = 1000,
    stale_fractions: tuple[float, ...] = DEFAULT_STALE_FRACTIONS,
    strategies: tuple[str, ...] = REFRESH_STRATEGIES,
    alpha: float = 0.5,
    ttl: int = 50,
    starts_per_iteration: int = 4,
    full: bool = False,
    iterations: int | None = None,
    tol: float = 1e-8,
) -> list[dict[str, object]]:
    """Accuracy *and cost* of each refresh strategy as churn grows.

    After a fraction of the documents moves, the network can keep the stale
    scores, re-diffuse from scratch, or push only the delta.  Returns one
    row per (stale fraction, strategy) with the top-1 hit rate and the mean
    refresh cost in push sweeps / edge operations; ``full`` and
    ``incremental`` restore identical accuracy, so the edge-operation
    column is the decision-relevant number.
    """
    from repro.simulation.runner import IterationSampler

    env = get_environment(full)
    if iterations is None:
        iterations = 150 if full else 50
    sampler = IterationSampler(env.adjacency, env.workload)
    refresher = SignalRefresher(sampler.operator, alpha, tol=tol)
    config = WalkConfig(ttl=ttl, fanout=1, k=1)
    n = env.adjacency.n_nodes

    successes = {(f, s): 0 for f in stale_fractions for s in strategies}
    sweeps = {(f, s): 0 for f in stale_fractions for s in strategies}
    operations = {(f, s): 0 for f in stale_fractions for s in strategies}
    total = 0
    n_refreshes = 0
    for rng in spawn_rngs(53, iterations):
        data = sampler.sample(n_documents, rng)
        base = refresher.cold_start(data.relevance_signal)

        doc_ids, embeddings, nodes = _flatten_stores(data.stores)
        doc_scores = embeddings @ data.query_embedding

        starts = rng.integers(0, n, size=starts_per_iteration)
        total += starts_per_iteration
        n_refreshes += 1
        for fraction in stale_fractions:
            moved_nodes = _move_fraction(nodes, fraction, n, rng)
            stores = build_stores(doc_ids, embeddings, moved_nodes, env.model.dim)
            # The moved placement's relevance signal ("sum" weighting).
            moved_signal = np.bincount(
                moved_nodes, weights=doc_scores, minlength=n
            )
            for strategy in strategies:
                outcome = refresher.refresh(
                    strategy, base.scores, data.relevance_signal, moved_signal
                )
                sweeps[fraction, strategy] += outcome.sweeps
                operations[fraction, strategy] += outcome.edge_operations
                policy = PrecomputedScorePolicy(outcome.scores)
                results = run_queries(
                    env.adjacency, stores, policy,
                    data.query_embedding, starts, config,
                )
                successes[fraction, strategy] += sum(
                    result.found(data.gold_word, top=1) for result in results
                )

    return [
        {
            "stale fraction": fraction,
            "strategy": strategy,
            "success rate": round(successes[fraction, strategy] / total, 3),
            "mean sweeps": round(sweeps[fraction, strategy] / n_refreshes, 1),
            "mean edge ops": round(
                operations[fraction, strategy] / n_refreshes, 1
            ),
        }
        for fraction in stale_fractions
        for strategy in strategies
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--documents", type=int, default=1000)
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="compare refresh strategies (stale / incremental / full) "
        "instead of the plain staleness sweep",
    )
    args = parser.parse_args(argv)
    if args.refresh:
        rows = refresh_strategy_sweep(
            n_documents=args.documents,
            full=resolve_full(args.full),
            iterations=args.iterations,
        )
        title = (
            f"refresh strategies under churn, M={args.documents}, alpha=0.5 "
            "(full vs incremental push re-diffusion)"
        )
    else:
        rows = staleness_sweep(
            n_documents=args.documents,
            full=resolve_full(args.full),
            iterations=args.iterations,
        )
        title = (
            f"search under stale diffusion state, M={args.documents}, "
            "alpha=0.5 (paper future work: time-evolving conditions)"
        )
    print(format_rows(rows, title=title))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
