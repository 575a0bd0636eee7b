"""Ablation studies around the paper's design choices.

Each function isolates one knob the paper discusses qualitatively:

* ``alpha_sweep`` — the noise-vs-reach trade-off of §V-C on a continuum of
  teleport probabilities (the paper samples only {0.1, 0.5, 0.9}).
* ``fanout_sweep`` — parallel walks (named future work in §V-B).
* ``topk_sweep`` — top-k retrieval beyond the paper's top-1 (future work).
* ``placement_comparison`` — uniform vs community-correlated documents
  (§V-B conjectures correlation "is expected to aid diffusion").
* ``personalization_comparison`` — sum vs mean/sqrt/l2 weighting (§IV-A's
  "many irrelevant documents" risk).
* ``baseline_comparison`` — diffusion-guided walk vs blind baselines at the
  same TTL, plus flooding at an equal message budget.
* ``aggregation_comparison`` — flat-sum personalization vs the
  sketch-partitioned multi-channel aggregation (the §VI future-work
  direction, implemented in :mod:`repro.core.aggregation`).

Usage::

    python -m repro.experiments.ablations [--full] [--which NAME]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import flood_query
from repro.core.aggregation import ChannelHasher, MaxChannelPolicy, channel_relevance_signals
from repro.core.batch import run_queries
from repro.core.engine import WalkConfig, run_query
from repro.core.forwarding import (
    DegreeBiasedPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.experiments.common import get_environment, resolve_full
from repro.simulation.metrics import HopStatistics
from repro.simulation.reporting import format_rows
from repro.simulation.runner import (
    IterationSampler,
    run_accuracy_experiment,
    run_hop_count_experiment,
)
from repro.simulation.scenario import AccuracyScenario, HopCountScenario
from repro.utils.rng import spawn_rngs


def _hop_scenario(n_documents: int, full: bool, iterations: int | None, **overrides):
    if iterations is None:
        iterations = 200 if full else 60
    return HopCountScenario(
        n_documents=n_documents, iterations=iterations, seed=17, **overrides
    )


def alpha_sweep(
    *,
    n_documents: int = 1000,
    alphas: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95),
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Success rate across a fine alpha grid (one row per alpha)."""
    env = get_environment(full)
    rows = []
    for alpha in alphas:
        scenario = _hop_scenario(n_documents, full, iterations, alpha=alpha)
        stats = run_hop_count_experiment(env.adjacency, env.workload, scenario)
        rows.append(
            {
                "alpha": alpha,
                "success rate": round(stats.success_rate, 3),
                "median hops": stats.median_hops,
                "mean hops": round(stats.mean_hops, 2)
                if stats.mean_hops == stats.mean_hops
                else "-",
            }
        )
    return rows


def fanout_sweep(
    *,
    n_documents: int = 1000,
    fanouts: tuple[int, ...] = (1, 2, 3, 4),
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Parallel walks: success rate and message cost per fanout."""
    env = get_environment(full)
    rows = []
    for fanout in fanouts:
        scenario = _hop_scenario(n_documents, full, iterations, fanout=fanout)
        stats = run_hop_count_experiment(env.adjacency, env.workload, scenario)
        rows.append(
            {
                "fanout": fanout,
                "success rate": round(stats.success_rate, 3),
                "median hops": stats.median_hops,
                "approx messages/query": fanout * scenario.ttl,
            }
        )
    return rows


def topk_sweep(
    *,
    n_documents: int = 1000,
    ks: tuple[int, ...] = (1, 5, 10),
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Top-k tracking: does a larger tracker rescue borderline queries?

    Success here means the gold document appears anywhere in the final
    tracker (top-k hit rate), versus the paper's strict top-1.
    """
    env = get_environment(full)
    rows = []
    for k in ks:
        if iterations is None:
            n_iter = 200 if full else 60
        else:
            n_iter = iterations
        scenario = HopCountScenario(
            n_documents=n_documents, iterations=n_iter, k=k, seed=17
        )
        sampler = IterationSampler(env.adjacency, env.workload)
        config = WalkConfig(ttl=scenario.ttl, fanout=1, k=k)
        rngs = spawn_rngs(scenario.seed, scenario.iterations)
        top1 = topk = total = 0
        for rng in rngs:
            data = sampler.sample(scenario.n_documents, rng)
            scores = sampler.diffuse_scores(data.relevance_signal, scenario.alpha)
            policy = PrecomputedScorePolicy(scores)
            starts = rng.integers(
                0, env.adjacency.n_nodes, size=scenario.queries_per_iteration
            )
            for result in run_queries(
                env.adjacency, data.stores, policy, data.query_embedding, starts, config
            ):
                total += 1
                top1 += result.found(data.gold_word, top=1)
                topk += result.found(data.gold_word)
        rows.append(
            {
                "k": k,
                "top-1 hit rate": round(top1 / total, 3),
                f"top-k hit rate": round(topk / total, 3),
            }
        )
    return rows


def placement_comparison(
    *,
    n_documents: int = 1000,
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Uniform vs community-correlated placement (accuracy at 1-4 hops)."""
    env = get_environment(full)
    if iterations is None:
        iterations = 120 if full else 40
    rows = []
    for placement, mixing in (("uniform", 0.0), ("correlated", 0.1)):
        scenario = AccuracyScenario(
            n_documents=n_documents,
            alphas=(0.5,),
            max_distance=6,
            iterations=iterations,
            placement=placement,
            correlation_mixing=mixing,
            seed=23,
        )
        grid = run_accuracy_experiment(env.adjacency, env.workload, scenario)
        row: dict[str, object] = {"placement": placement}
        for distance in range(7):
            row[f"acc@{distance}"] = round(grid.accuracy(0.5, distance), 3)
        rows.append(row)
    return rows


def personalization_comparison(
    *,
    n_documents: int = 1000,
    full: bool = False,
    iterations: int | None = None,
) -> list[dict[str, object]]:
    """Sum (paper) vs mean / sqrt / l2 personalization weightings."""
    env = get_environment(full)
    rows = []
    for weighting in ("sum", "mean", "sqrt", "l2"):
        scenario = _hop_scenario(n_documents, full, iterations, weighting=weighting)
        stats = run_hop_count_experiment(env.adjacency, env.workload, scenario)
        rows.append(
            {
                "weighting": weighting,
                "success rate": round(stats.success_rate, 3),
                "median hops": stats.median_hops,
            }
        )
    return rows


def baseline_comparison(
    *,
    n_documents: int = 1000,
    full: bool = False,
    iterations: int | None = None,
    ttl: int = 50,
) -> list[dict[str, object]]:
    """Diffusion-guided walk vs blind baselines.

    Walk methods run at the same TTL; flooding runs with the hop radius it
    can afford under an *equal message budget* (TTL messages), which is the
    honest comparison the P2P literature insists on.
    """
    env = get_environment(full)
    if iterations is None:
        iterations = 150 if full else 50
    sampler = IterationSampler(env.adjacency, env.workload)
    rngs = spawn_rngs(31, iterations)
    config = WalkConfig(ttl=ttl, fanout=1, k=1)

    methods = ("diffusion walk", "random walk", "degree-biased walk", "flooding@budget")
    successes = {m: 0 for m in methods}
    messages = {m: 0 for m in methods}
    total = 0
    hubby = DegreeBiasedPolicy(env.adjacency)

    for rng in rngs:
        data = sampler.sample(n_documents, rng)
        scores = sampler.diffuse_scores(data.relevance_signal, 0.5)
        start = int(rng.integers(env.adjacency.n_nodes))
        total += 1

        # The two score-table walks run as one batch; the random walk keeps
        # its own call, whose per-walk generator is spawned from ``rng``.
        guided, degree = run_queries(
            env.adjacency, data.stores, [PrecomputedScorePolicy(scores), hubby],
            data.query_embedding, [start, start], config,
        )
        runs = {
            "diffusion walk": guided,
            "random walk": run_query(
                env.adjacency, data.stores, RandomWalkPolicy(),
                data.query_embedding, start, config, seed=rng,
            ),
            "degree-biased walk": degree,
            "flooding@budget": flood_query(
                env.adjacency, data.stores, data.query_embedding, start,
                config, max_messages=ttl,
            ),
        }
        for name, result in runs.items():
            successes[name] += result.found(data.gold_word, top=1)
            messages[name] += result.messages

    return [
        {
            "method": name,
            "success rate": round(successes[name] / total, 3),
            "mean messages": round(messages[name] / total, 1),
        }
        for name in methods
    ]


def multi_gold_recall(
    *,
    n_documents: int = 1000,
    k: int = 5,
    max_golds: int = 5,
    full: bool = False,
    iterations: int | None = None,
    ttl: int = 50,
) -> list[dict[str, object]]:
    """Top-k recall with *multiple* gold documents in the network.

    The paper evaluates top-1 with a single gold; its future work asks about
    top-k performance.  Here every gold of the sampled query (up to
    ``max_golds``) is placed, and we measure the fraction retrieved into a
    size-``k`` tracker — per-hop-budget recall rather than a binary hit.
    """
    env = get_environment(full)
    if iterations is None:
        iterations = 200 if full else 60
    sampler = IterationSampler(env.adjacency, env.workload)
    config = WalkConfig(ttl=ttl, fanout=1, k=k)
    n = env.adjacency.n_nodes
    model = env.model

    recalled = placed_total = queries = any_hits = 0
    rng_master = spawn_rngs(59, iterations)
    from repro.simulation.placement import build_stores, uniform_placement

    for rng in rng_master:
        query = env.workload.queries[int(rng.integers(len(env.workload.queries)))]
        golds = env.workload.gold_of[query][:max_golds]
        n_irrelevant = max(0, n_documents - len(golds))
        irrelevant = env.workload.sample_irrelevant(rng, n_irrelevant)
        doc_words = list(golds) + irrelevant
        embeddings = model.vectors_for(doc_words)
        nodes = uniform_placement(len(doc_words), n, seed=rng)
        stores = build_stores(doc_words, embeddings, nodes, model.dim)
        query_embedding = model.vector(query)
        signal = np.bincount(
            nodes, weights=embeddings @ query_embedding, minlength=n
        )
        scores = sampler.diffuse_scores(signal, 0.5)
        policy = PrecomputedScorePolicy(scores)
        start = int(rng.integers(n))
        result = run_query(
            env.adjacency, stores, policy, query_embedding, start, config
        )
        found = sum(result.found(gold) for gold in golds)
        recalled += found
        placed_total += len(golds)
        any_hits += found > 0
        queries += 1

    return [
        {
            "k": k,
            "mean golds placed": round(placed_total / queries, 2),
            "recall@budget": round(recalled / placed_total, 3),
            "any-gold hit rate": round(any_hits / queries, 3),
        }
    ]


def aggregation_comparison(
    *,
    n_documents: int = 10000,
    channel_bits: tuple[int, ...] = (0, 2, 3, 4),
    full: bool = False,
    iterations: int | None = None,
    ttl: int = 50,
) -> list[dict[str, object]]:
    """Flat sum (paper) vs sketch-partitioned multi-channel personalization.

    Implements the paper's future-work direction (§VI): channels partition
    each node's documents by a shared random-hyperplane hash and diffuse
    independently; queries route on the best channel.  ``n_bits = 0`` is the
    paper's flat sum.  Evaluated where the flat sum collapses (high M).
    """
    env = get_environment(full)
    if iterations is None:
        iterations = 150 if full else 40
    sampler = IterationSampler(env.adjacency, env.workload)
    config = WalkConfig(ttl=ttl, fanout=1, k=1)
    n = env.adjacency.n_nodes
    dim = env.model.dim

    hashers = {
        bits: ChannelHasher(dim, bits, seed=1234) for bits in channel_bits
    }
    successes = {bits: 0 for bits in channel_bits}
    total = 0

    for rng in spawn_rngs(47, iterations):
        data = sampler.sample(n_documents, rng)
        # Recover the placed documents from the per-node stores.
        doc_embeddings, doc_nodes = [], []
        for node, store in data.stores.items():
            matrix = store.matrix()
            doc_embeddings.append(matrix)
            doc_nodes.extend([node] * matrix.shape[0])
        embeddings = np.vstack(doc_embeddings)
        nodes = np.asarray(doc_nodes, dtype=np.int64)

        start = int(rng.integers(n))
        total += 1
        # One walk per channel setting, all from ``start``, as one batch.
        policies = []
        for hasher in hashers.values():
            signals = channel_relevance_signals(
                embeddings, nodes, n, data.query_embedding, hasher
            )
            policies.append(MaxChannelPolicy(np.vstack(
                [sampler.diffuse_scores(signals[c], 0.5) for c in range(hasher.n_channels)]
            )))
        results = run_queries(
            env.adjacency, data.stores, policies, data.query_embedding,
            [start] * len(policies), config,
        )
        for bits, result in zip(hashers, results):
            successes[bits] += result.found(data.gold_word, top=1)

    return [
        {
            "channels": 1 << bits,
            "success rate": round(successes[bits] / total, 3),
            "note": "paper (flat sum)" if bits == 0 else "sketch-partitioned",
        }
        for bits in channel_bits
    ]


ABLATIONS = {
    "aggregation": aggregation_comparison,
    "multigold": multi_gold_recall,
    "alpha": alpha_sweep,
    "fanout": fanout_sweep,
    "topk": topk_sweep,
    "placement": placement_comparison,
    "personalization": personalization_comparison,
    "baselines": baseline_comparison,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument(
        "--which",
        choices=sorted(ABLATIONS) + ["all"],
        default="all",
    )
    args = parser.parse_args(argv)
    full = resolve_full(args.full)
    names = sorted(ABLATIONS) if args.which == "all" else [args.which]
    for name in names:
        rows = ABLATIONS[name](full=full, iterations=args.iterations)
        print(format_rows(rows, title=f"Ablation: {name}"))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
