"""Benchmark: recall under injected failures, and what resilience buys back.

The paper's evaluation (and every prior benchmark here) assumes a fault-free
overlay.  This bench measures the embedding-guided walk on the same kind of
community overlay while a seeded :class:`repro.runtime.faults.FaultPlan`
crashes peers and drops messages, sweeping

    crash fraction x message-drop probability x walker redundancy

and reporting, per cell: recall@10 against brute-force gold, the ratio to
the fault-free recall, message/retry overhead, and the fraction of queries
that came back ``degraded``.  A zombie row (stale-embedding peers that still
route) completes the taxonomy.

The committed claim (ISSUE 7 acceptance): with **10% of nodes crashed and
5% message drop, k=2 redundant walkers recover >= 80% of the fault-free
recall@10**.  The fault-free sweep cell must also match the no-injector
engine exactly — the equivalence guarantee, asserted here end to end.

Reduced mode (default; CI smoke) runs a small overlay; full mode
(``REPRO_BENCH_FAULT_FULL=1`` or ``REPRO_FULL=1``) the committed scale.
Results land in ``results/fault_tolerance{,_reduced}.{txt,json}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from benchmarks.conftest import emit_report, measure_peak_memory
from repro.core import diffuse_embeddings
from repro.core.backends import SparseDiffusionBackend
from repro.core.batch import run_queries
from repro.core.engine import ResilienceConfig, WalkConfig
from repro.core.forwarding import EmbeddingGuidedPolicy
from repro.graphs.generators import community_cycle_adjacency
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector, FaultPlan, choose_live_starts

BENCH_FULL_ENV = "REPRO_BENCH_FAULT_FULL"

DIM = 32
DEGREE = 8
CROSS_FRACTION = 0.05
ALPHA = 0.5
RECALL_K = 10
GRAPH_SEED = 31
DOC_SEED = 32
QUERY_SEED = 33
START_SEED = 34
PLAN_SEED = 35


def bench_full_requested() -> bool:
    flag = os.environ.get(BENCH_FULL_ENV, "").strip()
    if flag in ("1", "true", "yes"):
        return True
    return os.environ.get("REPRO_FULL", "").strip() in ("1", "true", "yes")


@dataclass(frozen=True)
class BenchSize:
    label: str
    n_nodes: int
    n_communities: int
    n_docs: int
    n_queries: int
    ttl: int
    crash_sweep: tuple[float, ...]
    drop_sweep: tuple[float, ...]
    redundancy_sweep: tuple[int, ...]
    min_recall_ratio: float  # acceptance: crash=0.10, drop=0.05, k=2


REDUCED = BenchSize(
    label="reduced (1.5k nodes, 120 docs, 40 queries)",
    n_nodes=1_500,
    n_communities=6,
    n_docs=120,
    n_queries=40,
    ttl=60,
    crash_sweep=(0.0, 0.10, 0.20),
    drop_sweep=(0.0, 0.05),
    redundancy_sweep=(1, 2),
    min_recall_ratio=0.8,
)
FULL = BenchSize(
    label="full (8k nodes, 400 docs, 100 queries)",
    n_nodes=8_000,
    n_communities=16,
    n_docs=400,
    n_queries=100,
    ttl=80,
    crash_sweep=(0.0, 0.05, 0.10, 0.20),
    drop_sweep=(0.0, 0.05, 0.10),
    redundancy_sweep=(1, 2, 3),
    min_recall_ratio=0.8,
)


def _build_corpus(size: BenchSize):
    """Overlay + placed documents + diffused embeddings + query set."""
    adjacency = community_cycle_adjacency(
        size.n_nodes,
        DEGREE,
        n_communities=size.n_communities,
        cross_fraction=CROSS_FRACTION,
        seed=GRAPH_SEED,
    )
    rng = np.random.default_rng(DOC_SEED)
    doc_embeddings = rng.standard_normal((size.n_docs, DIM))
    doc_embeddings /= np.linalg.norm(doc_embeddings, axis=1, keepdims=True)
    doc_nodes = rng.integers(0, size.n_nodes, size=size.n_docs)
    stores: dict[int, DocumentStore] = {}
    e0 = np.zeros((size.n_nodes, DIM))
    for doc_id, (node, vector) in enumerate(zip(doc_nodes, doc_embeddings)):
        store = stores.setdefault(int(node), DocumentStore(DIM))
        store.add(doc_id, vector)
        e0[node] += vector
    embeddings = diffuse_embeddings(
        adjacency,
        e0,
        alpha=ALPHA,
        method=SparseDiffusionBackend(epsilon=1e-4),
        tol=1e-8,
    ).embeddings
    policy = EmbeddingGuidedPolicy(embeddings)

    # Queries: perturbed documents; gold = brute-force cosine top-10.
    qrng = np.random.default_rng(QUERY_SEED)
    picks = qrng.integers(0, size.n_docs, size=size.n_queries)
    queries = doc_embeddings[picks] + 0.25 * qrng.standard_normal(
        (size.n_queries, DIM)
    )
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    gold = [
        set(np.argsort(-(doc_embeddings @ q))[:RECALL_K].tolist())
        for q in queries
    ]
    return adjacency, stores, policy, queries, gold, {
        int(n) for n in doc_nodes
    }


def _run_cell(
    adjacency,
    stores,
    policy,
    queries,
    gold,
    starts,
    *,
    ttl: int,
    plan: FaultPlan | None,
    redundancy: int,
):
    """One sweep cell: every query through one (plan, redundancy) setting.

    All queries walk in one lockstep call; the injector hands out walk drop
    streams in query order, as a loop of one-walk calls would.
    """
    faults = FaultInjector(plan) if plan is not None else None
    resilience = (
        ResilienceConfig(redundancy=redundancy) if faults is not None else None
    )
    results = run_queries(
        adjacency,
        stores,
        policy,
        queries,
        starts,
        WalkConfig(ttl=ttl, k=RECALL_K),
        faults=faults,
        resilience=resilience,
    )
    recalls, messages, retries, rerouted, degraded = [], 0, 0, 0, 0
    for result, want in zip(results, gold):
        recalls.append(len(set(result.tracker.doc_ids()) & want) / RECALL_K)
        messages += result.messages
        retries += result.retries
        rerouted += result.rerouted
        degraded += int(result.degraded)
    n = len(recalls)
    return {
        "recall_at_10": float(np.mean(recalls)),
        "mean_messages": messages / n,
        "mean_retries": retries / n,
        "mean_rerouted": rerouted / n,
        "degraded_fraction": degraded / n,
    }


def test_fault_tolerance():
    size = FULL if bench_full_requested() else REDUCED
    corpus, corpus_peak = measure_peak_memory(lambda: _build_corpus(size))
    adjacency, stores, policy, queries, gold, _ = corpus
    kwargs = dict(ttl=size.ttl)

    # Fault-free reference: the plain engine, no injector on the path.
    base_starts = choose_live_starts(
        FaultPlan(size.n_nodes), size.n_queries, np.random.default_rng(START_SEED)
    )
    baseline = _run_cell(
        adjacency, stores, policy, queries, gold, base_starts,
        plan=None, redundancy=1, **kwargs,
    )
    base_recall = baseline["recall_at_10"]

    # Equivalence: the trivial-plan resilient walk is bit-identical.
    trivial = _run_cell(
        adjacency, stores, policy, queries, gold, base_starts,
        plan=FaultPlan(size.n_nodes), redundancy=1, **kwargs,
    )

    sweep = []
    for crash in size.crash_sweep:
        for drop in size.drop_sweep:
            plan = FaultPlan.generate(
                size.n_nodes,
                crash_fraction=crash,
                drop_probability=drop,
                seed=PLAN_SEED,
            )
            starts = choose_live_starts(
                plan, size.n_queries, np.random.default_rng(START_SEED)
            )
            for redundancy in size.redundancy_sweep:
                cell = _run_cell(
                    adjacency, stores, policy, queries, gold, starts,
                    plan=plan, redundancy=redundancy, **kwargs,
                )
                cell.update(
                    crash_fraction=crash,
                    drop_probability=drop,
                    redundancy=redundancy,
                    recall_ratio=cell["recall_at_10"] / base_recall,
                    message_overhead=cell["mean_messages"]
                    / baseline["mean_messages"],
                )
                sweep.append(cell)

    # Zombie row: peers that route but serve stale embeddings.
    zombie_plan = FaultPlan.generate(
        size.n_nodes, zombie_fraction=0.10, seed=PLAN_SEED
    )
    zombie = _run_cell(
        adjacency, stores, policy, queries, gold, base_starts,
        plan=zombie_plan, redundancy=1, **kwargs,
    )
    zombie["recall_ratio"] = zombie["recall_at_10"] / base_recall

    def cell_at(crash, drop, redundancy):
        return next(
            c
            for c in sweep
            if c["crash_fraction"] == crash
            and c["drop_probability"] == drop
            and c["redundancy"] == redundancy
        )

    acceptance = cell_at(0.10, 0.05, 2)
    lone = cell_at(0.10, 0.05, 1)

    lines = [
        "Recall under injected failures (crash x drop x redundancy sweep)",
        f"configuration: {size.label}; dim={DIM}, degree~{DEGREE}, "
        f"alpha={ALPHA}, ttl={size.ttl}, recall@{RECALL_K}, "
        f"plan seed={PLAN_SEED}",
        f"fault-free baseline: recall@10 {base_recall:.4f}, "
        f"{baseline['mean_messages']:.1f} msgs/query",
        f"equivalence (trivial plan, resilient path): recall@10 "
        f"{trivial['recall_at_10']:.4f} "
        f"(delta {abs(trivial['recall_at_10'] - base_recall):.2e})",
        " crash  drop  k | recall@10  ratio | msgs/q  x-over  retries/q "
        "reroute/q  degraded",
    ]
    for c in sweep:
        lines.append(
            f" {c['crash_fraction']:5.2f} {c['drop_probability']:5.2f} "
            f"{c['redundancy']:2d} |   {c['recall_at_10']:7.4f} "
            f"{c['recall_ratio']:6.3f} | {c['mean_messages']:6.1f} "
            f"{c['message_overhead']:7.2f} {c['mean_retries']:10.2f} "
            f"{c['mean_rerouted']:9.2f} {c['degraded_fraction']:9.2f}"
        )
    lines += [
        f" zombies 10% (k=1): recall@10 {zombie['recall_at_10']:.4f} "
        f"(ratio {zombie['recall_ratio']:.3f})",
        f"acceptance (crash=0.10, drop=0.05): k=1 ratio "
        f"{lone['recall_ratio']:.3f} -> k=2 ratio "
        f"{acceptance['recall_ratio']:.3f} "
        f"(floor {size.min_recall_ratio})",
    ]
    emit_report(
        "fault_tolerance" if size is FULL else "fault_tolerance_reduced",
        "\n".join(lines),
        data={
            "criterion": "recall_at_10_vs_brute_force",
            "seed": GRAPH_SEED,  # fault plans use PLAN_SEED (in configuration)
            "peak_memory_bytes": corpus_peak,
            "configuration": {
                "label": size.label,
                "n_nodes": size.n_nodes,
                "n_communities": size.n_communities,
                "n_docs": size.n_docs,
                "n_queries": size.n_queries,
                "dim": DIM,
                "degree": DEGREE,
                "alpha": ALPHA,
                "ttl": size.ttl,
                "recall_k": RECALL_K,
                "plan_seed": PLAN_SEED,
            },
            "baseline": baseline,
            "equivalence_trivial_plan": trivial,
            "sweep": sweep,
            "zombies_10pct": zombie,
            "acceptance": {
                "crash_fraction": 0.10,
                "drop_probability": 0.05,
                "redundancy": 2,
                "recall_ratio": acceptance["recall_ratio"],
                "floor": size.min_recall_ratio,
            },
        },
    )

    # The trivial-plan resilient path must match the plain engine exactly.
    assert trivial["recall_at_10"] == base_recall
    assert trivial["mean_messages"] == baseline["mean_messages"]
    assert trivial["degraded_fraction"] == 0.0
    # The fault-free sweep cell (crash=0, drop=0, k=1) is the baseline too.
    clean_cell = cell_at(0.0, 0.0, 1)
    assert clean_cell["recall_at_10"] == base_recall
    # Failures must actually bite (reroutes happen) and resilience must pay:
    assert lone["mean_rerouted"] > 0
    assert acceptance["recall_ratio"] >= size.min_recall_ratio, (
        f"k=2 redundant walkers recover only "
        f"{acceptance['recall_ratio']:.3f} of fault-free recall@10 "
        f"(floor {size.min_recall_ratio})"
    )
    # Redundancy must not fall below the lone walker under the same faults.
    assert acceptance["recall_at_10"] >= lone["recall_at_10"]
