"""Property-based tests: walk-engine invariants on random instances."""

import networkx as nx
import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import run_queries
from repro.core.engine import ResilienceConfig, WalkConfig, run_query
from repro.core.forwarding import (
    DegreeBiasedPolicy,
    EmbeddingGuidedPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import CrashWindow, FaultInjector, FaultPlan
from scalar_reference import scalar_run_query


@st.composite
def walk_instance(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = nx.random_labeled_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(draw(st.integers(0, n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v))
    adjacency = CompressedAdjacency.from_networkx(graph)
    scores = rng.standard_normal(n)
    ttl = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    # scatter a few documents
    stores = {}
    for i in range(draw(st.integers(0, 5))):
        node = int(rng.integers(n))
        stores.setdefault(node, DocumentStore(3)).add(
            f"doc{i}", rng.standard_normal(3)
        )
    return adjacency, scores, stores, ttl, start, seed


class TestWalkInvariants:
    @given(instance=walk_instance())
    @settings(max_examples=120, deadline=None)
    def test_ttl_bounds_visits(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, WalkConfig(ttl=ttl),
        )
        assert 1 <= len(result.visits) <= ttl

    @given(instance=walk_instance())
    @settings(max_examples=120, deadline=None)
    def test_path_follows_edges(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, WalkConfig(ttl=ttl),
        )
        path = result.path
        for u, v in zip(path, path[1:]):
            assert adjacency.has_edge(u, v)

    @given(instance=walk_instance())
    @settings(max_examples=100, deadline=None)
    def test_hop_indices_consecutive(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, WalkConfig(ttl=ttl),
        )
        hops = [hop for hop, _ in result.visits]
        assert hops == list(range(len(hops)))

    @given(instance=walk_instance())
    @settings(max_examples=100, deadline=None)
    def test_messages_equal_forwards(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, WalkConfig(ttl=ttl),
        )
        assert result.messages == len(result.visits) - 1

    @given(instance=walk_instance())
    @settings(max_examples=100, deadline=None)
    def test_discovered_docs_live_on_visited_nodes(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        query = np.ones(3)
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            query, start, WalkConfig(ttl=ttl, k=3),
        )
        visited = {node for _, node in result.visits}
        for doc_id, hop in result.discovered_at.items():
            host_nodes = {
                node for node, store in stores.items() if doc_id in store
            }
            assert host_nodes & visited
            assert 0 <= hop < len(result.visits)

    @given(instance=walk_instance())
    @settings(max_examples=100, deadline=None)
    def test_tracker_items_within_k(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        result = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, WalkConfig(ttl=ttl, k=2),
        )
        assert len(result.results) <= 2

    @given(instance=walk_instance())
    @settings(max_examples=60, deadline=None)
    def test_deterministic_policy_reproducible(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        kwargs = dict(config=WalkConfig(ttl=ttl, k=2))
        a = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, **kwargs,
        )
        b = run_query(
            adjacency, stores, PrecomputedScorePolicy(scores),
            np.ones(3), start, **kwargs,
        )
        assert a.path == b.path

    @given(instance=walk_instance())
    @settings(max_examples=60, deadline=None)
    def test_random_policy_seed_reproducible(self, instance):
        adjacency, scores, stores, ttl, start, seed = instance
        a = run_query(
            adjacency, stores, RandomWalkPolicy(), np.ones(3), start,
            WalkConfig(ttl=ttl), seed=seed,
        )
        b = run_query(
            adjacency, stores, RandomWalkPolicy(), np.ones(3), start,
            WalkConfig(ttl=ttl), seed=seed,
        )
        assert a.path == b.path


def _walk_fields(result):
    """Every SearchResult field, in comparable form."""
    return (
        result.query_id,
        result.start_node,
        result.visits,
        result.messages,
        result.discovered_at,
        [(d.doc_id, d.score, d.node) for d in result.results],
        result.degraded,
        result.retries,
        result.rerouted,
        result.walkers_lost,
        result.zombie_visits,
        result.deadline_hit,
        list(result.failed_peers.items()),
    )


@st.composite
def faulted_batch(draw):
    """A batch of walks on a faulty overlay: crash windows with recovery,
    drops, zombies, quarantine, hop budgets, isolated nodes, dead sources."""
    adjacency, scores, stores, ttl, _, seed = draw(walk_instance())
    n = adjacency.n_nodes
    rng = np.random.default_rng(seed + 1)
    if draw(st.booleans()):
        # An isolated node (a possible start) beside the connected part.
        adjacency = CompressedAdjacency(
            np.append(adjacency.indptr, adjacency.indptr[-1]), adjacency.indices
        )
        scores = np.append(scores, 0.5)
        n += 1
    crashes = []
    for node in draw(st.lists(st.integers(0, n - 1), max_size=max(1, n // 3), unique=True)):
        start = float(draw(st.integers(0, 3)))
        length = draw(st.one_of(st.none(), st.integers(1, 5)))
        crashes.append(
            CrashWindow(node, start, np.inf if length is None else start + length)
        )
    plan = FaultPlan(
        n,
        crashes=tuple(crashes),
        drop_probability=draw(st.sampled_from([0.0, 0.05, 0.3])),
        zombies=frozenset(draw(st.lists(st.integers(0, n - 1), max_size=2))),
        seed=draw(st.integers(0, 1_000)),
    )
    resilience = ResilienceConfig(
        max_retries=draw(st.integers(0, 3)),
        retry_backoff=draw(st.integers(0, 2)),
        redundancy=draw(st.integers(1, 3)),
    )
    config = WalkConfig(ttl=ttl, fanout=draw(st.integers(1, 2)), k=2)
    size = draw(st.integers(1, 6))
    starts = [draw(st.integers(0, n - 1)) for _ in range(size)]
    budgets = draw(st.one_of(st.none(), st.lists(st.integers(1, 40), min_size=size, max_size=size)))
    quarantine = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
    embeddings = rng.standard_normal((n, 3))
    policy = draw(
        st.sampled_from(
            [
                EmbeddingGuidedPolicy(embeddings),
                EmbeddingGuidedPolicy(
                    sp.csr_matrix(np.where(rng.random((n, 3)) < 0.4, embeddings, 0.0))
                ),
                PrecomputedScorePolicy(scores),
                PrecomputedScorePolicy(np.round(scores)),  # ties
                DegreeBiasedPolicy(adjacency),
            ]
        )
    )
    queries = rng.standard_normal((size, 3))
    return adjacency, stores, policy, queries, starts, config, plan, resilience, budgets, quarantine


class TestLockstepResilientWalk:
    @given(instance=faulted_batch())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_scalar_loop(self, instance):
        """run_queries under faults ≡ a scalar-reference loop over the same walks."""
        (adjacency, stores, policy, queries, starts, config, plan,
         resilience, budgets, quarantine) = instance
        lockstep, scalar = FaultInjector(plan), FaultInjector(plan)
        batch = run_queries(
            adjacency, stores, policy, queries, starts, config,
            query_ids=list(range(len(starts))), hop_budgets=budgets,
            faults=lockstep, resilience=resilience, quarantine=quarantine,
        )
        loop = [
            scalar_run_query(
                adjacency, stores, policy, queries[i], start, config,
                query_id=i, faults=scalar, resilience=resilience,
                hop_budget=None if budgets is None else budgets[i],
                quarantine=quarantine,
            )
            for i, start in enumerate(starts)
        ]
        assert [_walk_fields(r) for r in batch] == [_walk_fields(r) for r in loop]
        assert lockstep.dropped == scalar.dropped
        assert lockstep.crash_detections == scalar.crash_detections
