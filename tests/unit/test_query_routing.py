"""Tests for the query-oriented learned-routing baseline (§II-A)."""

import networkx as nx
import numpy as np
import pytest

from repro.baselines.query_routing import (
    LearnedRoutingPolicy,
    QueryRoutingTable,
    learned_routing_walk,
    train_routing_policy,
)
from repro.core.engine import WalkConfig
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore


class TestQueryRoutingTable:
    def test_record_and_score(self):
        table = QueryRoutingTable()
        table.record(np.array([1.0, 0.0]), neighbor=3, reward=1.0)
        scores = table.score_neighbors(np.array([1.0, 0.0]), np.array([2, 3]))
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_similarity_weighting(self):
        table = QueryRoutingTable()
        table.record(np.array([1.0, 0.0]), neighbor=5, reward=1.0)
        aligned = table.score_neighbors(np.array([1.0, 0.0]), np.array([5]))[0]
        orthogonal = table.score_neighbors(np.array([0.0, 1.0]), np.array([5]))[0]
        assert aligned > orthogonal
        assert orthogonal == 0.0  # negative/zero similarity contributes nothing

    def test_capacity_evicts_weakest(self):
        table = QueryRoutingTable(capacity=2)
        table.record(np.array([1.0, 0.0]), 1, reward=0.1)
        table.record(np.array([1.0, 0.0]), 2, reward=1.0)
        table.record(np.array([1.0, 0.0]), 3, reward=0.5)
        neighbors = {entry.neighbor for entry in table.entries}
        assert len(table.entries) == 2
        assert 1 not in neighbors  # weakest (after decay) evicted

    def test_decay_fades_old_entries(self):
        table = QueryRoutingTable(decay=0.5)
        table.record(np.array([1.0, 0.0]), 1, reward=1.0)
        for _ in range(5):
            table.record(np.array([0.0, 1.0]), 2, reward=0.1)
        first = next(e for e in table.entries if e.neighbor == 1)
        assert first.reward < 0.1

    def test_empty_table_scores_zero(self):
        table = QueryRoutingTable()
        scores = table.score_neighbors(np.ones(2), np.array([1, 2, 3]))
        assert np.allclose(scores, 0.0)


@pytest.fixture
def simple_world():
    """A path graph with the gold document at one end."""
    adjacency = CompressedAdjacency.from_networkx(nx.path_graph(6))
    store = DocumentStore(2)
    store.add("gold", np.array([1.0, 0.0]))
    stores = {5: store}
    query = np.array([1.0, 0.0])
    return adjacency, stores, query


class TestLearnedRoutingWalk:
    def test_cold_start_is_random(self, simple_world):
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency, epsilon=0.0)
        paths = set()
        for seed in range(5):
            result = learned_routing_walk(
                adjacency, stores, policy, query, 2,
                WalkConfig(ttl=3), learn=False, seed=seed,
            )
            paths.add(tuple(result.path))
        assert len(paths) > 1  # no cache -> behaves like a random walk

    def test_walk_respects_ttl_and_edges(self, simple_world):
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency)
        result = learned_routing_walk(
            adjacency, stores, policy, query, 0, WalkConfig(ttl=4), seed=0
        )
        assert len(result.visits) <= 4
        for u, v in zip(result.path, result.path[1:]):
            assert adjacency.has_edge(u, v)

    def test_successful_walk_reinforces_path(self, simple_world):
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency, epsilon=0.0)
        result = learned_routing_walk(
            adjacency, stores, policy, query, 3,
            WalkConfig(ttl=10), gold_doc="gold", learn=True, seed=1,
        )
        assert result.found("gold", top=1)
        # at least the node adjacent to the discovery learned something
        assert any(table.entries for table in policy.tables.values())

    def test_failed_walk_learns_nothing(self, simple_world):
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency)
        learned_routing_walk(
            adjacency, stores, policy, query, 0,
            WalkConfig(ttl=2), gold_doc="gold", learn=True, seed=2,
        )
        assert all(not table.entries for table in policy.tables.values())

    def test_training_improves_over_cold(self, simple_world):
        """The §II-A story: warmed caches beat the cold-start behaviour."""
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency, epsilon=0.0)
        training = [(query, "gold")] * 60
        train_routing_policy(
            adjacency, stores, policy, training, ttl=12, seed=3
        )

        def success_rate(p, n=40):
            hits = 0
            for seed in range(n):
                result = learned_routing_walk(
                    adjacency, stores, p, query, seed % 5,
                    WalkConfig(ttl=8), learn=False, seed=seed,
                )
                hits += result.found("gold", top=1)
            return hits / n

        cold = success_rate(LearnedRoutingPolicy(adjacency, epsilon=0.0))
        warm = success_rate(policy)
        assert warm > cold

    def test_unseen_query_direction_gets_no_boost(self, simple_world):
        """Cold-start blindness: training on one topic does not inform an
        orthogonal query (the weakness §II-A attributes to these methods)."""
        adjacency, stores, query = simple_world
        policy = LearnedRoutingPolicy(adjacency, epsilon=0.0)
        train_routing_policy(
            adjacency, stores, policy, [(query, "gold")] * 40, ttl=12, seed=4
        )
        orthogonal = np.array([0.0, 1.0])
        scores = policy.table_of(4).score_neighbors(orthogonal, np.array([3, 5]))
        assert np.allclose(scores, 0.0)

    def test_invalid_params(self, simple_world):
        adjacency, _, _ = simple_world
        with pytest.raises(ValueError):
            LearnedRoutingPolicy(adjacency, capacity=0)
        with pytest.raises(ValueError):
            LearnedRoutingPolicy(adjacency, decay=1.0)
