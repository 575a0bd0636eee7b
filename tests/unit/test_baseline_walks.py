"""Tests for blind-walk baselines."""

import networkx as nx
import numpy as np
import pytest

from repro.core.engine import WalkConfig, run_query
from repro.core.forwarding import DegreeBiasedPolicy, RandomWalkPolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore


def store_with(dim, **docs):
    store = DocumentStore(dim)
    for doc_id, vec in docs.items():
        store.add(doc_id, np.asarray(vec, dtype=float))
    return store


class TestRandomWalk:
    def test_respects_ttl(self, small_world_adjacency):
        result = run_query(
            small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=7), seed=0,
        )
        assert len(result.visits) <= 7

    def test_deterministic_given_seed(self, small_world_adjacency):
        a = run_query(
            small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=10), seed=5,
        )
        b = run_query(
            small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=10), seed=5,
        )
        assert a.path == b.path

    def test_different_seeds_diverge(self, small_world_adjacency):
        paths = {
            tuple(
                run_query(
                    small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
                    WalkConfig(ttl=10), seed=s,
                ).path
            )
            for s in range(6)
        }
        assert len(paths) > 1

    def test_finds_local_document(self):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(3))
        stores = {0: store_with(2, here=[1.0, 0.0])}
        result = run_query(
            adjacency, stores, RandomWalkPolicy(), np.array([1.0, 0.0]), 0,
            WalkConfig(ttl=1), seed=0,
        )
        assert result.found("here")


class TestParallelWalks:
    def test_spawns_requested_walkers(self):
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(6))
        result = run_query(
            adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=2, fanout=4), seed=1,
        )
        hop1 = [node for hop, node in result.visits if hop == 1]
        assert len(hop1) == 4

    def test_more_walkers_more_coverage(self, small_world_adjacency):
        single = run_query(
            small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=8, fanout=1), seed=2,
        )
        many = run_query(
            small_world_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=8, fanout=4), seed=2,
        )
        assert many.unique_nodes_visited >= single.unique_nodes_visited


class TestDegreeBiasedWalk:
    def test_walks_to_hub_first(self):
        # two stars joined: node 0 is a bigger hub than node 1
        graph = nx.star_graph(5)
        graph.add_edge(1, 6)
        adjacency = CompressedAdjacency.from_networkx(graph)
        result = run_query(
            adjacency, {}, DegreeBiasedPolicy(adjacency), np.ones(2), 6,
            WalkConfig(ttl=3), seed=0,
        )
        assert result.path[1] == 1
        assert result.path[2] == 0  # the biggest hub

    def test_ttl_respected(self, small_world_adjacency):
        result = run_query(
            small_world_adjacency, {}, DegreeBiasedPolicy(small_world_adjacency),
            np.ones(2), 0, WalkConfig(ttl=5), seed=0,
        )
        assert len(result.visits) <= 5
