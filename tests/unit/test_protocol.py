"""Tests for the message-level query protocol oracle (messages + backtracking)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.network import LatencyModel, SimNetwork
from protocol_reference import QueryMessage, QueryResponse, QueryRoutingNode


def build_network(graph, stores=None, embeddings=None, dim=2):
    """Wire QueryRoutingNodes over `graph` with per-node neighbor embeddings."""
    adjacency = CompressedAdjacency.from_networkx(graph)
    n = adjacency.n_nodes
    if embeddings is None:
        embeddings = np.zeros((n, dim))
    network = SimNetwork(adjacency, latency=LatencyModel(1.0, 0.0), seed=0)
    trace = []
    for node_id in range(n):
        store = (stores or {}).get(node_id) or DocumentStore(dim)
        neighbor_embeddings = {
            int(v): embeddings[int(v)] for v in adjacency.neighbors(node_id)
        }
        network.attach(
            QueryRoutingNode(node_id, store, neighbor_embeddings, trace=trace)
        )
    network.start()
    return network, trace


def store_with(dim, **docs):
    store = DocumentStore(dim)
    for doc_id, vec in docs.items():
        store.add(doc_id, np.asarray(vec, dtype=float))
    return store


class TestForwardPath:
    def test_walk_follows_best_neighbor(self):
        embeddings = np.array([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
        network, trace = build_network(nx.path_graph(4), embeddings=embeddings)
        source = network.actor(0)
        source.initiate(QueryMessage("q", np.array([1.0, 0.0]), ttl=4, k=1))
        network.run()
        assert [node for _, node in trace] == [0, 1, 2, 3]

    def test_ttl_one_only_source(self):
        network, trace = build_network(nx.path_graph(3))
        network.actor(0).initiate(QueryMessage("q", np.zeros(2), ttl=1, k=1))
        network.run()
        assert [node for _, node in trace] == [0]

    def test_memory_excludes_recent_interactions(self):
        network, trace = build_network(nx.path_graph(3))
        network.actor(1).initiate(QueryMessage("q", np.zeros(2), ttl=3, k=1))
        network.run()
        # from 1, tie -> 0; from 0, memory excludes 1... but 1 is the only
        # neighbor, so fallback re-forwards to 1 (footnote 9), which must
        # then go to 2 (0 is remembered).
        assert [node for _, node in trace] == [1, 0, 1]


class TestBacktracking:
    def test_source_receives_results(self):
        stores = {2: store_with(2, gold=[1.0, 0.0])}
        embeddings = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
        network, _ = build_network(nx.path_graph(3), stores, embeddings)
        source = network.actor(0)
        source.initiate(QueryMessage("q1", np.array([1.0, 0.0]), ttl=3, k=1))
        network.run()
        assert "q1" in source.completed
        items = source.completed["q1"]
        assert items[0].doc_id == "gold"
        assert items[0].node == 2

    def test_response_travels_reverse_path(self):
        """Responses cost one message per forward hop (pure backtracking)."""
        network, trace = build_network(nx.path_graph(4))
        network.actor(0).initiate(QueryMessage("q", np.zeros(2), ttl=4, k=1))
        network.run()
        forwards = len(trace) - 1
        assert network.stats.by_type["QueryMessage"] == forwards
        assert network.stats.by_type["QueryResponse"] == forwards

    def test_backtracking_with_revisits(self):
        """A walk that revisits a node still unwinds to the source."""
        network, trace = build_network(nx.path_graph(3))
        source = network.actor(1)
        source.initiate(QueryMessage("q", np.zeros(2), ttl=5, k=1))
        network.run()
        assert "q" in source.completed

    def test_ttl_expiry_at_source_completes_locally(self):
        stores = {0: store_with(2, only=[1.0, 0.0])}
        network, _ = build_network(nx.path_graph(2), stores)
        source = network.actor(0)
        source.initiate(QueryMessage("q", np.array([1.0, 0.0]), ttl=1, k=1))
        network.run()
        assert source.completed["q"][0].doc_id == "only"

    def test_isolated_source_completes_immediately(self):
        graph = nx.Graph()
        graph.add_nodes_from([0])
        network, _ = build_network(graph)
        source = network.actor(0)
        source.initiate(QueryMessage("q", np.zeros(2), ttl=5, k=1))
        network.run()
        assert "q" in source.completed


class TestResultAccumulation:
    def test_tracker_carried_and_extended(self):
        stores = {
            0: store_with(2, weak=[0.2, 0.0]),
            1: store_with(2, strong=[1.0, 0.0]),
        }
        network, _ = build_network(nx.path_graph(2), stores)
        source = network.actor(0)
        source.initiate(QueryMessage("q", np.array([1.0, 0.0]), ttl=2, k=2))
        network.run()
        doc_ids = [item.doc_id for item in source.completed["q"]]
        assert doc_ids == ["strong", "weak"]

    def test_k1_keeps_only_best(self):
        stores = {
            0: store_with(2, weak=[0.2, 0.0]),
            1: store_with(2, strong=[1.0, 0.0]),
        }
        network, _ = build_network(nx.path_graph(2), stores)
        source = network.actor(0)
        source.initiate(QueryMessage("q", np.array([1.0, 0.0]), ttl=2, k=1))
        network.run()
        doc_ids = [item.doc_id for item in source.completed["q"]]
        assert doc_ids == ["strong"]

    def test_concurrent_queries_do_not_interfere(self):
        stores = {1: store_with(2, gold=[1.0, 0.0])}
        network, _ = build_network(nx.path_graph(3), stores)
        a = network.actor(0)
        b = network.actor(2)
        a.initiate(QueryMessage("qa", np.array([1.0, 0.0]), ttl=3, k=1))
        b.initiate(QueryMessage("qb", np.array([1.0, 0.0]), ttl=3, k=1))
        network.run()
        assert "qa" in a.completed
        assert "qb" in b.completed
        assert a.completed["qa"][0].doc_id == "gold"
        assert b.completed["qb"][0].doc_id == "gold"


class TestMessages:
    def test_query_message_size(self):
        msg = QueryMessage("q", np.zeros(10), ttl=5, k=1)
        assert msg.size_bytes() >= 80.0

    def test_response_size_scales_with_items(self):
        from repro.retrieval.topk import ScoredDocument

        small = QueryResponse("q", ())
        large = QueryResponse("q", (ScoredDocument(1.0, "a"),) * 3)
        assert large.size_bytes() > small.size_bytes()

    def test_update_neighbor_embedding(self):
        network, _ = build_network(nx.path_graph(2))
        node = network.actor(0)
        node.update_neighbor_embedding(1, np.array([5.0, 5.0]))
        assert np.allclose(node.neighbor_embeddings[1], [5.0, 5.0])
