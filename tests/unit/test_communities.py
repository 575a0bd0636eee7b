"""Tests for label-propagation community detection."""

import networkx as nx
import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.communities import label_propagation_communities


def two_cliques_with_bridge(size: int = 10) -> CompressedAdjacency:
    graph = nx.disjoint_union(nx.complete_graph(size), nx.complete_graph(size))
    graph.add_edge(0, size)  # single bridge
    return CompressedAdjacency.from_networkx(graph)


class TestLabelPropagation:
    def test_labels_compact(self):
        adj = two_cliques_with_bridge()
        labels = label_propagation_communities(adj, seed=0)
        assert labels.min() == 0
        assert set(labels) == set(range(labels.max() + 1))

    def test_two_cliques_separate(self):
        adj = two_cliques_with_bridge(12)
        labels = label_propagation_communities(adj, seed=0)
        left = labels[:12]
        right = labels[12:]
        # each clique is internally uniform
        assert len(set(left)) == 1
        assert len(set(right)) == 1
        # and the two cliques get different labels
        assert left[0] != right[0]

    def test_one_label_per_node_shape(self, social_adjacency):
        labels = label_propagation_communities(social_adjacency, seed=1)
        assert labels.shape == (social_adjacency.n_nodes,)

    def test_social_graph_finds_multiple_communities(self, social_adjacency):
        labels = label_propagation_communities(social_adjacency, seed=1)
        n_communities = labels.max() + 1
        assert 2 <= n_communities <= social_adjacency.n_nodes // 2

    def test_deterministic_given_seed(self, social_adjacency):
        a = label_propagation_communities(social_adjacency, seed=5)
        b = label_propagation_communities(social_adjacency, seed=5)
        assert np.array_equal(a, b)

    def test_isolated_node_keeps_own_label(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        adj = CompressedAdjacency.from_networkx(graph)
        labels = label_propagation_communities(adj, seed=0)
        assert labels[2] not in (labels[0], labels[1])
