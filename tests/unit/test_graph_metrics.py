"""Tests for repro.graphs.metrics (BFS, clustering, diameter)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import grid_graph
from repro.graphs.metrics import (
    average_clustering,
    bfs_distances,
    degree_statistics,
    estimate_diameter,
    summarize_graph,
)


@pytest.fixture
def path_graph() -> CompressedAdjacency:
    return CompressedAdjacency.from_networkx(nx.path_graph(6))


class TestBfsDistances:
    def test_path_graph(self, path_graph):
        assert np.array_equal(bfs_distances(path_graph, 0), [0, 1, 2, 3, 4, 5])

    def test_middle_source(self, path_graph):
        assert np.array_equal(bfs_distances(path_graph, 3), [3, 2, 1, 0, 1, 2])

    def test_unreachable_marked(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        adj = CompressedAdjacency.from_networkx(graph)
        assert bfs_distances(adj, 0)[2] == -1

    def test_matches_networkx(self, small_world_adjacency):
        graph = small_world_adjacency.to_networkx()
        expected = nx.single_source_shortest_path_length(graph, 5)
        actual = bfs_distances(small_world_adjacency, 5)
        for node, dist in expected.items():
            assert actual[node] == dist

    def test_out_of_range_source(self, path_graph):
        with pytest.raises(ValueError):
            bfs_distances(path_graph, 10)


class TestEstimateDiameter:
    def test_path_graph_exact(self, path_graph):
        assert estimate_diameter(path_graph, seed=0) == 5

    def test_grid_exact(self):
        adj = CompressedAdjacency.from_networkx(grid_graph(4, 5))
        # Manhattan diameter: (4-1) + (5-1) = 7; double sweep finds it on grids
        assert estimate_diameter(adj, n_sweeps=8, seed=1) == 7

    def test_lower_bounds_true_diameter(self, small_world_adjacency):
        graph = small_world_adjacency.to_networkx()
        true_diameter = nx.diameter(graph)
        estimate = estimate_diameter(small_world_adjacency, seed=2)
        assert estimate <= true_diameter
        assert estimate >= true_diameter - 1  # double sweep is near-exact here


class TestClustering:
    def test_triangle_is_one(self):
        adj = CompressedAdjacency.from_networkx(nx.complete_graph(3))
        assert average_clustering(adj) == pytest.approx(1.0)

    def test_star_is_zero(self):
        adj = CompressedAdjacency.from_networkx(nx.star_graph(5))
        assert average_clustering(adj) == pytest.approx(0.0)

    def test_matches_networkx(self, small_world_adjacency):
        expected = nx.average_clustering(small_world_adjacency.to_networkx())
        actual = average_clustering(small_world_adjacency)
        assert actual == pytest.approx(expected, abs=1e-9)

    def test_empty_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        adj = CompressedAdjacency.from_networkx(graph)
        assert average_clustering(adj) == 0.0


class TestDegreeStatistics:
    def test_star(self):
        adj = CompressedAdjacency.from_networkx(nx.star_graph(4))
        stats = degree_statistics(adj)
        assert stats["max"] == 4
        assert stats["min"] == 1
        assert stats["mean"] == pytest.approx(8 / 5)


class TestSummarizeGraph:
    def test_fields(self, small_world_adjacency):
        summary = summarize_graph(small_world_adjacency, seed=0)
        assert summary.n_nodes == 60
        assert summary.n_edges == small_world_adjacency.n_edges
        assert 0 <= summary.clustering <= 1
        assert summary.diameter_lower_bound >= 2
