"""Tests for the classic topology generators (connectivity guarantee)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import connected_watts_strogatz, grid_graph


class TestConnectivity:
    def test_watts_strogatz(self):
        graph = connected_watts_strogatz(60, 6, 0.3, seed=0)
        assert nx.is_connected(graph)


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_watts_strogatz_repaired_when_fully_rewired(self, seed):
        """A ring of degree 2 with every edge rewired falls apart; the repair
        bridges the pieces with one edge each and adds nothing else."""
        graph = connected_watts_strogatz(200, 2, 1.0, seed=seed)
        # The unrepaired graph, from the generator's first draw.
        inner = int(np.random.default_rng(seed).integers(2**31))
        raw = nx.watts_strogatz_graph(200, 2, 1.0, seed=inner)
        pieces = nx.number_connected_components(raw)
        assert pieces > 1
        assert nx.is_connected(graph)
        assert set(raw.edges()) <= set(graph.edges())
        assert graph.number_of_edges() == raw.number_of_edges() + pieces - 1


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = connected_watts_strogatz(40, 4, 0.2, seed=9)
        b = connected_watts_strogatz(40, 4, 0.2, seed=9)
        assert set(a.edges()) == set(b.edges())


class TestGrid:
    def test_size_and_degrees(self):
        graph = grid_graph(3, 4)
        assert graph.number_of_nodes() == 12
        degrees = sorted(d for _, d in graph.degree())
        assert degrees[0] == 2  # corners
        assert degrees[-1] <= 4

    def test_integer_labels(self):
        graph = grid_graph(2, 2)
        assert set(graph.nodes()) == {0, 1, 2, 3}


class TestValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            connected_watts_strogatz(10, 2, 1.5)


class TestCycleUnionAdjacency:
    def test_structure(self):
        from repro.graphs.generators import cycle_union_adjacency

        adjacency = cycle_union_adjacency(500, 10, seed=3)
        assert adjacency.n_nodes == 500
        degrees = adjacency.degrees
        # union of 5 Hamiltonian cycles: degree 10 minus rare collisions
        assert degrees.min() >= 2
        assert degrees.max() <= 10
        assert degrees.mean() > 9.0

    def test_connected(self):
        from repro.graphs.generators import cycle_union_adjacency
        from repro.graphs.metrics import bfs_distances

        adjacency = cycle_union_adjacency(300, 4, seed=5)
        distances = bfs_distances(adjacency, 0)
        assert (distances >= 0).all()  # every node reachable

    def test_symmetric_and_sorted(self):
        import numpy as np

        from repro.graphs.generators import cycle_union_adjacency

        adjacency = cycle_union_adjacency(100, 6, seed=1)
        for node in range(0, 100, 17):
            neighbors = adjacency.neighbors(node)
            assert np.all(np.diff(neighbors) > 0)  # sorted, no duplicates
            for other in neighbors:
                assert adjacency.has_edge(int(other), node)

    def test_same_seed_same_graph(self):
        import numpy as np

        from repro.graphs.generators import cycle_union_adjacency

        a = cycle_union_adjacency(200, 8, seed=9)
        b = cycle_union_adjacency(200, 8, seed=9)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_too_small_rejected(self):
        import pytest

        from repro.graphs.generators import cycle_union_adjacency

        with pytest.raises(ValueError):
            cycle_union_adjacency(2, 4)


class TestCommunityCycleAdjacency:
    def test_connected_with_planted_blocks(self):
        import networkx as nx
        import numpy as np

        from repro.graphs.generators import community_cycle_adjacency

        adj = community_cycle_adjacency(
            400, degree=8, n_communities=4, cross_fraction=0.05, seed=1
        )
        assert adj.n_nodes == 400
        assert nx.is_connected(adj.to_networkx())
        # Near-regular: every node close to `degree` neighbors.
        assert abs(adj.degrees.mean() - 8) < 1.5
        # Most edges stay inside the contiguous 100-node blocks.
        src = np.repeat(np.arange(400), adj.degrees)
        same_block = (src // 100) == (adj.indices // 100)
        assert same_block.mean() > 0.85

    def test_deterministic(self):
        import numpy as np

        from repro.graphs.generators import community_cycle_adjacency

        a = community_cycle_adjacency(300, n_communities=3, seed=5)
        b = community_cycle_adjacency(300, n_communities=3, seed=5)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_too_few_nodes_per_community_raises(self):
        from repro.graphs.generators import community_cycle_adjacency

        with pytest.raises(ValueError):
            community_cycle_adjacency(8, n_communities=4)
