"""End-to-end integration tests across the whole stack.

These pin the load-bearing equivalences of the reproduction:

* the message-level protocol oracle (``tests/protocol_reference.py``)
  executes the exact walk the lockstep engine computes, one walk at a time
  and many walks in one batch,
* the scalar-diffusion fast path used by experiment sweeps selects the exact
  hops the full embedding pipeline selects,
* the decentralized asynchronous diffusion supports search identically to
  the closed form,
* informed search beats blind search in aggregate.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.batch import run_queries
from repro.core.engine import WalkConfig, run_query
from repro.core.forwarding import (
    EmbeddingGuidedPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import grid_graph
from repro.graphs.metrics import bfs_distances
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.simulation.placement import build_stores, uniform_placement
from repro.utils.rng import spawn_rngs
from protocol_reference import event_search


@pytest.fixture(scope="module")
def pipeline(tiny_model, tiny_workload):
    """A placed, diffused network ready for queries."""
    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes=250, target_edges=3000, n_egos=5), seed=31
    )
    net = DiffusionSearchNetwork(graph, dim=tiny_model.dim, alpha=0.5)
    rng = np.random.default_rng(32)
    query, gold = tiny_workload.sample_case(rng)
    gold_node = int(rng.integers(net.n_nodes))
    net.place_document(gold, tiny_model.vector(gold), gold_node)
    for word in tiny_workload.sample_irrelevant(rng, 99):
        net.place_document(word, tiny_model.vector(word), int(rng.integers(net.n_nodes)))
    net.diffuse(tol=1e-10)
    return net, tiny_model, query, gold, gold_node


class TestFullPipeline:
    def test_distance_zero_always_succeeds(self, pipeline):
        net, model, query, gold, gold_node = pipeline
        result = net.search(model.vector(query), gold_node, ttl=50)
        assert result.found(gold, top=1)
        assert result.hops_to(gold) == 0

    def test_neighbors_reach_gold(self, pipeline):
        """Paper headline: the scheme excels within 1-2 hops at low M."""
        net, model, query, gold, gold_node = pipeline
        distances = bfs_distances(net.adjacency, gold_node)
        hits = total = 0
        for start in np.flatnonzero(distances == 1)[:10]:
            result = net.search(model.vector(query), int(start), ttl=50)
            hits += result.found(gold, top=1)
            total += 1
        assert hits / total >= 0.7

    def test_search_result_consistency(self, pipeline):
        net, model, query, gold, gold_node = pipeline
        result = net.search(model.vector(query), (gold_node + 5) % net.n_nodes, ttl=50)
        # every reported hit must actually live on the node that reported it
        for item in result.results:
            assert item.doc_id in net.documents_at(item.node)
        # the walk never exceeds its TTL
        assert len(result.visits) <= 50


class TestEngineRuntimeEquivalence:
    """The lockstep engine against the message protocol, walk for walk."""

    @staticmethod
    def _network(tiny_model, tiny_workload, seed):
        rng = np.random.default_rng(seed)
        graph = facebook_like_graph(
            FacebookLikeConfig(n_nodes=120, target_edges=1200, n_egos=4),
            seed=seed + 100,
        )
        net = DiffusionSearchNetwork(graph, dim=tiny_model.dim, alpha=0.5)
        query, gold = tiny_workload.sample_case(rng)
        words = [gold] + tiny_workload.sample_irrelevant(rng, 39)
        for word in words:
            net.place_document(word, tiny_model.vector(word), int(rng.integers(120)))
        net.diffuse(tol=1e-10)
        return net, query, rng

    @staticmethod
    def _assert_same_walk(fast, slow):
        assert fast.path == slow.path
        assert [d.doc_id for d in fast.results] == [d.doc_id for d in slow.results]
        assert fast.discovered_at == slow.discovered_at

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_identical_walks(self, tiny_model, tiny_workload, seed):
        """Fast engine and message protocol: same path, same results."""
        net, query, rng = self._network(tiny_model, tiny_workload, seed)
        start = int(rng.integers(120))
        ttl = 25
        fast = net.search(tiny_model.vector(query), start, ttl=ttl, k=3)
        slow = event_search(net, tiny_model.vector(query), start, ttl=ttl, k=3)
        self._assert_same_walk(fast, slow)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_batch_matches_protocol(self, tiny_model, tiny_workload, seed):
        """Twenty walks in flight in one lockstep call, each with its own
        query, walk what the protocol walks for that query alone."""
        net, _, rng = self._network(tiny_model, tiny_workload, seed)
        words = [tiny_workload.sample_case(rng)[0] for _ in range(20)]
        queries = tiny_model.vectors_for(words)
        starts = rng.integers(120, size=20)
        batch = run_queries(
            net.adjacency,
            net.stores,
            net.default_policy(),
            queries,
            starts,
            WalkConfig(ttl=25, k=3),
        )
        assert len(batch) == 20
        for query, start, fast in zip(queries, starts, batch):
            slow = event_search(net, query, int(start), ttl=25, k=3)
            self._assert_same_walk(fast, slow)

    @staticmethod
    def _topology(name):
        if name == "path":
            return nx.path_graph(8)
        if name == "cycle":
            return nx.cycle_graph(9)
        if name == "star":
            return nx.star_graph(6)
        if name == "grid":
            return grid_graph(4, 4)
        # A path with two peers that hold no connection: walks started there
        # evaluate locally and end at once.
        graph = nx.path_graph(6)
        graph.add_nodes_from([6, 7])
        return graph

    @pytest.mark.parametrize("ttl", [1, 2, 9, 40])
    @pytest.mark.parametrize("topology", ["path", "cycle", "star", "grid", "isolated"])
    def test_every_start_on_small_topologies(self, topology, ttl):
        """Small overlays force dead ends, revisits and long backtracking
        chains: a walk from every node, in one batch, still walks what the
        protocol walks from that node."""
        rng = np.random.default_rng(ttl)
        net = DiffusionSearchNetwork(self._topology(topology), dim=6, alpha=0.5)
        for i in range(10):
            net.place_document(
                f"d{i}", rng.standard_normal(6), int(rng.integers(net.n_nodes))
            )
        net.diffuse(tol=1e-10)
        starts = np.arange(net.n_nodes)
        queries = rng.standard_normal((net.n_nodes, 6))
        batch = run_queries(
            net.adjacency,
            net.stores,
            net.default_policy(),
            queries,
            starts,
            WalkConfig(ttl=ttl, k=3),
        )
        for query, start, fast in zip(queries, starts, batch):
            slow = event_search(net, query, int(start), ttl=ttl, k=3)
            self._assert_same_walk(fast, slow)
            # One node evaluated per TTL unit; an unconnected peer only itself.
            degree = net.adjacency.degree(int(start))
            assert len(fast.path) == (ttl if degree else 1)

    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_result_sizes(self, tiny_model, tiny_workload, k):
        """From one best document to more than the network holds (40)."""
        net, query, rng = self._network(tiny_model, tiny_workload, 7)
        start = int(rng.integers(120))
        fast = net.search(tiny_model.vector(query), start, ttl=30, k=k)
        slow = event_search(net, tiny_model.vector(query), start, ttl=30, k=k)
        self._assert_same_walk(fast, slow)
        assert len(fast.results) == min(k, len(fast.discovered_at))


class TestScalarFastPathEquivalence:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_scores_equal_full_diffusion(self, tiny_model, small_world_adjacency, alpha):
        """PPR(E0) @ q == PPR(E0 @ q): the linearity the harness exploits."""
        rng = np.random.default_rng(7)
        adjacency = small_world_adjacency
        operator = transition_matrix(adjacency, "column")
        personalization = rng.standard_normal((adjacency.n_nodes, tiny_model.dim))
        query = rng.standard_normal(tiny_model.dim)
        ppr = PersonalizedPageRank(alpha, tol=1e-12)
        full = ppr.apply(operator, personalization) @ query
        scalar = ppr.apply(operator, personalization @ query)
        assert np.allclose(full, scalar, atol=1e-8)

    def test_identical_walks(self, tiny_model, tiny_workload):
        """A walk guided by precomputed scalar scores follows the exact path
        of a walk guided by the full diffused embedding matrix."""
        rng = np.random.default_rng(11)
        graph = facebook_like_graph(
            FacebookLikeConfig(n_nodes=150, target_edges=1500, n_egos=4), seed=50
        )
        adjacency = CompressedAdjacency.from_networkx(graph)
        operator = transition_matrix(adjacency, "column")

        query, gold = tiny_workload.sample_case(rng)
        words = [gold] + tiny_workload.sample_irrelevant(rng, 59)
        embeddings = tiny_model.vectors_for(words)
        nodes = uniform_placement(60, 150, seed=rng)
        stores = build_stores(words, embeddings, nodes, tiny_model.dim)
        query_embedding = tiny_model.vector(query)

        personalization = np.zeros((150, tiny_model.dim))
        np.add.at(personalization, nodes, embeddings)
        ppr = PersonalizedPageRank(0.5, tol=1e-12)
        diffused = ppr.apply(operator, personalization)
        scalar_scores = ppr.apply(operator, personalization @ query_embedding)

        config = WalkConfig(ttl=30, k=2)
        full_walk = run_query(
            adjacency, stores, EmbeddingGuidedPolicy(diffused),
            query_embedding, 10, config,
        )
        fast_walk = run_query(
            adjacency, stores, PrecomputedScorePolicy(scalar_scores),
            query_embedding, 10, config,
        )
        assert full_walk.path == fast_walk.path
        assert full_walk.discovered_at == fast_walk.discovered_at


class TestAsyncDiffusionSearch:
    def test_search_identical_after_async_warmup(self, tiny_model, tiny_workload):
        """Search over decentralized-diffused embeddings matches closed form."""
        rng = np.random.default_rng(13)
        graph = facebook_like_graph(
            FacebookLikeConfig(n_nodes=80, target_edges=700, n_egos=3), seed=60
        )
        net = DiffusionSearchNetwork(graph, dim=tiny_model.dim, alpha=0.5)
        query, gold = tiny_workload.sample_case(rng)
        for word in [gold] + tiny_workload.sample_irrelevant(rng, 19):
            net.place_document(word, tiny_model.vector(word), int(rng.integers(80)))

        exact = net.diffuse(method="solve").embeddings.copy()
        solve_result = net.search(tiny_model.vector(query), 5, ttl=20)

        net.diffuse(method="async", tol=1e-9, seed=1)
        async_result = net.search(tiny_model.vector(query), 5, ttl=20)

        assert np.max(np.abs(net.embeddings - exact)) < 1e-5
        assert solve_result.path == async_result.path
        assert [d.doc_id for d in solve_result.results] == [
            d.doc_id for d in async_result.results
        ]


class TestInformedBeatsBlind:
    def test_aggregate_success_rates(self, tiny_model, tiny_workload):
        graph = facebook_like_graph(
            FacebookLikeConfig(n_nodes=200, target_edges=2400, n_egos=5), seed=70
        )
        adjacency = CompressedAdjacency.from_networkx(graph)
        operator = transition_matrix(adjacency, "column")
        ppr = PersonalizedPageRank(0.5, tol=1e-10)
        config = WalkConfig(ttl=30, k=1)

        informed_hits = blind_hits = 0
        trials = 25
        for rng in spawn_rngs(77, trials):
            query, gold = tiny_workload.sample_case(rng)
            words = [gold] + tiny_workload.sample_irrelevant(rng, 49)
            embeddings = tiny_model.vectors_for(words)
            nodes = uniform_placement(50, 200, seed=rng)
            stores = build_stores(words, embeddings, nodes, tiny_model.dim)
            query_embedding = tiny_model.vector(query)
            signal = np.bincount(
                nodes, weights=embeddings @ query_embedding, minlength=200
            )
            scores = ppr.apply(operator, signal)
            start = int(rng.integers(200))
            informed = run_query(
                adjacency, stores, PrecomputedScorePolicy(scores),
                query_embedding, start, config,
            )
            blind = run_query(
                adjacency, stores, RandomWalkPolicy(),
                query_embedding, start, config, seed=rng,
            )
            informed_hits += informed.found(gold, top=1)
            blind_hits += blind.found(gold, top=1)
        assert informed_hits > blind_hits
