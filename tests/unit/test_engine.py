"""Tests for the walk engine (Fig. 1 semantics)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.core.engine import SearchResult, WalkConfig, run_query
from repro.core.forwarding import PrecomputedScorePolicy, RandomWalkPolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector, FaultPlan


def make_store(dim, **docs):
    store = DocumentStore(dim)
    for doc_id, vector in docs.items():
        store.add(doc_id, np.asarray(vector, dtype=float))
    return store


@pytest.fixture
def path_adjacency():
    return CompressedAdjacency.from_networkx(nx.path_graph(6))


class TestWalkMechanics:
    def test_visits_start_at_source(self, path_adjacency):
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=2,
            config=WalkConfig(ttl=3),
        )
        assert result.visits[0] == (0, 2)

    def test_ttl_bounds_visits(self, path_adjacency):
        """TTL t evaluates at most t nodes (source at hop 0 .. hop t−1)."""
        scores = np.arange(6, dtype=float)  # walk greedily right
        for ttl in (1, 2, 4):
            result = run_query(
                path_adjacency,
                {},
                PrecomputedScorePolicy(scores),
                np.ones(2),
                start_node=0,
                config=WalkConfig(ttl=ttl),
            )
            assert len(result.visits) == min(ttl, 6)
            assert result.hops_used == len(result.visits) - 1

    def test_greedy_path_follows_scores(self, path_adjacency):
        scores = np.arange(6, dtype=float)
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=6),
        )
        assert result.path == [0, 1, 2, 3, 4, 5]

    def test_memory_prevents_immediate_backtrack(self, path_adjacency):
        """In the middle of a path, the walk cannot bounce straight back."""
        scores = np.array([100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            start_node=2,
            config=WalkConfig(ttl=3),
        )
        # From 2 the best neighbor is 1 (score 0 vs 0, tie -> smaller id),
        # from 1 candidates exclude 2 (just interacted) so it must go to 0.
        assert result.path == [2, 1, 0]

    def test_fallback_when_all_neighbors_visited(self):
        """Footnote 9: a dead-ended walk reconsiders all neighbors."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.zeros(2)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=5),
        )
        # only one edge: the walk has to bounce 0-1-0-1-0
        assert result.path == [0, 1, 0, 1, 0]

    def test_isolated_node_stops(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        adjacency = CompressedAdjacency.from_networkx(graph)
        result = run_query(
            adjacency,
            {},
            RandomWalkPolicy(),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=5),
        )
        assert result.path == [0]
        assert result.messages == 0

    def test_messages_equal_forwards(self, path_adjacency):
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=4),
        )
        assert result.messages == len(result.visits) - 1

    def test_invalid_start_rejected(self, path_adjacency):
        with pytest.raises(ValueError):
            run_query(
                path_adjacency, {}, RandomWalkPolicy(), np.ones(2), start_node=99
            )

    @pytest.mark.parametrize("query_id", [None, "q", ("q", 3)])
    def test_query_id_returned_unchanged(self, path_adjacency, query_id):
        """A tuple id is one walk's id, not one id per walk."""
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=3),
            query_id=query_id,
        )
        assert result.query_id == query_id
        assert type(result.query_id) is type(query_id)


class TestDocumentCollection:
    def test_collects_local_documents(self, path_adjacency):
        stores = {
            0: make_store(2, near=[1.0, 0.0]),
            2: make_store(2, far=[0.9, 0.0]),
        }
        result = run_query(
            path_adjacency,
            stores,
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=3, k=2),
        )
        assert result.found("near")
        assert result.found("far")
        assert result.hops_to("near") == 0
        assert result.hops_to("far") == 2

    def test_top1_keeps_only_best(self, path_adjacency):
        stores = {
            0: make_store(2, weak=[0.1, 0.0]),
            1: make_store(2, strong=[1.0, 0.0]),
        }
        result = run_query(
            path_adjacency,
            stores,
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=2, k=1),
        )
        assert result.found("strong", top=1)
        assert not result.found("weak")
        assert result.best.doc_id == "strong"

    def test_found_top_parameter(self, path_adjacency):
        stores = {0: make_store(2, a=[1.0, 0.0], b=[0.5, 0.0])}
        result = run_query(
            path_adjacency,
            stores,
            RandomWalkPolicy(),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=1, k=2),
        )
        assert result.found("b")
        assert not result.found("b", top=1)

    def test_discovery_hop_is_first_visit(self):
        """Re-visiting a node does not overwrite the discovery hop."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        stores = {0: make_store(2, doc=[1.0, 0.0])}
        result = run_query(
            adjacency,
            stores,
            PrecomputedScorePolicy(np.zeros(2)),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=5, k=1),
        )
        assert result.path == [0, 1, 0, 1, 0]
        assert result.hops_to("doc") == 0

    def test_hops_to_unknown_document(self, path_adjacency):
        result = run_query(
            path_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0
        )
        assert result.hops_to("ghost") is None


class TestParallelWalks:
    def test_fanout_spawns_walkers(self):
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(4))
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.array([0.0, 4.0, 3.0, 2.0, 1.0])),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=2, fanout=3),
        )
        # source + the 3 best-scoring leaves
        assert result.visits[0] == (0, 0)
        visited_leaves = {node for hop, node in result.visits if hop == 1}
        assert visited_leaves == {1, 2, 3}

    def test_fanout_finds_more(self, small_world_adjacency):
        """Parallel walks dominate a single walk on the same instance."""
        rng = np.random.default_rng(0)
        n = small_world_adjacency.n_nodes
        scores = rng.standard_normal(n)
        stores = {17: make_store(4, gold=[1.0, 0.0, 0.0, 0.0])}
        query = np.array([1.0, 0.0, 0.0, 0.0])
        single = run_query(
            small_world_adjacency, stores, PrecomputedScorePolicy(scores),
            query, 3, WalkConfig(ttl=10, fanout=1),
        )
        parallel = run_query(
            small_world_adjacency, stores, PrecomputedScorePolicy(scores),
            query, 3, WalkConfig(ttl=10, fanout=3),
        )
        assert parallel.unique_nodes_visited >= single.unique_nodes_visited
        assert parallel.messages >= single.messages


class TestSearchResultProperties:
    def test_empty_result_defaults(self, path_adjacency):
        result = run_query(
            path_adjacency, {}, RandomWalkPolicy(), np.ones(2), 0,
            WalkConfig(ttl=1),
        )
        assert result.results == []
        assert result.best is None
        assert result.hops_used == 0
        assert result.unique_nodes_visited == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(ttl=0)
        with pytest.raises(ValueError):
            WalkConfig(fanout=0)
        with pytest.raises(ValueError):
            WalkConfig(k=0)

    @pytest.mark.parametrize("field", ["ttl", "fanout", "k"])
    def test_config_rejects_negative_values(self, field):
        with pytest.raises(ValueError, match=field):
            WalkConfig(**{field: -3})

    @pytest.mark.parametrize(
        ("field", "value"),
        [("ttl", math.inf), ("ttl", 2.5), ("fanout", 1.5), ("k", 2.0), ("ttl", True)],
    )
    def test_config_rejects_non_integer_values(self, field, value):
        with pytest.raises(TypeError, match=field):
            WalkConfig(**{field: value})

    def test_config_defaults_are_papers(self):
        config = WalkConfig()
        assert (config.ttl, config.fanout, config.k) == (50, 1, 1)


class TestFootnote9Fallback:
    """``next_hops`` when every neighbor is already in per-node memory."""

    def test_star_center_reuses_exhausted_neighbors(self):
        """On a star, the center's memory fills up; TTL is still spent."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(2))
        # node 0 is the hub; leaves 1, 2.  Greedy scores prefer higher ids.
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.array([0.0, 1.0, 2.0])),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=6),
        )
        # hop 1: hub → 2 (best).  Back at the hub on hop 2, neighbor 1 is
        # still unvisited, so it is chosen; from hop 4 on every neighbor is
        # in memory and the fallback reconsiders all of them.
        assert result.path[:4] == [0, 2, 0, 1]
        assert len(result.visits) == 6  # the remaining TTL is not wasted

    def test_fallback_selects_best_scored_neighbor(self):
        """The fallback reapplies the policy, not arbitrary choice."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(3))
        scores = np.array([0.0, 5.0, 1.0, 2.0])
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=9),
        )
        # After all three leaves are in memory (hops 1-6 visit 1, 3, 2 by
        # score), the exhausted hub falls back to the full neighbor set and
        # the policy again picks the best-scored leaf, node 1.
        assert result.path[:6] == [0, 1, 0, 3, 0, 2]
        assert result.path[6:8] == [0, 1]

    def test_memory_is_symmetric(self):
        """Forwarding records the edge on both endpoints (paper §IV-C)."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(3))
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.array([0.0, 1.0, 2.0])),
            np.ones(2),
            start_node=1,
            config=WalkConfig(ttl=3),
        )
        # 1 → 2 (best); node 2's only neighbor (1) is already in its memory
        # from receiving the query, so the fallback sends it straight back.
        assert result.path == [1, 2, 1]


class TestEmptyNodes:
    """Nodes without documents serve nothing, in networks of any dim."""

    def test_networks_with_different_dims_do_not_interfere(self):
        """Regression: interleaved queries across dims stay independent."""
        from repro.core.search import DiffusionSearchNetwork

        graph = nx.path_graph(4)
        net3 = DiffusionSearchNetwork(graph, dim=3)
        net5 = DiffusionSearchNetwork(graph, dim=5)
        net3.place_document("g3", np.array([1.0, 0.0, 0.0]), 3)
        net5.place_document("g5", np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 3)
        net3.diffuse()
        net5.diffuse()

        # Interleave queries; each walk crosses empty nodes 0-2 and must see
        # only its own network's documents.
        for _ in range(2):
            r3 = net3.search(np.array([1.0, 0.0, 0.0]), start_node=0, ttl=4)
            r5 = net5.search(
                np.array([0.0, 1.0, 0.0, 0.0, 0.0]), start_node=0, ttl=4
            )
            assert [d.doc_id for d in r3.results] == ["g3"]
            assert [d.doc_id for d in r5.results] == ["g5"]


class TestHopBudget:
    """Deadline budgets: min(ttl, hop_budget) horizon, explicit degradation."""

    def _run(self, adjacency, ttl, hop_budget, quarantine=None):
        return run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=ttl),
            hop_budget=hop_budget,
            quarantine=quarantine,
        )

    def test_budget_truncates_and_marks(self, path_adjacency):
        result = self._run(path_adjacency, ttl=6, hop_budget=3)
        assert len(result.visits) == 3
        assert result.degraded
        assert result.deadline_hit

    def test_budget_at_or_above_ttl_is_identical(self, path_adjacency):
        baseline = self._run(path_adjacency, ttl=4, hop_budget=None)
        for budget in (4, 5, 100):
            capped = self._run(path_adjacency, ttl=4, hop_budget=budget)
            assert capped.visits == baseline.visits
            assert not capped.degraded
            assert not capped.deadline_hit

    def test_budget_none_is_identical(self, path_adjacency):
        baseline = self._run(path_adjacency, ttl=4, hop_budget=None)
        assert not baseline.deadline_hit
        assert not baseline.degraded

    def test_budget_validation(self, path_adjacency):
        with pytest.raises(ValueError):
            self._run(path_adjacency, ttl=4, hop_budget=0)
        with pytest.raises(TypeError):
            self._run(path_adjacency, ttl=4, hop_budget=2.5)

    def test_partial_results_still_returned(self, path_adjacency):
        stores = {1: make_store(2, near=[1.0, 1.0])}
        result = run_query(
            path_adjacency,
            stores,
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=6),
            hop_budget=2,
        )
        # The truncated walk reached node 1; its document is in the partials.
        assert result.deadline_hit
        assert result.found("near")


def _trivial_injector(n_nodes):
    return FaultInjector(FaultPlan(n_nodes))


# The fault-free loop and the resilient loop (an injector that injects
# nothing) must treat a quarantine alike.
FAULT_MODES = pytest.mark.parametrize(
    "make_faults",
    [lambda n_nodes: None, _trivial_injector],
    ids=["faults=None", "trivial-injector"],
)


class TestQuarantine:
    @FAULT_MODES
    def test_quarantined_peer_avoided(self, path_adjacency, make_faults):
        # Greedy scores walk 0→1→2...; quarantining 1 strands the walk at 0
        # (path graph: node 0's only neighbor is 1).
        faults = make_faults(path_adjacency.n_nodes)
        result = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=4),
            faults=faults,
            quarantine=[1],
        )
        assert result.path == [0]
        if faults is not None:
            # The resilient walk reports its stranded walker.
            assert result.degraded
            assert result.walkers_lost == 1
            assert result.messages == 0

    @FAULT_MODES
    def test_quarantine_reroutes_around_peer(self, make_faults):
        # Star + rim: from the hub, the best-scoring rim node is quarantined,
        # so the walk takes the next-best.
        graph = nx.star_graph(3)  # hub 0, leaves 1..3
        adjacency = CompressedAdjacency.from_networkx(graph)
        result = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(np.array([0.0, 1.0, 2.0, 3.0])),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=2),
            faults=make_faults(adjacency.n_nodes),
            quarantine=[3],
        )
        assert result.path == [0, 2]

    @FAULT_MODES
    def test_out_of_range_peer_rejected(self, path_adjacency, make_faults):
        for peer in (-1, path_adjacency.n_nodes):
            with pytest.raises(ValueError, match=f"quarantine peer {peer}"):
                run_query(
                    path_adjacency,
                    {},
                    PrecomputedScorePolicy(np.arange(6, dtype=float)),
                    np.ones(2),
                    start_node=0,
                    config=WalkConfig(ttl=4),
                    faults=make_faults(path_adjacency.n_nodes),
                    quarantine=[2, peer],
                )

    def test_empty_quarantine_identical(self, path_adjacency):
        baseline = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=4),
        )
        quarantined = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.ones(2),
            start_node=0,
            config=WalkConfig(ttl=4),
            quarantine=[],
        )
        assert quarantined.visits == baseline.visits
