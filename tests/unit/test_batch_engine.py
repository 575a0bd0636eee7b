"""Walk-engine equivalence with the scalar oracle (the contract of repro.core.batch).

For deterministic policies every ``SearchResult`` field produced by
``run_queries`` must be bit-identical to a loop of the scalar reference walk
(``tests/scalar_reference.py``) over the same walks; stochastic policies get
per-walk spawned generators and are checked for determinism-under-seed and
structural validity instead.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.batch import run_queries
from repro.core.engine import WalkConfig, run_query
from repro.core.forwarding import (
    DegreeBiasedPolicy,
    EmbeddingGuidedPolicy,
    ForwardingPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import coerce_sparse_signal
from repro.retrieval.vector_store import DocumentStore
from repro.simulation.placement import build_stores
from scalar_reference import scalar_run_query


def make_stores(adjacency, rng, n_store_nodes, dim, docs_per_node=3):
    stores = {}
    for node in rng.choice(adjacency.n_nodes, size=n_store_nodes, replace=False):
        store = DocumentStore(dim)
        for d in range(int(rng.integers(1, docs_per_node + 1))):
            store.add(f"d{node}_{d}", rng.standard_normal(dim))
        stores[int(node)] = store
    return stores


def assert_results_identical(batch_results, scalar_results):
    assert len(batch_results) == len(scalar_results)
    for got, want in zip(batch_results, scalar_results):
        assert got.query_id == want.query_id
        assert got.start_node == want.start_node
        assert got.visits == want.visits
        assert got.messages == want.messages
        assert got.discovered_at == want.discovered_at
        assert [(d.doc_id, d.score, d.node) for d in got.results] == [
            (d.doc_id, d.score, d.node) for d in want.results
        ]


@pytest.fixture(scope="module")
def setting(small_world_adjacency):
    rng = np.random.default_rng(7)
    dim = 16
    return {
        "adjacency": small_world_adjacency,
        "rng": rng,
        "dim": dim,
        "stores": make_stores(small_world_adjacency, rng, 20, dim),
        "query": rng.standard_normal(dim),
        "embeddings": rng.standard_normal((small_world_adjacency.n_nodes, dim)),
        "starts": list(range(0, small_world_adjacency.n_nodes, 6)),
    }


#: The embedding caches a policy can score: the dense matrix, and the row
#: blocks the sparse diffusion backend hands the serving path.
CACHES = ["dense", "block-float64", "block-float32"]


def embedding_cache(setting, cache):
    """The setting's embeddings as ``cache``; blocks hold no row for every
    fifth node and zero most entries of the rows they hold."""
    dense = setting["embeddings"]
    if cache == "dense":
        return dense
    keep = np.random.default_rng(11).random(dense.shape) < 0.4
    pruned = np.where(keep, dense, 0.0)
    pruned[::5] = 0.0
    dtype = np.float32 if cache == "block-float32" else np.float64
    return coerce_sparse_signal(pruned, pruned.shape[0], dtype)[0]


def run_both(setting, policies, *, config, query=None):
    starts = setting["starts"]
    query = setting["query"] if query is None else query
    batch = run_queries(
        setting["adjacency"],
        setting["stores"],
        policies,
        query,
        starts,
        config,
        query_ids=[f"q{i}" for i in range(len(starts))],
        seed=1,
    )
    policy_list = (
        policies if isinstance(policies, list) else [policies] * len(starts)
    )
    scalar = [
        scalar_run_query(
            setting["adjacency"],
            setting["stores"],
            policy,
            query,
            start,
            config,
            query_id=f"q{i}",
            seed=2,
        )
        for i, (policy, start) in enumerate(zip(policy_list, starts))
    ]
    return batch, scalar


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("fanout", [1, 3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_precomputed_policy(self, setting, fanout, k):
        policy = PrecomputedScorePolicy(
            np.random.default_rng(0).standard_normal(setting["adjacency"].n_nodes)
        )
        config = WalkConfig(ttl=15, fanout=fanout, k=k)
        batch, scalar = run_both(setting, policy, config=config)
        assert_results_identical(batch, scalar)

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("fanout", [1, 2])
    def test_embedding_guided_policy(self, setting, fanout, cache):
        policy = EmbeddingGuidedPolicy(embedding_cache(setting, cache))
        config = WalkConfig(ttl=12, fanout=fanout, k=2)
        batch, scalar = run_both(setting, policy, config=config)
        assert_results_identical(batch, scalar)

    @pytest.mark.parametrize("fanout", [1, 2])
    def test_degree_biased_policy(self, setting, fanout):
        policy = DegreeBiasedPolicy(setting["adjacency"])
        config = WalkConfig(ttl=12, fanout=fanout, k=1)
        batch, scalar = run_both(setting, policy, config=config)
        assert_results_identical(batch, scalar)

    def test_mixed_policies_per_walk(self, setting):
        """One policy per walk (the accuracy driver's shape)."""
        rng = np.random.default_rng(3)
        n = setting["adjacency"].n_nodes
        distinct = [PrecomputedScorePolicy(rng.standard_normal(n)) for _ in range(3)]
        policies = [distinct[i % 3] for i in range(len(setting["starts"]))]
        batch, scalar = run_both(setting, policies, config=WalkConfig(ttl=20))
        assert_results_identical(batch, scalar)

    @pytest.mark.parametrize("cache", CACHES)
    def test_per_walk_query_embeddings(self, setting, cache):
        rng = np.random.default_rng(4)
        queries = rng.standard_normal((len(setting["starts"]), setting["dim"]))
        policy = EmbeddingGuidedPolicy(embedding_cache(setting, cache))
        config = WalkConfig(ttl=10, k=2)
        batch = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            queries,
            setting["starts"],
            config,
        )
        scalar = [
            scalar_run_query(
                setting["adjacency"],
                setting["stores"],
                policy,
                queries[i],
                start,
                config,
            )
            for i, start in enumerate(setting["starts"])
        ]
        assert_results_identical(batch, scalar)

    def test_non_finite_scores_fall_back_and_match(self, setting):
        """-inf scores bypass the fused argmax but stay bit-identical."""
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(setting["adjacency"].n_nodes)
        scores[::7] = -np.inf
        policy = PrecomputedScorePolicy(scores)
        batch, scalar = run_both(setting, policy, config=WalkConfig(ttl=10))
        assert_results_identical(batch, scalar)


class TestEdgeCases:
    def test_ttl_exhaustion_single_hop(self, setting):
        """TTL 1 evaluates only the source; no messages are sent."""
        policy = RandomWalkPolicy()
        results = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            setting["starts"],
            WalkConfig(ttl=1),
            seed=0,
        )
        for result, start in zip(results, setting["starts"]):
            assert result.visits == [(0, start)]
            assert result.messages == 0

    def test_ttl_exceeding_graph(self, setting):
        """A TTL far beyond the node count still terminates and matches."""
        policy = PrecomputedScorePolicy(
            np.random.default_rng(1).standard_normal(setting["adjacency"].n_nodes)
        )
        batch, scalar = run_both(setting, policy, config=WalkConfig(ttl=150))
        assert_results_identical(batch, scalar)

    def test_footnote9_bounce_on_path_graph(self):
        """A dead-ended walk reconsiders all neighbors (footnote 9)."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(2))
        result = run_queries(
            adjacency,
            {},
            PrecomputedScorePolicy(np.zeros(2)),
            np.ones(2),
            [0],
            WalkConfig(ttl=5),
        )[0]
        assert result.path == [0, 1, 0, 1, 0]

    def test_footnote9_star_center_exhaustion(self):
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(2))
        result = run_queries(
            adjacency,
            {},
            PrecomputedScorePolicy(np.array([0.0, 1.0, 2.0])),
            np.ones(2),
            [0],
            WalkConfig(ttl=6),
        )[0]
        assert result.path[:4] == [0, 2, 0, 1]
        assert len(result.visits) == 6

    def test_isolated_node_stops(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        adjacency = CompressedAdjacency.from_networkx(graph)
        results = run_queries(
            adjacency, {}, RandomWalkPolicy(), np.ones(2), [0, 1], WalkConfig(ttl=5)
        )
        assert [r.path for r in results] == [[0], [1]]
        assert [r.messages for r in results] == [0, 0]

    def test_empty_batch(self, setting):
        assert run_queries(
            setting["adjacency"], {}, RandomWalkPolicy(), setting["query"], []
        ) == []

    def test_invalid_start_rejected(self, setting):
        with pytest.raises(ValueError, match="out of range"):
            run_queries(
                setting["adjacency"],
                {},
                RandomWalkPolicy(),
                setting["query"],
                [0, 10_000],
            )

    def test_mismatched_policy_count_rejected(self, setting):
        with pytest.raises(ValueError, match="policies"):
            run_queries(
                setting["adjacency"],
                {},
                [RandomWalkPolicy()],
                setting["query"],
                setting["starts"],
            )

    @pytest.mark.parametrize("call", ["run_query", "run_queries"])
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "unstacked"])
    @pytest.mark.parametrize("seed", ["abc", 1.5, object()], ids=["str", "float", "object"])
    def test_malformed_seed_rejected(self, setting, call, stacked, seed):
        """The stacked score path draws from no generator, yet a malformed
        seed is rejected there too, with ensure_rng's TypeError."""
        policy = (
            PrecomputedScorePolicy(setting["embeddings"] @ setting["query"])
            if stacked
            else EmbeddingGuidedPolicy(setting["embeddings"])
        )
        args = (setting["adjacency"], setting["stores"], policy, setting["query"])
        with pytest.raises(TypeError, match="seed must be"):
            if call == "run_query":
                run_query(*args, setting["starts"][0], seed=seed)
            else:
                run_queries(*args, setting["starts"], seed=seed)

    def test_mismatched_query_ids_rejected(self, setting):
        with pytest.raises(ValueError, match="query ids"):
            run_queries(
                setting["adjacency"],
                {},
                RandomWalkPolicy(),
                setting["query"],
                setting["starts"],
                query_ids=["only-one"],
            )


class TestStochasticPolicies:
    def test_random_walk_deterministic_under_seed(self, setting):
        policy = RandomWalkPolicy()
        config = WalkConfig(ttl=10, fanout=2)
        a = run_queries(
            setting["adjacency"], setting["stores"], policy,
            setting["query"], setting["starts"], config, seed=11,
        )
        b = run_queries(
            setting["adjacency"], setting["stores"], policy,
            setting["query"], setting["starts"], config, seed=11,
        )
        assert [r.visits for r in a] == [r.visits for r in b]

    def test_random_walk_valid_structure(self, setting):
        """Every hop crosses a real edge and respects the TTL bound."""
        adjacency = setting["adjacency"]
        results = run_queries(
            adjacency, setting["stores"], RandomWalkPolicy(),
            setting["query"], setting["starts"], WalkConfig(ttl=8), seed=5,
        )
        for result, start in zip(results, setting["starts"]):
            assert result.visits[0] == (0, start)
            assert len(result.visits) <= 8
            walker = {0: [start]}
            for hop, node in result.visits[1:]:
                assert any(
                    adjacency.has_edge(parent, node)
                    for parent in walker.get(hop - 1, [])
                )
                walker.setdefault(hop, []).append(node)

    def test_chunked_batches_stay_equivalent(self, setting, monkeypatch):
        """A tiny visited-edge budget forces chunking; results must match."""
        from repro.core import batch as batch_module

        policy = PrecomputedScorePolicy(
            np.random.default_rng(6).standard_normal(setting["adjacency"].n_nodes)
        )
        config = WalkConfig(ttl=12, k=2)
        unchunked = run_queries(
            setting["adjacency"], setting["stores"], policy,
            setting["query"], setting["starts"], config, seed=1,
        )
        monkeypatch.setattr(batch_module, "VISITED_BUDGET_BYTES", 1)
        chunked = run_queries(
            setting["adjacency"], setting["stores"], policy,
            setting["query"], setting["starts"], config, seed=1,
        )
        assert_results_identical(chunked, unchunked)

    def test_per_walk_streams_are_independent(self, setting):
        """Walks from the same start with the same policy diverge."""
        starts = [setting["starts"][0]] * 8
        results = run_queries(
            setting["adjacency"], {}, RandomWalkPolicy(),
            setting["query"], starts, WalkConfig(ttl=6), seed=9,
        )
        paths = {tuple(r.path) for r in results}
        assert len(paths) > 1


class _EveryOtherPolicy(ForwardingPolicy):
    """Deterministic custom policy without a select_batch override."""

    def select(self, query_embedding, candidates, fanout, rng):
        candidates = np.asarray(candidates, dtype=np.int64)
        return candidates[::2][:fanout]


class _RoguePolicy(ForwardingPolicy):
    """Violates the contract: returns nodes outside its candidates."""

    def select(self, query_embedding, candidates, fanout, rng):
        return np.asarray([10_000_000], dtype=np.int64)


class TestCustomPolicies:
    def test_scalar_fallback_matches_run_query(self, setting):
        policy = _EveryOtherPolicy()
        batch, scalar = run_both(setting, policy, config=WalkConfig(ttl=10))
        assert_results_identical(batch, scalar)

    def test_contract_violation_is_reported(self, setting):
        with pytest.raises(ValueError, match="outside its candidate set"):
            run_queries(
                setting["adjacency"], {}, _RoguePolicy(),
                setting["query"], setting["starts"], WalkConfig(ttl=5),
            )


class TestHopBudgets:
    """Per-query deadline budgets match the scalar engine's semantics."""

    def _policy(self, setting):
        return PrecomputedScorePolicy(setting["embeddings"] @ setting["query"])

    def test_mixed_budgets_match_scalar(self, setting):
        policy = self._policy(setting)
        config = WalkConfig(ttl=12)
        starts = setting["starts"]
        budgets = [(3 if i % 3 == 0 else (7 if i % 3 == 1 else 12)) for i in range(len(starts))]
        batch = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            starts,
            config,
            hop_budgets=budgets,
        )
        for i, (result, budget) in enumerate(zip(batch, budgets)):
            scalar = scalar_run_query(
                setting["adjacency"],
                setting["stores"],
                policy,
                setting["query"],
                starts[i],
                config,
                hop_budget=budget,
            )
            assert result.visits == scalar.visits
            assert result.degraded == scalar.degraded
            assert result.deadline_hit == scalar.deadline_hit
            assert [(d.doc_id, d.score, d.node) for d in result.results] == [
                (d.doc_id, d.score, d.node) for d in scalar.results
            ]

    def test_budget_truncates_only_capped_queries(self, setting):
        policy = self._policy(setting)
        config = WalkConfig(ttl=10)
        starts = setting["starts"][:4]
        budgets = [2, 10, 3, 10]
        batch = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            starts,
            config,
            hop_budgets=budgets,
        )
        for result, budget in zip(batch, budgets):
            assert len(result.visits) <= budget
            if budget < config.ttl and len(result.visits) == budget:
                assert result.degraded and result.deadline_hit
            if budget >= config.ttl:
                assert not result.deadline_hit

    def test_none_budgets_bit_identical(self, setting):
        policy = self._policy(setting)
        config = WalkConfig(ttl=10)
        baseline = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            setting["starts"],
            config,
        )
        ttl_budgets = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            setting["starts"],
            config,
            hop_budgets=[config.ttl] * len(setting["starts"]),
        )
        assert_results_identical(ttl_budgets, baseline)
        for result in ttl_budgets:
            assert not result.degraded and not result.deadline_hit

    def test_budget_validation(self, setting):
        policy = self._policy(setting)
        kwargs = dict(
            config=WalkConfig(ttl=5),
        )
        with pytest.raises(ValueError):
            run_queries(
                setting["adjacency"],
                setting["stores"],
                policy,
                setting["query"],
                setting["starts"],
                hop_budgets=[0] * len(setting["starts"]),
                **kwargs,
            )
        with pytest.raises(TypeError):
            run_queries(
                setting["adjacency"],
                setting["stores"],
                policy,
                setting["query"],
                setting["starts"],
                hop_budgets=[1.5] * len(setting["starts"]),
                **kwargs,
            )
        with pytest.raises(ValueError):
            run_queries(
                setting["adjacency"],
                setting["stores"],
                policy,
                setting["query"],
                setting["starts"],
                hop_budgets=[3],  # wrong length
                **kwargs,
            )

    def test_budgets_survive_chunking(self, setting, monkeypatch):
        import repro.core.batch as batch_mod

        policy = self._policy(setting)
        config = WalkConfig(ttl=8)
        budgets = [3 + (i % 5) for i in range(len(setting["starts"]))]
        whole = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            setting["starts"],
            config,
            hop_budgets=budgets,
        )
        monkeypatch.setattr(batch_mod, "VISITED_BUDGET_BYTES", 1)
        chunked = run_queries(
            setting["adjacency"],
            setting["stores"],
            policy,
            setting["query"],
            setting["starts"],
            config,
            hop_budgets=budgets,
        )
        assert_results_identical(chunked, whole)
        assert [r.deadline_hit for r in chunked] == [r.deadline_hit for r in whole]


class TestLazyStores:
    """Walks over a ``build_stores`` mapping build only the stores they visit,
    and the engine reads an empty store as no store."""

    @pytest.fixture
    def placed(self, setting, monkeypatch):
        n, dim = setting["adjacency"].n_nodes, setting["dim"]
        rng = np.random.default_rng(3)
        count = 2 * n
        doc_ids = [f"p{i}" for i in range(count)]
        embeddings = rng.standard_normal((count, dim))
        nodes = rng.integers(0, n, size=count)
        node_of = dict(zip(doc_ids, nodes.tolist()))
        built: list[int] = []
        original = DocumentStore.from_documents

        def counting(dim, ids, matrix):
            ids = list(ids)
            built.append(node_of[ids[0]])
            return original(dim, ids, matrix)

        monkeypatch.setattr(DocumentStore, "from_documents", staticmethod(counting))

        def place():
            return build_stores(doc_ids, embeddings, nodes, dim)

        return place, built

    @staticmethod
    def visited(results):
        return {node for result in results for _, node in result.visits}

    def test_run_queries_builds_only_visited_stores(self, setting, placed):
        place, built = placed
        stores = place()
        policy = PrecomputedScorePolicy(
            np.random.default_rng(0).standard_normal(setting["adjacency"].n_nodes)
        )
        config = WalkConfig(ttl=5, k=2)
        starts = [0, 20, 40]
        results = run_queries(
            setting["adjacency"], stores, policy, setting["query"], starts, config
        )
        assert sorted(built) == sorted(self.visited(results) & set(stores))
        assert len(built) < len(stores)
        eager = dict(place().items())
        assert_results_identical(
            results,
            run_queries(setting["adjacency"], eager, policy, setting["query"], starts, config),
        )

    def test_run_query_builds_only_visited_stores(self, setting, placed):
        place, built = placed
        stores = place()
        policy = EmbeddingGuidedPolicy(setting["embeddings"])
        config = WalkConfig(ttl=6, k=2)
        result = run_query(setting["adjacency"], stores, policy, setting["query"], 7, config)
        assert sorted(built) == sorted(self.visited([result]) & set(stores))
        assert len(built) < len(stores)

    def test_store_map_is_never_iterated(self, setting):
        """Stores are looked up for visited nodes only, so a call costs
        nothing per unvisited store, however large the map."""

        class NoIteration(dict):
            def __iter__(self):
                raise AssertionError("the engine iterated the store map")

        policy = PrecomputedScorePolicy(
            np.random.default_rng(2).standard_normal(setting["adjacency"].n_nodes)
        )
        config = WalkConfig(ttl=12, fanout=2, k=2)
        args = (policy, setting["query"], setting["starts"], config)
        assert_results_identical(
            run_queries(setting["adjacency"], NoIteration(setting["stores"]), *args),
            run_queries(setting["adjacency"], setting["stores"], *args),
        )

    def test_extra_empty_store_changes_nothing(self, setting):
        adjacency, stores = setting["adjacency"], setting["stores"]
        empty_node = next(v for v in range(adjacency.n_nodes) if v not in stores)
        padded = {**stores, empty_node: DocumentStore(setting["dim"])}
        policy = PrecomputedScorePolicy(
            np.random.default_rng(4).standard_normal(adjacency.n_nodes)
        )
        config = WalkConfig(ttl=20, fanout=2, k=3)
        # Starting at the empty node guarantees the walk visits it.
        starts = [empty_node, *setting["starts"]]
        ids = [f"q{i}" for i in range(len(starts))]
        plain = run_queries(
            adjacency, stores, policy, setting["query"], starts, config, query_ids=ids
        )
        assert_results_identical(
            run_queries(
                adjacency, padded, policy, setting["query"], starts, config,
                query_ids=ids,
            ),
            plain,
        )
        assert all(result.results for result in plain)
