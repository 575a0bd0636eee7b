"""Tests for document placement strategies."""

import tracemalloc

import numpy as np
import pytest

from repro.retrieval.vector_store import DocumentStore
from repro.simulation.placement import (
    build_stores,
    community_correlated_placement,
    uniform_placement,
)


class TestUniformPlacement:
    def test_shape_and_range(self):
        nodes = uniform_placement(100, 10, seed=0)
        assert nodes.shape == (100,)
        assert nodes.min() >= 0 and nodes.max() < 10

    def test_deterministic(self):
        assert np.array_equal(
            uniform_placement(50, 7, seed=3), uniform_placement(50, 7, seed=3)
        )

    def test_roughly_uniform(self):
        nodes = uniform_placement(10_000, 10, seed=1)
        counts = np.bincount(nodes, minlength=10)
        assert counts.min() > 800 and counts.max() < 1200

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uniform_placement(0, 5)


class TestCorrelatedPlacement:
    def test_same_cluster_same_community(self):
        doc_clusters = np.array([0, 0, 0, 1, 1, 1])
        node_communities = np.array([0, 0, 0, 1, 1, 1])  # two communities
        nodes = community_correlated_placement(
            doc_clusters, node_communities, mixing=0.0, seed=0
        )
        # all docs of one cluster land inside a single community
        for cluster in (0, 1):
            placed = nodes[doc_clusters == cluster]
            communities = set(node_communities[placed])
            assert len(communities) == 1

    def test_unclustered_docs_place_anywhere(self):
        doc_clusters = np.full(200, -1)
        node_communities = np.array([0] * 5 + [1] * 5)
        nodes = community_correlated_placement(
            doc_clusters, node_communities, seed=1
        )
        assert set(node_communities[nodes]) == {0, 1}

    def test_full_mixing_is_uniform_spread(self):
        doc_clusters = np.zeros(500, dtype=int)
        node_communities = np.array([0] * 5 + [1] * 5)
        nodes = community_correlated_placement(
            doc_clusters, node_communities, mixing=1.0, seed=2
        )
        # with mixing=1 every doc escapes: both communities get plenty
        fractions = np.bincount(node_communities[nodes], minlength=2) / 500
        assert fractions.min() > 0.3

    def test_deterministic(self):
        doc_clusters = np.array([0, 1, 2, 0, 1, 2])
        node_communities = np.arange(10) % 3
        a = community_correlated_placement(doc_clusters, node_communities, seed=5)
        b = community_correlated_placement(doc_clusters, node_communities, seed=5)
        assert np.array_equal(a, b)

    def test_empty_communities_rejected(self):
        with pytest.raises(ValueError):
            community_correlated_placement(np.zeros(3, int), np.array([], dtype=int))


class TestBuildStores:
    def test_groups_by_node(self):
        doc_ids = ["a", "b", "c", "d"]
        embeddings = np.eye(4)
        nodes = np.array([2, 0, 2, 5])
        stores = build_stores(doc_ids, embeddings, nodes, dim=4)
        assert sorted(stores) == [0, 2, 5]
        assert sorted(stores[2].doc_ids) == ["a", "c"]
        assert stores[0].doc_ids == ["b"]

    def test_embeddings_preserved(self):
        doc_ids = ["a", "b"]
        embeddings = np.array([[1.0, 2.0], [3.0, 4.0]])
        nodes = np.array([1, 1])
        stores = build_stores(doc_ids, embeddings, nodes, dim=2)
        assert np.allclose(stores[1].embedding_of("b"), [3.0, 4.0])

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_stores(["a"], np.eye(2), np.array([0, 1]), dim=2)

    def test_large_batch_matches_individual_adds(self):
        rng = np.random.default_rng(0)
        n = 500
        doc_ids = [f"d{i}" for i in range(n)]
        embeddings = rng.standard_normal((n, 8))
        nodes = rng.integers(0, 20, size=n)
        stores = build_stores(doc_ids, embeddings, nodes, dim=8)
        total = sum(len(store) for store in stores.values())
        assert total == n
        # spot-check a few documents land on the right node with right vector
        for i in (0, 123, 499):
            node = int(nodes[i])
            assert np.allclose(stores[node].embedding_of(f"d{i}"), embeddings[i])


@pytest.fixture
def built(monkeypatch):
    """Every ``DocumentStore.from_documents`` call, as its list of doc ids."""
    calls = []
    original = DocumentStore.from_documents

    def counting(dim, doc_ids, embeddings):
        doc_ids = list(doc_ids)
        calls.append(doc_ids)
        return original(dim, doc_ids, embeddings)

    monkeypatch.setattr(DocumentStore, "from_documents", staticmethod(counting))
    return calls


class TestLazyStores:
    def test_built_on_first_access_then_cached(self, built):
        stores = build_stores(["a", "b", "c"], np.eye(3), np.array([4, 1, 4]), dim=3)
        assert built == []
        first = stores[4]
        assert built == [["a", "c"]]
        assert stores[4] is first
        assert stores.get(4) is first
        assert built == [["a", "c"]]

    def test_unread_node_never_built(self, built):
        stores = build_stores(
            ["a", "b", "c", "d"], np.eye(4), np.array([0, 1, 2, 3]), dim=4
        )
        assert len(stores) == 4
        assert list(stores) == [0, 1, 2, 3]
        assert 2 in stores and 7 not in stores
        assert built == []
        assert stores[2].doc_ids == ["c"]
        assert built == [["c"]]

    def test_ascending_iteration_and_missing_nodes(self):
        stores = build_stores(
            ["a", "b", "c", "d"], np.eye(4), np.array([5, 0, 3, 0]), dim=4
        )
        assert list(stores) == [0, 3, 5]
        assert [store.doc_ids for store in stores.values()] == [["b", "d"], ["c"], ["a"]]
        for node in (1, 4, 6, -1):
            with pytest.raises(KeyError):
                stores[node]
        assert stores.get(1) is None

    def test_read_only(self):
        stores = build_stores(["a"], np.eye(1), np.array([0]), dim=1)
        with pytest.raises(TypeError):
            stores[0] = DocumentStore(1)

    def test_empty_placement(self):
        stores = build_stores([], np.empty((0, 3)), np.empty(0, dtype=np.int64), dim=3)
        assert len(stores) == 0 and list(stores) == []

    @pytest.mark.parametrize(
        "doc_ids, embeddings, nodes, dim",
        [
            (["a", "b"], np.eye(2), np.array([0]), 2),
            (["a", "b"], np.eye(2), np.array([[0, 1]]), 2),
            (["a", "b"], np.ones((2, 3)), np.array([0, 1]), 2),
            (["a", "b"], np.ones(2), np.array([0, 1]), 2),
            (["a", "b"], np.ones((2, 0)), np.array([0, 1]), 0),
        ],
        ids=["short-nodes", "2-d-nodes", "wide", "1-d", "zero-dim"],
    )
    def test_bad_inputs_rejected_at_construction(
        self, built, doc_ids, embeddings, nodes, dim
    ):
        with pytest.raises(ValueError):
            build_stores(doc_ids, embeddings, nodes, dim=dim)
        assert built == []

    def test_rows_select_vocabulary_entries(self):
        vocabulary = np.arange(12.0).reshape(4, 3)
        vocabulary.flags.writeable = False
        stores = build_stores(
            ["w0", "w1", "w2", "w3"], vocabulary, np.array([1, 0, 1]), dim=3,
            rows=np.array([3, 0, 2]),
        )
        assert stores[1].doc_ids == ["w3", "w2"]
        assert np.array_equal(stores[1].matrix(), vocabulary[[3, 2]])
        assert stores[0].doc_ids == ["w0"]

    @pytest.mark.parametrize(
        "rows, nodes",
        [([0, 4], [0, 1]), ([-1, 0], [0, 1]), ([0, 1, 2], [0, 1])],
        ids=["past-end", "negative", "misaligned"],
    )
    def test_bad_rows_rejected_at_construction(self, built, rows, nodes):
        with pytest.raises(ValueError):
            build_stores(
                ["w0", "w1", "w2", "w3"], np.eye(4), np.array(nodes), dim=4,
                rows=np.array(rows),
            )
        assert built == []

    @pytest.mark.parametrize("with_rows", [False, True])
    def test_snapshot_of_caller_arrays(self, with_rows):
        doc_ids = ["a", "b", "c"]
        embeddings = np.arange(9.0).reshape(3, 3)
        nodes = np.array([2, 2, 0])
        rows = np.array([0, 1, 2]) if with_rows else None
        stores = build_stores(doc_ids, embeddings, nodes, dim=3, rows=rows)
        embeddings[:] = -1.0
        doc_ids[0] = "z"
        nodes[:] = 1
        if rows is not None:
            rows[:] = 0
        assert list(stores) == [0, 2]
        assert stores[2].doc_ids == ["a", "b"]
        assert np.array_equal(stores[2].matrix(), [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert np.array_equal(stores[0].matrix(), [[6.0, 7.0, 8.0]])

    @pytest.mark.parametrize("writeable", [False, True])
    def test_vocabulary_copied_only_when_writeable(self, writeable):
        # The simulation hands over its read-only vocabulary every iteration;
        # copying it each time would cost far more than the few rows read.
        vocabulary = np.zeros((4000, 100))
        vocabulary.flags.writeable = writeable
        ids = [f"w{i}" for i in range(4000)]
        tracemalloc.start()
        try:
            build_stores(ids, vocabulary, np.array([0, 0, 1]), dim=100, rows=np.array([1, 2, 3]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak >= vocabulary.nbytes) is writeable
