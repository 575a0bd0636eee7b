"""Tests for the experiment runner (IterationSampler + drivers)."""

import numpy as np
import pytest

from repro.graphs.communities import label_propagation_communities
from repro.graphs.metrics import bfs_distances
from repro.simulation.placement import uniform_placement
from repro.simulation.runner import (
    IterationSampler,
    run_accuracy_experiment,
    run_hop_count_experiment,
    sample_start_nodes,
)
from repro.simulation.scenario import AccuracyScenario, HopCountScenario
from scalar_reference import scalar_accuracy_experiment, scalar_hop_count_experiment


@pytest.fixture(scope="module")
def sampler(social_adjacency, tiny_workload):
    return IterationSampler(social_adjacency, tiny_workload)


@pytest.fixture(scope="module")
def social_adjacency():
    from repro.graphs.adjacency import CompressedAdjacency
    from repro.graphs.social import FacebookLikeConfig, facebook_like_graph

    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes=300, target_edges=3600, n_egos=6), seed=3
    )
    return CompressedAdjacency.from_networkx(graph)


@pytest.fixture(scope="module")
def tiny_workload():
    from repro.embeddings.synthetic import (
        SyntheticCorpusConfig,
        synthetic_word_embeddings,
    )
    from repro.simulation.workload import build_workload

    model = synthetic_word_embeddings(
        SyntheticCorpusConfig(
            n_words=2000, dim=64, n_clusters=150, intra_cluster_cosine=0.75
        ),
        seed=21,
    )
    return build_workload(model, n_queries=40, threshold=0.6, seed=22)


class TestIterationSampler:
    def test_document_count(self, sampler):
        rng = np.random.default_rng(0)
        data = sampler.sample(50, rng)
        total = sum(len(store) for store in data.stores.values())
        assert total == 50

    def test_gold_placed_at_gold_node(self, sampler):
        rng = np.random.default_rng(1)
        data = sampler.sample(20, rng)
        assert data.gold_word in data.stores[data.gold_node]

    def test_gold_is_gold_for_query(self, sampler, tiny_workload):
        rng = np.random.default_rng(2)
        data = sampler.sample(20, rng)
        assert data.gold_word in tiny_workload.gold_of[data.query_word]

    @pytest.mark.parametrize("n_documents", [1, 60])
    def test_draws_match_word_sampling(self, sampler, tiny_workload, n_documents):
        """Sampling rows makes the draws of sampling words, in the same order."""
        rng, clone = np.random.default_rng(12), np.random.default_rng(12)
        data = sampler.sample(n_documents, rng)
        query, gold = tiny_workload.sample_case(clone)
        words = [gold] + tiny_workload.sample_irrelevant(clone, n_documents - 1)
        nodes = uniform_placement(n_documents, sampler.adjacency.n_nodes, seed=clone)
        assert rng.bit_generator.state == clone.bit_generator.state
        assert (data.query_word, data.gold_word) == (query, gold)
        assert data.gold_node == nodes[0]
        placed: dict[int, list[str]] = {}
        for word, node in sorted(zip(words, nodes.tolist()), key=lambda p: p[1]):
            placed.setdefault(node, []).append(word)
        assert {node: store.doc_ids for node, store in data.stores.items()} == placed
        assert list(data.stores) == sorted(placed)

    def test_relevance_signal_matches_store_scores(self, sampler):
        """x0[u] must equal the summed doc scores at u (eq. 3)."""
        rng = np.random.default_rng(3)
        data = sampler.sample(30, rng)
        for node, store in data.stores.items():
            expected = store.score(data.query_embedding).sum()
            assert data.relevance_signal[node] == pytest.approx(expected)

    def test_relevance_signal_zero_elsewhere(self, sampler):
        rng = np.random.default_rng(4)
        data = sampler.sample(10, rng)
        occupied = set(data.stores)
        for node in range(sampler.adjacency.n_nodes):
            if node not in occupied:
                assert data.relevance_signal[node] == 0.0

    def test_diffuse_scores_matches_filter(self, sampler):
        from repro.gsp.filters import PersonalizedPageRank

        rng = np.random.default_rng(5)
        data = sampler.sample(10, rng)
        scores = sampler.diffuse_scores(data.relevance_signal, 0.5)
        expected = PersonalizedPageRank(0.5, tol=1e-10).apply(
            sampler.operator, data.relevance_signal
        )
        assert np.allclose(scores, expected)

    def test_weighting_variants_change_signal(self, social_adjacency, tiny_workload):
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        sum_sampler = IterationSampler(social_adjacency, tiny_workload, weighting="sum")
        mean_sampler = IterationSampler(
            social_adjacency, tiny_workload, weighting="mean"
        )
        a = sum_sampler.sample(40, rng_a)
        b = mean_sampler.sample(40, rng_b)
        # same placement (same rng seed), different aggregation where nodes
        # hold more than one document
        multi = [n for n, s in a.stores.items() if len(s) > 1]
        if multi:
            node = multi[0]
            assert a.relevance_signal[node] != pytest.approx(
                b.relevance_signal[node]
            )

    def test_l2_weighting_signal_normalized(self, social_adjacency, tiny_workload):
        sampler = IterationSampler(social_adjacency, tiny_workload, weighting="l2")
        rng = np.random.default_rng(7)
        data = sampler.sample(30, rng)
        for node, store in data.stores.items():
            raw = store.matrix().sum(axis=0)
            norm = np.linalg.norm(raw)
            expected = (raw / norm) @ data.query_embedding if norm > 0 else 0.0
            assert data.relevance_signal[node] == pytest.approx(expected)

    def test_correlated_placement_runs(self, social_adjacency, tiny_workload):
        communities = label_propagation_communities(social_adjacency, seed=0)
        sampler = IterationSampler(
            social_adjacency,
            tiny_workload,
            placement="correlated",
            communities=communities,
        )
        data = sampler.sample(30, np.random.default_rng(8))
        assert sum(len(s) for s in data.stores.values()) == 30

    def test_invalid_weighting_rejected(self, social_adjacency, tiny_workload):
        with pytest.raises(ValueError):
            IterationSampler(social_adjacency, tiny_workload, weighting="max")


class TestSampleStartNodes:
    def test_one_node_per_available_radius(self, social_adjacency):
        rng = np.random.default_rng(0)
        distances = bfs_distances(social_adjacency, 0)
        starts = sample_start_nodes(distances, 8, rng)
        for radius, node in starts.items():
            assert distances[node] == radius
        assert starts[0] == 0

    def test_missing_radii_omitted(self, social_adjacency):
        rng = np.random.default_rng(1)
        distances = bfs_distances(social_adjacency, 0)
        starts = sample_start_nodes(distances, 50, rng)
        max_available = int(distances.max())
        assert max(starts) == max_available


class TestRunners:
    def test_accuracy_experiment_shape(self, social_adjacency, tiny_workload):
        scenario = AccuracyScenario(
            n_documents=20, alphas=(0.5,), max_distance=4, iterations=5, seed=0
        )
        grid = run_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        # distance 0 always succeeds: querying node holds the gold document
        assert grid.accuracy(0.5, 0) == 1.0
        assert grid.sample_count(0.5, 0) == 5

    def test_accuracy_deterministic(self, social_adjacency, tiny_workload):
        scenario = AccuracyScenario(
            n_documents=20, alphas=(0.5,), max_distance=3, iterations=4, seed=7
        )
        a = run_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        b = run_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        assert a.successes == b.successes
        assert a.samples == b.samples

    def test_hop_count_experiment(self, social_adjacency, tiny_workload):
        scenario = HopCountScenario(
            n_documents=20, iterations=10, queries_per_iteration=5, seed=0
        )
        stats = run_hop_count_experiment(social_adjacency, tiny_workload, scenario)
        assert stats.samples == 50
        assert 0 <= stats.successes <= 50
        if stats.successes:
            assert stats.median_hops >= 0
            assert stats.mean_hops <= scenario.ttl

    def test_hop_count_deterministic(self, social_adjacency, tiny_workload):
        scenario = HopCountScenario(
            n_documents=15, iterations=6, queries_per_iteration=4, seed=9
        )
        a = run_hop_count_experiment(social_adjacency, tiny_workload, scenario)
        b = run_hop_count_experiment(social_adjacency, tiny_workload, scenario)
        assert a == b


class TestMultiColumnDiffusion:
    ALPHAS = (0.1, 0.5, 0.9)

    def test_columns_match_single_alpha_diffusion(self, sampler):
        rng = np.random.default_rng(10)
        data = sampler.sample(25, rng)
        multi = sampler.diffuse_scores_multi(data.relevance_signal, self.ALPHAS)
        assert multi.shape == (sampler.adjacency.n_nodes, len(self.ALPHAS))
        for j, alpha in enumerate(self.ALPHAS):
            single = sampler.diffuse_scores(data.relevance_signal, alpha)
            assert np.allclose(multi[:, j], single, atol=1e-9)

    def test_power_method_is_bit_identical(self, sampler):
        rng = np.random.default_rng(11)
        data = sampler.sample(25, rng)
        multi = sampler.diffuse_scores_multi(
            data.relevance_signal, self.ALPHAS, method="power"
        )
        for j, alpha in enumerate(self.ALPHAS):
            single = sampler.diffuse_scores(data.relevance_signal, alpha)
            assert np.array_equal(multi[:, j], single)

    def test_single_alpha_column(self, sampler):
        rng = np.random.default_rng(12)
        data = sampler.sample(10, rng)
        multi = sampler.diffuse_scores_multi(data.relevance_signal, (0.5,))
        assert multi.shape == (sampler.adjacency.n_nodes, 1)
        single = sampler.diffuse_scores(data.relevance_signal, 0.5)
        assert np.allclose(multi[:, 0], single, atol=1e-9)

    def test_empty_alphas_rejected(self, sampler):
        with pytest.raises(ValueError, match="non-empty"):
            sampler.diffuse_scores_multi(
                np.zeros(sampler.adjacency.n_nodes), ()
            )


class TestEngineEquivalence:
    """The batched drivers must reproduce the per-walk reference drivers."""

    def test_accuracy_grids_identical(self, social_adjacency, tiny_workload):
        scenario = AccuracyScenario(
            n_documents=20,
            alphas=(0.1, 0.5, 0.9),
            max_distance=4,
            ttl=30,
            iterations=5,
            seed=2,
        )
        batch = run_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        scalar = scalar_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        assert batch.samples == scalar.samples
        assert batch.successes == scalar.successes

    def test_accuracy_grids_identical_with_fanout(
        self, social_adjacency, tiny_workload
    ):
        scenario = AccuracyScenario(
            n_documents=15,
            alphas=(0.5,),
            max_distance=3,
            ttl=20,
            fanout=3,
            iterations=4,
            seed=3,
        )
        batch = run_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        scalar = scalar_accuracy_experiment(social_adjacency, tiny_workload, scenario)
        assert batch.samples == scalar.samples
        assert batch.successes == scalar.successes

    def test_hop_stats_identical(self, social_adjacency, tiny_workload):
        scenario = HopCountScenario(
            n_documents=20, iterations=6, queries_per_iteration=5, seed=4
        )
        batch = run_hop_count_experiment(social_adjacency, tiny_workload, scenario)
        scalar = scalar_hop_count_experiment(social_adjacency, tiny_workload, scenario)
        assert batch == scalar
