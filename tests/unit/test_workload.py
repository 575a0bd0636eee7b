"""Tests for the retrieval workload construction (paper §V-B rules)."""

import numpy as np
import pytest

from repro.embeddings.model import BLOCK_COSINE_MARGIN, WordEmbeddingModel
from repro.experiments.common import (
    GOLD_THRESHOLD,
    SCALED_QUERIES,
    SETUP_SEED,
    get_environment,
)
from repro.simulation.workload import (
    RetrievalWorkload,
    build_workload,
    poisson_arrival_times,
)
from scalar_reference import reference_build_workload


class TestBuildWorkload:
    def test_queries_and_golds_disjoint(self, tiny_workload):
        queries = set(tiny_workload.queries)
        golds = {g for gs in tiny_workload.gold_of.values() for g in gs}
        assert not queries & golds

    def test_pool_excludes_queries_and_golds(self, tiny_workload):
        queries = set(tiny_workload.queries)
        golds = {g for gs in tiny_workload.gold_of.values() for g in gs}
        pool = set(tiny_workload.irrelevant_pool)
        assert not pool & queries
        assert not pool & golds

    def test_every_query_has_gold(self, tiny_workload):
        for query in tiny_workload.queries:
            assert len(tiny_workload.gold_of[query]) >= 1

    def test_golds_satisfy_threshold(self, tiny_workload, tiny_model):
        for query in tiny_workload.queries[:10]:
            for gold in tiny_workload.gold_of[query]:
                assert tiny_model.similarity(query, gold) > 0.6

    def test_pool_below_threshold_for_their_queries(self, tiny_workload, tiny_model):
        """Irrelevant docs must not be gold-quality matches for any query."""
        rng = np.random.default_rng(0)
        pool = tiny_workload.irrelevant_pool
        sample = [pool[int(i)] for i in rng.integers(0, len(pool), size=30)]
        for query in tiny_workload.queries[:5]:
            for word in sample:
                assert tiny_model.similarity(query, word) <= 0.6

    def test_requested_count_or_fewer(self, tiny_model):
        workload = build_workload(tiny_model, n_queries=10, threshold=0.6, seed=1)
        assert workload.n_queries == 10

    def test_deterministic(self, tiny_model):
        a = build_workload(tiny_model, n_queries=15, threshold=0.6, seed=9)
        b = build_workload(tiny_model, n_queries=15, threshold=0.6, seed=9)
        assert a.queries == b.queries
        assert a.gold_of == b.gold_of

    @pytest.mark.parametrize("n_queries", [2.5, 3.0, True])
    def test_n_queries_must_be_an_int(self, tiny_model, n_queries):
        with pytest.raises(TypeError, match="n_queries"):
            build_workload(tiny_model, n_queries=n_queries, seed=0)

    def test_impossible_threshold_raises(self):
        rng = np.random.default_rng(0)
        # orthonormal vectors: no neighbors above any positive threshold
        model = WordEmbeddingModel(
            [f"w{i}" for i in range(8)], np.eye(8)
        )
        with pytest.raises(ValueError, match="no query words"):
            build_workload(model, n_queries=5, threshold=0.6, seed=0)


def assert_same_workload(got: RetrievalWorkload, want: RetrievalWorkload) -> None:
    assert got.queries == want.queries
    assert list(got.gold_of.items()) == list(want.gold_of.items())
    assert got.irrelevant_pool == want.irrelevant_pool


def unit_pair(cosine: float, a: int, b: int, dim: int) -> np.ndarray:
    """Two vectors in the (a, b) plane at exactly ``cosine`` in real arithmetic."""
    pair = np.zeros((2, dim))
    pair[0, a] = 1.0
    pair[1, a], pair[1, b] = cosine, np.sqrt(1.0 - cosine**2)
    return pair


def spy_on_neighbors_above(monkeypatch, model: WordEmbeddingModel) -> list[str]:
    """Record every word the model sends through ``neighbors_above``."""
    seen: list[str] = []
    per_word = model.neighbors_above

    def spy(word, threshold, **kwargs):
        seen.append(word)
        return per_word(word, threshold, **kwargs)

    monkeypatch.setattr(model, "neighbors_above", spy)
    return seen


class TestBlockedScan:
    """``build_workload`` scans blocks yet equals the per-word loop."""

    @pytest.mark.parametrize("n_queries,seed", [(40, 22), (200, 5), (2000, 9)])
    def test_equals_per_word_reference_on_tiny_model(
        self, tiny_model, n_queries, seed
    ):
        assert_same_workload(
            build_workload(tiny_model, n_queries=n_queries, seed=seed),
            reference_build_workload(tiny_model, n_queries=n_queries, seed=seed),
        )

    def test_equals_per_word_reference_on_scaled_environment(self):
        model = get_environment(False).model
        kwargs = dict(
            n_queries=SCALED_QUERIES, threshold=GOLD_THRESHOLD, seed=SETUP_SEED + 2
        )
        assert_same_workload(
            build_workload(model, **kwargs), reference_build_workload(model, **kwargs)
        )

    def test_ties_and_near_threshold_rows_take_the_per_word_path(self, monkeypatch):
        # tie: three equal vectors; near: a neighbor just above the threshold;
        # below: one just under it; far: a pair well clear of both.
        threshold, margin = 0.6, BLOCK_COSINE_MARGIN
        vectors = np.vstack(
            [
                np.tile(np.eye(8)[0], (3, 1)),
                unit_pair(threshold + margin / 2, 1, 2, 8),
                unit_pair(threshold - margin / 2, 3, 4, 8),
                unit_pair(0.9, 5, 6, 8),
            ]
        )
        words = [
            "tie0", "tie1", "tie2", "near0", "near1", "below0", "below1", "far0", "far1"
        ]
        model = WordEmbeddingModel(words, vectors)
        guarded = {word for word in words if not word.startswith("far")}
        per_word = [
            [hit for hit, _ in model.neighbors_above(word, threshold)]
            for word in words
        ]
        seen = spy_on_neighbors_above(monkeypatch, model)

        assert model.neighbor_words_above(range(len(words)), threshold) == per_word
        assert set(seen) == guarded
        for seed in range(4):
            kwargs = dict(n_queries=5, threshold=threshold, seed=seed)
            seen.clear()
            got = build_workload(model, **kwargs)
            assert seen and set(seen) <= guarded
            assert_same_workload(got, reference_build_workload(model, **kwargs))

    def test_separated_cosines_stay_on_the_block_path(self, monkeypatch):
        vectors = np.vstack(
            [unit_pair(0.9, 0, 1, 6), unit_pair(0.75, 2, 3, 6), unit_pair(0.3, 4, 5, 6)]
        )
        model = WordEmbeddingModel([f"w{i}" for i in range(6)], vectors)
        want = reference_build_workload(model, n_queries=4, threshold=0.6, seed=1)
        seen = spy_on_neighbors_above(monkeypatch, model)

        got = build_workload(model, n_queries=4, threshold=0.6, seed=1)
        assert_same_workload(got, want)
        assert seen == []


class TestSampling:
    def test_sample_case_returns_query_gold_pair(self, tiny_workload):
        rng = np.random.default_rng(1)
        query, gold = tiny_workload.sample_case(rng)
        assert query in tiny_workload.gold_of
        assert gold in tiny_workload.gold_of[query]

    def test_sample_irrelevant_distinct(self, tiny_workload):
        rng = np.random.default_rng(2)
        docs = tiny_workload.sample_irrelevant(rng, 50)
        assert len(docs) == len(set(docs)) == 50
        pool = set(tiny_workload.irrelevant_pool)
        assert all(doc in pool for doc in docs)

    def test_sample_irrelevant_exclude(self, tiny_workload):
        rng = np.random.default_rng(3)
        excluded = tiny_workload.irrelevant_pool[0]
        docs = tiny_workload.sample_irrelevant(rng, 20, exclude={excluded})
        assert excluded not in docs

    def test_sample_irrelevant_too_many_raises(self, tiny_workload):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="pool"):
            tiny_workload.sample_irrelevant(
                rng, len(tiny_workload.irrelevant_pool) + 1
            )

    def test_query_embedding_lookup(self, tiny_workload, tiny_model):
        query = tiny_workload.queries[0]
        assert np.allclose(
            tiny_workload.query_embedding(query), tiny_model.vector(query)
        )


class TestValidationInConstructor:
    def test_overlapping_sets_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="overlap"):
            RetrievalWorkload(
                model=tiny_model,
                queries=["word00001"],
                gold_of={"word00001": ["word00001"]},
                irrelevant_pool=[],
                threshold=0.6,
            )

    def test_pool_overlap_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="overlaps"):
            RetrievalWorkload(
                model=tiny_model,
                queries=["word00001"],
                gold_of={"word00001": ["word00002"]},
                irrelevant_pool=["word00002"],
                threshold=0.6,
            )


class TestPoissonArrivals:
    def test_horizon_mode_bounds_and_sorts(self):
        times = poisson_arrival_times(2.0, horizon=100.0, seed=0)
        assert times.size > 0
        assert float(times[0]) > 0.0
        assert float(times[-1]) <= 100.0
        assert np.all(np.diff(times) >= 0)

    def test_horizon_mode_count_near_rate_times_horizon(self):
        times = poisson_arrival_times(5.0, horizon=1000.0, seed=1)
        # mean 5000, std ~71; 5 sigma.
        assert 4650 < times.size < 5350

    def test_n_mode_exact_count(self):
        times = poisson_arrival_times(3.0, n=250, seed=2)
        assert times.shape == (250,)
        assert np.all(np.diff(times) >= 0)

    def test_seed_reproducible(self):
        a = poisson_arrival_times(1.0, horizon=50.0, seed=9)
        b = poisson_arrival_times(1.0, horizon=50.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(0.0, horizon=10.0)
        with pytest.raises(ValueError):
            poisson_arrival_times(1.0)  # neither horizon nor n
        with pytest.raises(ValueError):
            poisson_arrival_times(1.0, horizon=10.0, n=5)  # both

    def test_rate_boundary_rejected(self):
        """Rate → 0 is a degenerate process, rejected rather than hanging."""
        with pytest.raises(ValueError, match="rate"):
            poisson_arrival_times(0.0, n=5)
        with pytest.raises(ValueError, match="rate"):
            poisson_arrival_times(-1.0, horizon=10.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            poisson_arrival_times(1.0, horizon=0.0)

    def test_tiny_rate_long_horizon_may_be_empty(self):
        # ~1e-6 expected arrivals: overwhelmingly an empty (but valid) array.
        times = poisson_arrival_times(1e-8, horizon=100.0, seed=3)
        assert times.shape == (0,)

    def test_n_mode_unbounded_times(self):
        # n-mode has no horizon clamp; exactly n arrivals however long it takes.
        times = poisson_arrival_times(1e-3, n=4, seed=5)
        assert times.shape == (4,)
        assert float(times[-1]) > 100.0


class TestChurnQueryInterleaving:
    """Churn events and query arrivals merge deterministically on one clock."""

    def run_clock(self):
        from repro.churn import ChurnRates, ChurnStream
        from repro.runtime.events import EventQueue

        queue = EventQueue()
        log: list[tuple[float, str]] = []
        stream = ChurnStream(
            12, ChurnRates(doc_add=1.0, doc_move=2.0, doc_delete=0.5), seed=21
        )
        stream.install(queue, lambda e: log.append((e.time, e.kind)), horizon=20.0)
        for t in poisson_arrival_times(1.5, horizon=20.0, seed=22):
            queue.schedule_at(float(t), lambda t=t: log.append((float(t), "query")))
        while queue.step():
            pass
        return log

    def test_merge_is_deterministic(self):
        assert self.run_clock() == self.run_clock()

    def test_merge_is_time_ordered_and_complete(self):
        log = self.run_clock()
        times = [t for t, _ in log]
        assert times == sorted(times)
        n_queries = sum(1 for _, kind in log if kind == "query")
        n_churn = len(log) - n_queries
        assert n_queries == poisson_arrival_times(1.5, horizon=20.0, seed=22).size
        from repro.churn import ChurnRates, ChurnStream

        expected = ChurnStream(
            12, ChurnRates(doc_add=1.0, doc_move=2.0, doc_delete=0.5), seed=21
        ).events(horizon=20.0)
        assert n_churn == len(expected)
