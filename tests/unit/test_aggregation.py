"""Tests for sketch-partitioned multi-channel personalization (§VI extension)."""

import numpy as np
import pytest

from repro.core.aggregation import (
    ChannelHasher,
    MaxChannelPolicy,
    channel_personalization,
    channel_relevance_signals,
)
from repro.core.forwarding import PrecomputedScorePolicy
from repro.embeddings.similarity import l2_normalize
from scalar_reference import reference_select


class TestChannelHasher:
    def test_channel_count(self):
        assert ChannelHasher(8, 0).n_channels == 1
        assert ChannelHasher(8, 3).n_channels == 8

    def test_channels_in_range(self):
        hasher = ChannelHasher(16, 4, seed=0)
        rng = np.random.default_rng(1)
        channels = hasher.channel_of(rng.standard_normal((200, 16)))
        assert channels.min() >= 0
        assert channels.max() < 16

    def test_deterministic_across_instances(self):
        """Two nodes building the hasher from the shared seed agree."""
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((50, 12))
        a = ChannelHasher(12, 5, seed=99)
        b = ChannelHasher(12, 5, seed=99)
        assert np.array_equal(a.channel_of(vectors), b.channel_of(vectors))

    def test_zero_bits_single_channel(self):
        hasher = ChannelHasher(8, 0, seed=0)
        rng = np.random.default_rng(3)
        channels = hasher.channel_of(rng.standard_normal((30, 8)))
        assert np.all(channels == 0)

    def test_single_vector_input(self):
        hasher = ChannelHasher(8, 2, seed=0)
        channel = hasher.channel_of(np.ones(8))
        assert np.isscalar(channel) or channel.ndim == 0

    def test_similar_vectors_often_collide(self):
        """Directionally close vectors land in the same channel mostly."""
        rng = np.random.default_rng(4)
        hasher = ChannelHasher(64, 3, seed=5)
        base = l2_normalize(rng.standard_normal(64))
        perturbed = l2_normalize(
            base + 0.05 * rng.standard_normal((200, 64))
        )
        channels = hasher.channel_of(perturbed)
        base_channel = hasher.channel_of(base)
        assert np.mean(channels == base_channel) > 0.6

    def test_too_many_bits_rejected(self):
        with pytest.raises(ValueError):
            ChannelHasher(8, 17)


class TestChannelPersonalization:
    def test_channels_sum_to_flat_personalization(self):
        """Summing over channels recovers the paper's flat sum exactly."""
        rng = np.random.default_rng(6)
        embeddings = rng.standard_normal((40, 16))
        nodes = rng.integers(0, 10, size=40)
        hasher = ChannelHasher(16, 3, seed=7)
        tensor = channel_personalization(embeddings, nodes, 10, hasher)
        flat = np.zeros((10, 16))
        np.add.at(flat, nodes, embeddings)
        assert np.allclose(tensor.sum(axis=0), flat)

    def test_shape(self):
        hasher = ChannelHasher(4, 2, seed=0)
        tensor = channel_personalization(np.ones((3, 4)), np.zeros(3, int), 5, hasher)
        assert tensor.shape == (4, 5, 4)

    def test_misaligned_rejected(self):
        hasher = ChannelHasher(4, 1, seed=0)
        with pytest.raises(ValueError):
            channel_personalization(np.ones((3, 4)), np.zeros(2, int), 5, hasher)


class TestChannelRelevanceSignals:
    def test_signals_sum_to_flat_signal(self):
        rng = np.random.default_rng(8)
        embeddings = rng.standard_normal((30, 8))
        nodes = rng.integers(0, 6, size=30)
        query = rng.standard_normal(8)
        hasher = ChannelHasher(8, 2, seed=9)
        signals = channel_relevance_signals(embeddings, nodes, 6, query, hasher)
        flat = np.bincount(nodes, weights=embeddings @ query, minlength=6)
        assert np.allclose(signals.sum(axis=0), flat)

    def test_matches_tensor_dot(self):
        """x0[c] == E0^(c) @ q: the per-channel linearity identity."""
        rng = np.random.default_rng(10)
        embeddings = rng.standard_normal((25, 8))
        nodes = rng.integers(0, 5, size=25)
        query = rng.standard_normal(8)
        hasher = ChannelHasher(8, 2, seed=11)
        signals = channel_relevance_signals(embeddings, nodes, 5, query, hasher)
        tensor = channel_personalization(embeddings, nodes, 5, hasher)
        assert np.allclose(signals, tensor @ query)

    def test_zero_bits_equals_flat(self):
        rng = np.random.default_rng(12)
        embeddings = rng.standard_normal((20, 8))
        nodes = rng.integers(0, 4, size=20)
        query = rng.standard_normal(8)
        hasher = ChannelHasher(8, 0, seed=13)
        signals = channel_relevance_signals(embeddings, nodes, 4, query, hasher)
        flat = np.bincount(nodes, weights=embeddings @ query, minlength=4)
        assert signals.shape == (1, 4)
        assert np.allclose(signals[0], flat)


class TestMaxChannelPolicy:
    def test_selects_best_max_channel(self):
        scores = np.array(
            [
                [0.1, 0.9, 0.0],  # channel 0
                [0.2, 0.0, 0.5],  # channel 1
            ]
        )
        policy = MaxChannelPolicy(scores)
        rng = np.random.default_rng(0)
        chosen = reference_select(policy, np.ones(2), np.array([0, 1, 2]), 1, rng)
        assert list(chosen) == [1]  # max over channels: [0.2, 0.9, 0.5]

    def test_single_channel_equals_precomputed(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(10)
        multi = MaxChannelPolicy(scores[None, :])
        flat = PrecomputedScorePolicy(scores)
        candidates = np.array([1, 4, 7, 9])
        a = reference_select(multi, np.ones(2), candidates, 2, rng)
        b = reference_select(flat, np.ones(2), candidates, 2, rng)
        assert np.array_equal(a, b)

    def test_is_the_channel_max_table(self):
        scores = np.random.default_rng(2).standard_normal((3, 12))
        policy = MaxChannelPolicy(scores)
        assert isinstance(policy, PrecomputedScorePolicy)
        assert np.array_equal(policy.node_scores, scores.max(axis=0))
        assert policy.n_nodes == 12

    def test_1d_scores_rejected(self):
        with pytest.raises(ValueError):
            MaxChannelPolicy(np.zeros(5))

    def test_describe(self):
        policy = MaxChannelPolicy(np.zeros((4, 3)))
        assert "C=4" in policy.describe()
