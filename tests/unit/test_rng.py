"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=10)
        b = ensure_rng(42).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1_000_000, size=10)
        b = ensure_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(seq), np.random.Generator)

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(5)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 3)
        draws = [child.integers(0, 2**32, size=4) for child in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_from_int_seed(self):
        a = [g.integers(0, 2**32) for g in spawn_rngs(9, 3)]
        b = [g.integers(0, 2**32) for g in spawn_rngs(9, 3)]
        assert a == b

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(0)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

    def test_spawn_from_seed_sequence(self):
        seq = np.random.SeedSequence(3)
        assert len(spawn_rngs(seq, 2)) == 2


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(5, "placement", 3).integers(0, 2**32, size=4)
        b = derive_rng(5, "placement", 3).integers(0, 2**32, size=4)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_rng(5, "placement").integers(0, 2**32, size=4)
        b = derive_rng(5, "queries").integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)

    def test_invalid_key_type_raises(self):
        with pytest.raises(TypeError):
            derive_rng(5, object())
