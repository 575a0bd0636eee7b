"""Tests for scenario configuration validation."""

import pytest

from repro.simulation.scenario import AccuracyScenario, HopCountScenario


class TestAccuracyScenario:
    def test_defaults_match_paper(self):
        scenario = AccuracyScenario(n_documents=100)
        assert scenario.alphas == (0.1, 0.5, 0.9)
        assert scenario.ttl == 50
        assert scenario.max_distance == 8
        assert scenario.k == 1
        assert scenario.fanout == 1

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=10, alphas=(0.0,))
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=10, alphas=(1.0,))

    def test_rejects_empty_alphas(self):
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=10, alphas=())

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=10, max_distance=-1)

    def test_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=10, placement="clustered")

    def test_rejects_zero_documents(self):
        with pytest.raises(ValueError):
            AccuracyScenario(n_documents=0)

    @pytest.mark.parametrize(
        "field", ["n_documents", "ttl", "k", "fanout", "iterations", "max_distance"]
    )
    def test_rejects_non_integer_count(self, field):
        overrides = {"n_documents": 10, field: 2.5}
        with pytest.raises(TypeError, match=field):
            AccuracyScenario(**overrides)

    def test_frozen(self):
        scenario = AccuracyScenario(n_documents=10)
        with pytest.raises(AttributeError):
            scenario.ttl = 99


class TestHopCountScenario:
    def test_defaults_match_paper(self):
        scenario = HopCountScenario(n_documents=1000)
        assert scenario.alpha == 0.5
        assert scenario.iterations == 500
        assert scenario.queries_per_iteration == 10
        assert scenario.total_samples == 5000
        assert scenario.ttl == 50

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            HopCountScenario(n_documents=10, alpha=0.0)

    def test_rejects_zero_queries(self):
        with pytest.raises(ValueError):
            HopCountScenario(n_documents=10, queries_per_iteration=0)

    @pytest.mark.parametrize(
        "field",
        ["n_documents", "iterations", "queries_per_iteration", "ttl", "k", "fanout"],
    )
    def test_rejects_non_integer_count(self, field):
        overrides = {"n_documents": 10, field: 2.5}
        with pytest.raises(TypeError, match=field):
            HopCountScenario(**overrides)

    def test_total_samples(self):
        scenario = HopCountScenario(
            n_documents=10, iterations=7, queries_per_iteration=3
        )
        assert scenario.total_samples == 21
