"""Tests for the churn refresh strategies (simulation layer)."""

import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.simulation.refresh import (
    REFRESH_STRATEGIES,
    SignalRefresher,
)

ALPHA = 0.5


@pytest.fixture(scope="module")
def operator():
    adjacency = CompressedAdjacency.from_networkx(
        connected_watts_strogatz(60, 4, 0.2, seed=21)
    )
    return transition_matrix(adjacency, "column")


@pytest.fixture(scope="module")
def signals():
    rng = np.random.default_rng(4)
    before = rng.standard_normal(60)
    after = before.copy()
    after[10] += 2.0
    after[30] = 0.0
    return before, after


def exact(operator, signal):
    return PersonalizedPageRank(ALPHA, method="solve").apply(operator, signal)


class TestSignalRefresher:
    def test_cold_start_matches_solve(self, operator, signals):
        before, _ = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        outcome = refresher.cold_start(before)
        assert outcome.edge_operations > 0
        assert np.max(np.abs(outcome.scores - exact(operator, before))) < 1e-8

    @pytest.mark.parametrize("cap", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_sweep_cap_rejected(self, operator, cap):
        with pytest.raises(TypeError):
            SignalRefresher(operator, ALPHA, max_sweeps=cap)

    def test_stale_is_free_and_unchanged(self, operator, signals):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        base = refresher.cold_start(before)
        outcome = refresher.refresh("stale", base.scores, before, after)
        assert outcome.edge_operations == 0
        assert outcome.sweeps == 0
        assert np.array_equal(outcome.scores, base.scores)

    @pytest.mark.parametrize("strategy", ["incremental", "full"])
    def test_refresh_restores_exact_scores(self, operator, signals, strategy):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        base = refresher.cold_start(before)
        outcome = refresher.refresh(strategy, base.scores, before, after)
        assert outcome.strategy == strategy
        assert np.max(np.abs(outcome.scores - exact(operator, after))) < 1e-7

    def test_incremental_and_full_agree(self, operator, signals):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        base = refresher.cold_start(before)
        incremental = refresher.refresh("incremental", base.scores, before, after)
        full = refresher.refresh("full", base.scores, before, after)
        assert np.max(np.abs(incremental.scores - full.scores)) < 1e-7

    def test_unknown_strategy_rejected(self, operator, signals):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA)
        base = refresher.cold_start(before)
        with pytest.raises(ValueError, match="strategy"):
            refresher.refresh("lazy", base.scores, before, after)

    def test_unknown_strategy_rejected_at_entry(self, operator, signals):
        """Validation fires before any diffusion work, naming the options."""
        before, _ = signals
        refresher = SignalRefresher(operator, ALPHA)
        base = refresher.cold_start(before)
        # Scores/signals deliberately inconsistent: if validation ran after
        # the delta computation, this would fail differently (or not at all).
        with pytest.raises(ValueError, match="stale.*incremental.*full"):
            refresher.refresh("lazy", base.scores[:3], None, None)

    def test_strategy_tuple_stable(self):
        assert REFRESH_STRATEGIES == ("stale", "incremental", "full")

    def test_residual_l1_reported(self, operator, signals):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-8)
        base = refresher.cold_start(before)
        assert 0.0 <= base.residual_l1 <= 60 * 1e-8
        outcome = refresher.refresh("incremental", base.scores, before, after)
        assert 0.0 <= outcome.residual_l1 <= 60 * 1e-8
        stale = refresher.refresh("stale", base.scores, before, after)
        assert stale.residual_l1 == 0.0


class TestCostEstimate:
    """The refresher's pricing — one brain shared with the SLO scheduler."""

    def test_stale_always_free(self, operator, signals):
        refresher = SignalRefresher(operator, ALPHA)
        assert refresher.cost_estimate("stale", 100.0) == 0.0

    def test_prior_positive_before_any_run(self, operator):
        refresher = SignalRefresher(operator, ALPHA)
        assert refresher.cost_estimate("full") > 0
        assert refresher.cost_estimate("incremental", 1.0) > 0

    def test_full_estimate_matches_observed_cold_start(self, operator, signals):
        before, _ = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        outcome = refresher.cold_start(before)
        assert refresher.cost_estimate("full") == pytest.approx(
            float(outcome.edge_operations)
        )

    def test_incremental_estimate_improves_with_observation(
        self, operator, signals
    ):
        before, after = signals
        refresher = SignalRefresher(operator, ALPHA, tol=1e-10)
        base = refresher.cold_start(before)
        outcome = refresher.refresh("incremental", base.scores, before, after)
        dirty_mass = float(np.abs(after - before).sum())
        assert refresher.cost_estimate("incremental", dirty_mass) == (
            pytest.approx(float(outcome.edge_operations), rel=0.7)
        )

    def test_shared_model_object_with_scheduler(self, operator):
        """The scheduler consumes the refresher's own model — no duplicate."""
        from repro.churn import RefreshSLO, RefreshScheduler

        refresher = SignalRefresher(operator, ALPHA)
        scheduler = RefreshScheduler(
            RefreshSLO(staleness_target=0.1), refresher.cost_model
        )
        assert scheduler.cost_model is refresher.cost_model

    def test_unknown_strategy_rejected(self, operator):
        refresher = SignalRefresher(operator, ALPHA)
        with pytest.raises(ValueError, match="refresh strategy"):
            refresher.cost_estimate("lazy")
