"""SLO-driven refresh scheduling: defer vs incremental vs full, priced.

The incremental push refresh wins big for small deltas (~0.35× edge ops
for one moved document) but converges to full-recompute cost near ~500
moves — and nothing in a static pipeline decides *when* to pay which
cost.  Under sustained churn that decision is the whole game: refresh too
eagerly and the refresh budget dwarfs the query work; refresh too lazily
and the served scores silently rot.

:class:`RefreshScheduler` makes the decision explicit, per tick and per
signal::

                         ┌─ s ≤ target ──────────────► DEFER (within SLO)
    refreshable part s ──┤
    (StalenessTracker)   └─ s > target ─┬─ no baseline (s = ∞) ───► FULL
                                        ├─ s − dirty > target ────► FULL
                                        │  (the patch residual alone
                                        │   breaches: re-baseline)
                                        └─ otherwise the cheaper of
                                           INCREMENTAL (cost ∝ dirty mass)
                                           and FULL (cost ≈ O(edges)),
                                           priced by the fitted
                                           RefreshCostModel

    A chosen refresh the banked budget cannot afford becomes DEFER
    (budget exhausted: serve stale, stamped, SLO violation counted).

The scheduler sees only the refreshable part of the staleness bound
(:meth:`repro.churn.StalenessTracker.refreshable`): dirty mass plus the
patch residual in excess of the last full run's floor.  The floor itself
is served as part of the stamped bound but never triggers a refresh, since
no refresh at the same ε removes it.

Budget is an edge-operation allowance that accrues per tick and *banks*
up to a cap, so a full recompute is amortized: a few deferred ticks save
enough allowance to afford the re-baseline instead of being locked out of
it forever.  Degradation is always explicit — a deferral over the target
is counted as an SLO violation and the serving layer stamps the staleness
bound onto every response it serves meanwhile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils import check_non_negative, check_positive, check_probability

__all__ = [
    "REFRESH_STRATEGIES",
    "RefreshCostModel",
    "RefreshDecision",
    "RefreshSLO",
    "RefreshScheduler",
    "check_strategy",
]

#: The refresh strategies the cost model prices (shared with
#: :class:`repro.simulation.refresh.SignalRefresher`, which re-exports it).
REFRESH_STRATEGIES = ("stale", "incremental", "full")


def check_strategy(strategy: str) -> str:
    """Validate a refresh-strategy name up front with a clear error."""
    if strategy not in REFRESH_STRATEGIES:
        raise ValueError(
            f"unknown refresh strategy {strategy!r}; "
            f"expected one of {REFRESH_STRATEGIES}"
        )
    return strategy


class RefreshCostModel:
    """Fitted edge-operation prices for the refresh strategies.

    One pricing brain shared by
    :meth:`repro.simulation.refresh.SignalRefresher.cost_estimate` and
    :class:`RefreshScheduler`, so nobody duplicates the "what would this
    refresh cost?" logic.  The model keeps two exponentially-weighted fits
    updated from *observed* runs:

    * ``full`` — a constant: edge operations of a cold-start/full push
      (work is O(network), independent of the change size);
    * ``incremental`` — an *affine* law, ``intercept + slope × dirty L1
      mass``, fit from exponentially-weighted moments of (mass, ops)
      observations.  Push work has a large constant term (draining any
      delta to ``tol`` costs a near-fixed number of sweeps over the
      delta's support) plus a mass-dependent part; a purely proportional
      rate extrapolated from small observed masses systematically
      overprices mid-size deltas and flips decisions to ``full`` at the
      wrong crossover.  With fewer than two distinct observed masses the
      fit degenerates to the through-origin rate.

    Before any observation the estimates fall back to an analytic prior,
    ``nnz × ⌈log(tol)/log(1−α)⌉`` sweeps for a full run and the same
    figure scaled by dirty mass for incremental (unit-signal-mass
    assumption) — rough, but only ever used before the first real run.
    ``stale`` is always free.  The incremental estimate is deliberately
    *not* clamped below the full estimate: near saturation (hundreds of
    moved documents) incremental genuinely costs more than recomputing,
    and the scheduler must be able to see that crossover to pick ``full``.
    """

    def __init__(
        self,
        *,
        nnz: int,
        alpha: float,
        tol: float,
        smoothing: float = 0.5,
    ) -> None:
        check_probability(alpha, "alpha")
        check_probability(smoothing, "smoothing")
        check_positive(tol, "tol")
        self.nnz = int(nnz)
        self.alpha = float(alpha)
        self.tol = float(tol)
        self.smoothing = float(smoothing)
        self._full_cost: float | None = None
        # EWMA moments of incremental (dirty mass, edge ops) observations:
        # E[m], E[ops], E[m²], E[m·ops] — enough for the affine fit.
        self._inc_m: float | None = None
        self._inc_ops: float | None = None
        self._inc_mm: float | None = None
        self._inc_mops: float | None = None

    def _prior_full(self) -> float:
        if self.alpha >= 1.0 or self.tol >= 1.0:
            return float(max(self.nnz, 1))
        sweeps = math.ceil(math.log(self.tol) / math.log(1.0 - self.alpha))
        return float(max(self.nnz, 1) * max(1, sweeps))

    def _blend(self, old: float | None, new: float) -> float:
        if old is None:
            return new
        return (1.0 - self.smoothing) * old + self.smoothing * new

    def observe(
        self, strategy: str, dirty_mass: float, edge_operations: int
    ) -> None:
        """Fold one observed refresh into the fit.

        ``dirty_mass`` is the L1 norm of the signal delta the run diffused
        (for ``full``/cold-start runs: the L1 mass of the whole signal,
        used once to seed the incremental rate).
        """
        check_strategy(strategy)
        check_non_negative(dirty_mass, "dirty_mass")
        if strategy == "stale":
            return
        if strategy == "full":
            self._full_cost = self._blend(self._full_cost, float(edge_operations))
            if self._inc_m is None and dirty_mass > 0:
                # Seed the incremental fit with the full run as one
                # (mass, ops) point — a through-origin rate until a real
                # incremental observation arrives.
                self._observe_incremental(dirty_mass, float(edge_operations))
            return
        if dirty_mass > 0:
            self._observe_incremental(dirty_mass, float(edge_operations))

    def _observe_incremental(self, mass: float, ops: float) -> None:
        self._inc_m = self._blend(self._inc_m, mass)
        self._inc_ops = self._blend(self._inc_ops, ops)
        self._inc_mm = self._blend(self._inc_mm, mass * mass)
        self._inc_mops = self._blend(self._inc_mops, mass * ops)

    def _incremental_fit(self) -> tuple[float, float] | None:
        """(intercept, slope) of the affine incremental law, if observed."""
        if self._inc_m is None:
            return None
        variance = self._inc_mm - self._inc_m**2
        if variance <= 1e-9 * max(1.0, self._inc_m**2):
            # One point (or identical masses): price through the origin.
            return 0.0, self._inc_ops / self._inc_m
        slope = (self._inc_mops - self._inc_m * self._inc_ops) / variance
        # Costs are non-decreasing in mass and non-negative at zero mass;
        # noise-driven violations would invert the incremental/full
        # crossover, so clamp rather than trust them.
        slope = max(slope, 0.0)
        intercept = max(self._inc_ops - slope * self._inc_m, 0.0)
        return intercept, slope

    def estimate(self, strategy: str, dirty_mass: float = 0.0) -> float:
        """Predicted edge operations of running ``strategy`` now."""
        check_strategy(strategy)
        check_non_negative(dirty_mass, "dirty_mass")
        if strategy == "stale":
            return 0.0
        full = self._full_cost if self._full_cost is not None else self._prior_full()
        if strategy == "full":
            return full
        fit = self._incremental_fit()
        if fit is None:
            # Unit-mass assumption, pre-observation.
            return self._prior_full() * dirty_mass
        intercept, slope = fit
        return intercept + slope * dirty_mass


@dataclass(frozen=True)
class RefreshSLO:
    """The target the scheduler steers to, and the budget it steers with.

    Parameters
    ----------
    staleness_target:
        Maximum acceptable *refreshable* staleness (L1 score-error units):
        the part of the bound a refresh can remove, dirty mass plus the
        patch residual in excess of the last full run's floor
        (:meth:`repro.churn.StalenessTracker.refreshable`).  The floor is
        not counted, so a target below it still leaves room to defer.  At
        or below the target the scheduler always defers — serving is
        "fresh enough" by declaration.
    refresh_budget_per_tick:
        Edge operations granted to the refresh plane per scheduler tick.
        ``inf`` (default) means refreshes are never budget-limited: the
        scheduler still defers within the target but always repairs an
        SLO breach immediately.
    max_banked_ticks:
        Unused allowance banks up to this many ticks' worth, so a full
        recompute (which typically exceeds one tick's allowance) is
        amortized across deferred ticks rather than permanently
        unaffordable.
    """

    staleness_target: float
    refresh_budget_per_tick: float = math.inf
    max_banked_ticks: float = 10.0

    def __post_init__(self) -> None:
        check_non_negative(self.staleness_target, "staleness_target")
        if not self.refresh_budget_per_tick > 0:
            raise ValueError(
                "refresh_budget_per_tick must be positive, got "
                f"{self.refresh_budget_per_tick}"
            )
        check_positive(self.max_banked_ticks, "max_banked_ticks")

    @property
    def unlimited(self) -> bool:
        return math.isinf(self.refresh_budget_per_tick)


@dataclass(frozen=True)
class RefreshDecision:
    """One scheduling verdict: what to do, why, and what it should cost."""

    action: str  # "defer" | "incremental" | "full"
    # "within_slo" | "cheapest" | "no_baseline" | "residual_only"
    # | "budget_exhausted"
    reason: str
    refreshable: float  # the staleness the decision compared to the target
    estimated_cost: float
    within_slo: bool


class RefreshScheduler:
    """Chooses defer / incremental / full per tick against a staleness SLO.

    Drive it with one :meth:`tick` per scheduling round, one
    :meth:`decide` per managed signal, and one :meth:`commit` per refresh
    actually executed (spending the budget with the *observed* cost and
    feeding the cost model's fit).  The scheduler is pure decision state —
    it never touches signals itself, so the same instance can arbitrate
    any number of signals against one shared budget.
    """

    def __init__(self, slo: RefreshSLO, cost_model: RefreshCostModel) -> None:
        self.slo = slo
        self.cost_model = cost_model
        self._banked = 0.0 if not slo.unlimited else math.inf
        self.ticks = 0
        self.decisions: dict[str, int] = {"defer": 0, "incremental": 0, "full": 0}
        self.slo_violations = 0  # deferred while over the target
        self.total_refresh_operations = 0

    # ---------------------------------------------------------------- budget

    @property
    def banked_budget(self) -> float:
        """Edge-operation allowance currently available."""
        return self._banked

    def tick(self) -> None:
        """Accrue one tick's refresh allowance (banked up to the cap)."""
        self.ticks += 1
        if self.slo.unlimited:
            return
        cap = self.slo.refresh_budget_per_tick * self.slo.max_banked_ticks
        self._banked = min(self._banked + self.slo.refresh_budget_per_tick, cap)

    # -------------------------------------------------------------- decisions

    def decide(self, refreshable: float, dirty_mass: float) -> RefreshDecision:
        """Pick an action for one signal given its current staleness state.

        ``refreshable`` is the tracker's refreshable staleness (∞ when no
        baseline exists); ``dirty_mass`` its pending L1 delta, the part of
        ``refreshable`` a patch removes, which also prices the incremental
        option.
        """
        target = self.slo.staleness_target
        if refreshable <= target:
            return self._record(
                RefreshDecision("defer", "within_slo", refreshable, 0.0, True)
            )
        full_cost = self.cost_model.estimate("full")
        if math.isinf(refreshable):
            # No baseline to patch — incremental is undefined, full or bust.
            action, cost, reason = "full", full_cost, "no_baseline"
        elif refreshable - dirty_mass > target:
            # The carried patch residual alone breaches the target; a patch
            # removes only the dirty part and adds residual of its own —
            # only a re-baseline clears it.
            action, cost, reason = "full", full_cost, "residual_only"
        else:
            incremental_cost = self.cost_model.estimate(
                "incremental", dirty_mass
            )
            if incremental_cost <= full_cost:
                action, cost, reason = "incremental", incremental_cost, "cheapest"
            else:
                action, cost, reason = "full", full_cost, "cheapest"
        if cost > self._banked:
            # Explicit degradation: out of refresh allowance, serve stale
            # (stamped by the serving layer) instead of falling behind
            # silently.  The breach is counted; the bank keeps accruing.
            self.slo_violations += 1
            return self._record(
                RefreshDecision(
                    "defer", "budget_exhausted", refreshable, cost, False
                )
            )
        return self._record(
            RefreshDecision(action, reason, refreshable, cost, False)
        )

    def commit(self, decision: RefreshDecision, edge_operations: int) -> None:
        """Charge an executed refresh to the budget at its observed cost."""
        if decision.action == "defer":
            raise ValueError("cannot commit a 'defer' decision")
        self.total_refresh_operations += int(edge_operations)
        if not self.slo.unlimited:
            # Observed cost may overshoot the estimate; the deficit carries
            # (the bank can go negative) so sustained underestimation
            # self-corrects instead of overspending every tick.
            self._banked -= float(edge_operations)

    def _record(self, decision: RefreshDecision) -> RefreshDecision:
        self.decisions[decision.action] += 1
        return decision

    def summary(self) -> dict[str, float | int | dict[str, int]]:
        """Machine-readable digest for benchmark reports."""
        return {
            "ticks": self.ticks,
            "decisions": dict(self.decisions),
            "slo_violations": self.slo_violations,
            "total_refresh_operations": self.total_refresh_operations,
        }
