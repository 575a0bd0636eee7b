"""Cheap per-signal staleness bounds — act on an estimate, not ground truth.

Under sustained churn the refresh scheduler needs to know *how wrong* the
served scores currently are without paying for the refresh (or an exact
solve) just to find out.  :class:`StalenessTracker` maintains an upper
bound on the L1 error of a served diffusion using only O(1)-per-event
bookkeeping, as the sum of three parts:

* **floor** ``F`` — the error bound the last full run reported for its
  own result (:attr:`repro.core.backends.DiffusionOutcome.residual_l1`):
  the pruning error that no refresh at the same ε removes;
* **patch residual** ``P`` — every tolerance-converged incremental patch
  abandons up to its final residual L1 of un-diffused correction
  (:attr:`repro.gsp.push.PushResult.residual_l1`); those leftovers add up
  across patches and only a full refresh clears them;
* **pending dirty mass** — per-node L1 magnitude of the personalization
  delta accumulated since the last committed refresh.  Entries are *set*,
  not summed: repeated churn on one node coalesces to its current
  distance from the diffused baseline, so the bound (like the refresh
  itself) scales with distinct dirty nodes rather than raw event count.

The bound is sound for column-normalized operators: the PPR filter
``H = α (I − (1−α) A)⁻¹`` satisfies ``‖H‖₁ ≤ 1`` when ``‖A‖₁ ≤ 1``
(a Neumann series of column-substochastic terms), so

    ‖served − exact‖₁ ≤ F + P + Σᵤ ‖Δ_pending[u]‖₁  =  bound()

— validated bound-vs-true-error on every checkpoint by
``benchmarks/test_bench_churn_slo.py``.

A scheduler should not act on all of it.  No refresh at the same ε
removes the floor, and ``P`` overstates what the patches add to the
error: it counts each abandoned residual ``r`` in full, while ``‖H r‖₁``
is far smaller once mixed-sign entries average out.  :meth:`refreshable`
therefore reports the dirty mass plus only the patch residual in excess
of the floor, ``max(0, P − F)``: a re-baseline is due once the patches'
bound alone exceeds a fresh full run's by more than the target.
"""

from __future__ import annotations

import math

__all__ = ["StalenessTracker"]


def _check_l1(value: float, name: str) -> float:
    """An L1 mass must be a finite number ``>= 0``; NaN and ∞ are rejected."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return float(value)


class StalenessTracker:
    """Maintains an L1 staleness bound for one served diffusion signal."""

    def __init__(self) -> None:
        self._pending: dict[int, float] = {}
        self._floor_l1 = 0.0
        self._patch_residual_l1 = 0.0
        # No baseline yet (or the last full run failed to converge): the
        # pending-delta decomposition is undefined and the bound is ∞ until
        # a full refresh commits.
        self._baseline_known = False

    # -------------------------------------------------------------- recording

    def set_pending(self, node: int, delta_l1: float) -> None:
        """Record node ``node``'s current L1 distance from the baseline.

        Idempotent per node — callers recompute the distance after each
        churn event and *overwrite*, so N moves of the same document cost
        one entry, not N.  A zero distance (the node churned back to its
        diffused state) removes the entry.
        """
        delta_l1 = _check_l1(delta_l1, "delta_l1")
        node = int(node)
        if delta_l1 == 0.0:
            self._pending.pop(node, None)
        else:
            self._pending[node] = delta_l1

    def invalidate(self) -> None:
        """Declare the baseline unknown (bound becomes ∞ until a full run)."""
        self._baseline_known = False
        self._pending.clear()

    def record_refresh(self, residual_l1: float, *, full: bool) -> None:
        """Commit a refresh: pending mass is diffused, residual is kept.

        A ``full`` refresh re-baselines: its residual becomes the floor and
        the patch residual restarts from 0.  An incremental patch adds its
        residual to the patch residual.
        """
        residual_l1 = _check_l1(residual_l1, "residual_l1")
        if full:
            self._floor_l1 = residual_l1
            self._patch_residual_l1 = 0.0
            self._baseline_known = True
        else:
            self._patch_residual_l1 += residual_l1
        self._pending.clear()

    # ------------------------------------------------------------- inspection

    @property
    def dirty_count(self) -> int:
        """Distinct nodes with pending (coalesced) churn."""
        return len(self._pending)

    @property
    def dirty_mass(self) -> float:
        """Total pending L1 personalization delta (the incremental work unit)."""
        return float(sum(self._pending.values()))

    @property
    def floor_l1(self) -> float:
        """Error bound of the last full run's own result."""
        return self._floor_l1

    @property
    def patch_residual_l1(self) -> float:
        """L1 residual abandoned by incremental patches since the last full run."""
        return self._patch_residual_l1

    @property
    def baseline_known(self) -> bool:
        return self._baseline_known

    def bound(self) -> float:
        """Upper bound on the served signal's L1 error (∞ without baseline)."""
        if not self._baseline_known:
            return math.inf
        return self._floor_l1 + self._patch_residual_l1 + self.dirty_mass

    def refreshable(self) -> float:
        """The part of the bound a refresh is for (∞ without baseline).

        Dirty mass plus the patch residual in excess of the floor; what
        :meth:`repro.churn.RefreshScheduler.decide` compares to its target.
        """
        if not self._baseline_known:
            return math.inf
        carried = max(0.0, self._patch_residual_l1 - self._floor_l1)
        return self.dirty_mass + carried

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StalenessTracker(dirty={self.dirty_count}, "
            f"mass={self.dirty_mass:.4g}, floor={self._floor_l1:.4g}, "
            f"patches={self._patch_residual_l1:.4g}, bound={self.bound():.4g})"
        )
