"""Re-diffusion strategies for time-evolving content (churn workloads).

The paper defers "time-evolving conditions" to future work; operationally
the question is *how* to restore fresh routing hints after documents move.
This module compares the three answers on the scalar relevance signal used
by the experiment drivers (see :mod:`repro.simulation.runner`):

* ``stale`` — do nothing; keep routing on yesterday's scores (free, lossy).
* ``full`` — re-diffuse the whole signal from scratch (exact, O(network)).
* ``incremental`` — forward-push only the *delta* signal and patch the old
  scores (exact to push tolerance, O(change)); the strategy enabled by
  :class:`repro.core.backends.PushDiffusionBackend`.

``full`` and ``incremental`` agree to within tolerance, so the comparison
is about *cost* (push/edge-operation counts), which the benchmark suite
records as churn grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.churn.scheduler import (
    REFRESH_STRATEGIES,
    RefreshCostModel,
    check_strategy,
)
from repro.gsp.push import forward_push, push_refresh
from repro.utils import check_positive_int

__all__ = [
    "REFRESH_STRATEGIES",
    "RefreshCostModel",
    "RefreshOutcome",
    "SignalRefresher",
    "check_strategy",
]


@dataclass(frozen=True)
class RefreshOutcome:
    """Refreshed scores plus the work the strategy performed.

    ``residual_l1`` is the L1 mass the push left un-diffused (0 for
    ``stale``); staleness trackers add it to their error bound after an
    incremental refresh (see :class:`repro.churn.StalenessTracker`).
    """

    strategy: str
    scores: np.ndarray
    sweeps: int
    pushes: int
    edge_operations: int
    residual_l1: float = 0.0


class SignalRefresher:
    """Maintains diffused scores for a drifting per-node relevance signal.

    Built once per (operator, alpha); :meth:`cold_start` diffuses the
    initial signal, then :meth:`refresh` applies one of the
    :data:`REFRESH_STRATEGIES` to follow a changed signal.  All diffusion
    runs through the forward-push kernel so full and incremental costs are
    measured in the same unit (edge operations).
    """

    def __init__(
        self,
        operator: sp.spmatrix,
        alpha: float,
        *,
        tol: float = 1e-8,
        max_sweeps: int = 10_000,
    ) -> None:
        # Column layout once, up front: forward_push scatters along columns,
        # and converting per call would put O(n + m) back into every
        # supposedly O(change) refresh.
        self.operator = operator.tocsc()
        self.alpha = float(alpha)
        self.tol = float(tol)
        self.max_sweeps = check_positive_int(max_sweeps, "max_sweeps")
        self.cost_model = RefreshCostModel(
            nnz=self.operator.nnz, alpha=self.alpha, tol=self.tol
        )

    def cold_start(self, signal: np.ndarray) -> RefreshOutcome:
        """Diffuse ``signal`` from scratch (the initial warm-up)."""
        result = forward_push(
            self.operator,
            signal,
            alpha=self.alpha,
            tol=self.tol,
            max_sweeps=self.max_sweeps,
        )
        self.cost_model.observe(
            "full",
            float(np.abs(np.asarray(signal, dtype=np.float64)).sum()),
            result.edge_operations,
        )
        return RefreshOutcome(
            strategy="full",
            scores=result.estimate,
            sweeps=result.sweeps,
            pushes=result.pushes,
            edge_operations=result.edge_operations,
            residual_l1=result.residual_l1,
        )

    def cost_estimate(self, strategy: str, dirty_mass: float = 0.0) -> float:
        """Predicted edge operations of ``refresh(strategy, ...)`` now.

        ``dirty_mass`` is the L1 norm of the pending signal delta (what a
        :class:`repro.churn.StalenessTracker` maintains).  Fitted from this
        refresher's own observed runs via :class:`RefreshCostModel` — the
        same pricing the SLO scheduler consumes, so scheduler decisions and
        refresher accounting can never drift apart.
        """
        return self.cost_model.estimate(strategy, dirty_mass)

    def refresh(
        self,
        strategy: str,
        old_scores: np.ndarray,
        old_signal: np.ndarray,
        new_signal: np.ndarray,
    ) -> RefreshOutcome:
        """Follow the signal change ``old_signal → new_signal``.

        ``old_scores`` must be the diffusion of ``old_signal`` (e.g. a prior
        :meth:`cold_start`/:meth:`refresh` result).
        """
        check_strategy(strategy)
        if strategy == "stale":
            return RefreshOutcome(
                strategy=strategy,
                scores=old_scores,
                sweeps=0,
                pushes=0,
                edge_operations=0,
            )
        if strategy == "full":
            return self.cold_start(new_signal)
        delta = np.asarray(new_signal, dtype=np.float64) - np.asarray(
            old_signal, dtype=np.float64
        )
        patched, result = push_refresh(
            self.operator,
            old_scores,
            delta,
            alpha=self.alpha,
            tol=self.tol,
            max_sweeps=self.max_sweeps,
        )
        self.cost_model.observe(
            "incremental", float(np.abs(delta).sum()), result.edge_operations
        )
        return RefreshOutcome(
            strategy=strategy,
            scores=patched,
            sweeps=result.sweeps,
            pushes=result.pushes,
            edge_operations=result.edge_operations,
            residual_l1=result.residual_l1,
        )
