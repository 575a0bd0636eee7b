"""Churn-at-scale: staleness-aware serving under sustained content churn.

The paper defers "time-evolving conditions" to future work.  This package
is that future work's operational core — keeping a diffusion-search
deployment correct-enough and live while documents and nodes churn
continuously (10⁵–10⁶ events), without ever paying for freshness it
cannot afford or hiding staleness it cannot repair:

* :class:`ChurnStream` — deterministic seeded churn workloads
  (document add/move/delete, node join/leave), timestamped for the
  shared event clock;
* :class:`StalenessTracker` — a cheap, sound upper bound on the served
  scores' L1 error: the last full run's error floor, plus the residual
  its patches abandoned, plus pending dirty mass, so scheduling acts on an
  *estimate* instead of ground truth;
* :class:`RefreshScheduler` / :class:`RefreshSLO` — per-tick
  defer / incremental / full decisions against a staleness target and an
  edge-operation budget, priced by the fitted :class:`RefreshCostModel`
  shared with :class:`repro.simulation.refresh.SignalRefresher`;
* :class:`SignalChurnState` — the scalar-signal harness the churn
  benchmark and examples drive.

Serving integration lives in :mod:`repro.serving.service`
(``StalenessConfig(slo=...)``): batches consume the refreshable part of
the network's staleness bound, refreshes are scheduled rather than
size-gated, and responses are stamped with the bound they were served
under.
"""

from repro.churn.scheduler import (
    REFRESH_STRATEGIES,
    RefreshCostModel,
    RefreshDecision,
    RefreshSLO,
    RefreshScheduler,
    check_strategy,
)
from repro.churn.signal import SignalChurnState
from repro.churn.staleness import StalenessTracker
from repro.churn.stream import (
    CHURN_KINDS,
    ChurnEvent,
    ChurnRates,
    ChurnStream,
    apply_churn_event,
)

__all__ = [
    "CHURN_KINDS",
    "ChurnEvent",
    "ChurnRates",
    "ChurnStream",
    "REFRESH_STRATEGIES",
    "RefreshCostModel",
    "RefreshDecision",
    "RefreshSLO",
    "RefreshScheduler",
    "SignalChurnState",
    "StalenessTracker",
    "apply_churn_event",
    "check_strategy",
]
