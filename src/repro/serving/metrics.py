"""Latency/outcome accounting for the online query service.

Collects one record per submitted query (the service guarantees every
submission produces exactly one :class:`~repro.serving.service.QueryResponse`,
so the counters here partition the stream) plus per-batch and refresh
bookkeeping, and summarizes them the way the saturation benchmark and the
CI schema check expect: p50/p95/p99 completion latency, throughput over a
horizon, and shed/degraded counts and rates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.utils import check_positive

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serving.service import QueryResponse

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Counters and latency samples for one service lifetime.

    Latency percentiles are computed over *completed* queries (outcomes
    ``OK`` and ``DEGRADED``) — a shed query never ran, so folding its
    non-latency into the distribution would flatter the very overload the
    shed rate is there to expose.  Rejections are counted per reason
    instead (``queue_full``/``throttled``/``queue_depth``/``deadline``).
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.ok = 0
        self.degraded = 0
        self.rejected = 0
        self.rejected_by_reason: dict[str, int] = {}
        self.deadline_hits = 0
        self.stale_served = 0
        self.refreshes = 0
        self.full_refreshes = 0
        self.deferred_refreshes = 0
        self.failed_refreshes = 0
        # SLO-scheduled serving only: batches served stale while the
        # refreshable staleness exceeded the target (budget exhausted).
        self.slo_violations = 0
        self.batches = 0
        self.batched_queries = 0
        self._latencies: list[float] = []

    # -------------------------------------------------------------- recording

    def record_submitted(self) -> None:
        self.submitted += 1

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_queries += int(size)

    def record_response(self, response: "QueryResponse") -> None:
        """Fold one finished query into the counters."""
        from repro.serving.service import Outcome  # local: import cycle

        if response.outcome is Outcome.REJECTED:
            self.rejected += 1
            reason = response.reason or "unknown"
            self.rejected_by_reason[reason] = (
                self.rejected_by_reason.get(reason, 0) + 1
            )
            return
        if response.outcome is Outcome.DEGRADED:
            self.degraded += 1
        else:
            self.ok += 1
        if response.result is not None and response.result.deadline_hit:
            self.deadline_hits += 1
        if response.stale_served:
            self.stale_served += 1
        self._latencies.append(float(response.latency))

    # ------------------------------------------------------------- inspection

    @property
    def completed(self) -> int:
        """Queries that ran to a result (OK + DEGRADED)."""
        return self.ok + self.degraded

    @property
    def pending(self) -> int:
        """Admitted queries not yet resolved to a response."""
        return self.submitted - self.completed - self.rejected

    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else math.nan

    def latency_percentile(self, percentile: float) -> float:
        """Completion-latency percentile (NaN when nothing completed)."""
        if not self._latencies:
            return math.nan
        return float(np.percentile(self._latencies, percentile))

    def throughput(self, horizon: float) -> float:
        """Completed queries per time unit over ``horizon``."""
        check_positive(horizon, "horizon")  # NaN fails `<= 0` but not this
        return self.completed / float(horizon)

    def summary(self, *, horizon: float | None = None) -> dict[str, Any]:
        """The machine-readable digest benchmarks emit per sweep cell."""
        submitted = max(self.submitted, 1)  # rate denominators
        out: dict[str, Any] = {
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "shed_rate": self.rejected / submitted,
            "degraded_rate": self.degraded / submitted,
            "deadline_hits": self.deadline_hits,
            "stale_served": self.stale_served,
            "refreshes": self.refreshes,
            "full_refreshes": self.full_refreshes,
            "deferred_refreshes": self.deferred_refreshes,
            "failed_refreshes": self.failed_refreshes,
            "slo_violations": self.slo_violations,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "p50": self.latency_percentile(50),
            "p95": self.latency_percentile(95),
            "p99": self.latency_percentile(99),
            "mean_latency": (
                float(np.mean(self._latencies)) if self._latencies else math.nan
            ),
            "max_latency": (
                float(np.max(self._latencies)) if self._latencies else math.nan
            ),
        }
        if horizon is not None:
            out["throughput"] = self.throughput(horizon)
        return out
