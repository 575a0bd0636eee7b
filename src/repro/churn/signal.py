"""Scalar-signal view of a churn stream, with staleness bookkeeping.

The experiment drivers and the churn benchmark work on the scalar
relevance signal of :class:`repro.simulation.refresh.SignalRefresher`
(one diffusable weight per node) rather than the full embedding matrix —
same mathematics, a fraction of the cost.  :class:`SignalChurnState`
maintains that signal under a :class:`~repro.churn.stream.ChurnStream`:

* each event updates the per-node signal (documents contribute their
  weight at their home node) in O(1);
* each touched node's pending delta vs the *diffused baseline* is pushed
  into a :class:`~repro.churn.staleness.StalenessTracker` — overwritten,
  not accumulated, so repeated churn on one node coalesces exactly like
  the refresh itself does;
* :meth:`commit_refresh` advances the baseline after a refresh and hands
  the push residual to the tracker.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.churn.staleness import StalenessTracker
from repro.churn.stream import ChurnEvent

__all__ = ["SignalChurnState"]


class SignalChurnState:
    """Evolving per-node document-mass signal plus its staleness tracker."""

    def __init__(
        self,
        n_nodes: int,
        *,
        initial_placement: Mapping[str, int] | None = None,
        weight_of: Callable[[str], float] | None = None,
    ) -> None:
        self.n_nodes = int(n_nodes)
        self.weight_of = weight_of or (lambda doc_id: 1.0)
        self.placement: dict[str, int] = dict(initial_placement or {})
        self.signal = np.zeros(self.n_nodes, dtype=np.float64)
        for doc_id, node in self.placement.items():
            self.signal[node] += self.weight_of(doc_id)
        # The baseline is what the served scores were diffused from; until
        # the first commit there is none and the tracker's bound is ∞.
        self.baseline: np.ndarray | None = None
        self.tracker = StalenessTracker()

    # ---------------------------------------------------------------- events

    def apply(self, event: ChurnEvent) -> None:
        """Fold one churn event into the signal and the staleness tracker."""
        touched: list[int] = []
        if event.kind == "doc_add":
            weight = self.weight_of(event.doc_id)
            self.placement[event.doc_id] = event.node
            self.signal[event.node] += weight
            touched = [event.node]
        elif event.kind == "doc_move":
            weight = self.weight_of(event.doc_id)
            origin = self.placement[event.doc_id]
            self.placement[event.doc_id] = event.node
            self.signal[origin] -= weight
            self.signal[event.node] += weight
            touched = [origin, event.node]
        elif event.kind == "doc_delete":
            weight = self.weight_of(event.doc_id)
            node = self.placement.pop(event.doc_id)
            self.signal[node] -= weight
            touched = [node]
        elif event.kind == "node_leave":
            for doc_id in [
                d for d, v in self.placement.items() if v == event.node
            ]:
                self.signal[event.node] -= self.weight_of(doc_id)
                del self.placement[doc_id]
            touched = [event.node]
        # node_join: no signal change.
        if self.baseline is not None:
            for node in touched:
                self.tracker.set_pending(
                    node, abs(float(self.signal[node] - self.baseline[node]))
                )

    # --------------------------------------------------------------- refresh

    def commit_refresh(self, residual_l1: float, *, full: bool) -> None:
        """Advance the baseline to the current signal after a refresh."""
        self.baseline = self.signal.copy()
        self.tracker.record_refresh(residual_l1, full=full)

    @property
    def dirty_mass(self) -> float:
        return self.tracker.dirty_mass

    def bound(self) -> float:
        return self.tracker.bound()

    def refreshable(self) -> float:
        return self.tracker.refreshable()
