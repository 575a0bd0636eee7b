"""Micro-batching scheduler: coalesce a query stream into engine batches.

The vectorized batch engine (``run_queries``) amortizes CSR gathers and
policy evaluation across queries, but an online arrival stream delivers
queries one at a time.  The :class:`MicroBatcher` bridges the two with the
classic dual trigger:

* **size** — the pending set reaches ``max_batch``: flush immediately.
* **time** — ``max_wait`` elapsed since the *first* pending query arrived:
  flush whatever has accumulated (bounded added latency for the query that
  opened the window).

Timing rides the shared :class:`~repro.runtime.events.EventQueue`, so the
batcher composes with the rest of the simulation (load generators, churn
events) on one clock.  The size trigger cancels the armed timer via
``ScheduledEvent.cancel()`` — safe even when the timer already dispatched in
the same tick, because cancel-after-dispatch is an idempotent no-op that
returns ``False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.runtime.events import EventQueue, ScheduledEvent
from repro.utils import check_positive, check_positive_int

__all__ = ["MicroBatchConfig", "MicroBatcher"]

T = TypeVar("T")


@dataclass(frozen=True)
class MicroBatchConfig:
    """Dual-trigger knobs: flush at ``max_batch`` items or after ``max_wait``."""

    max_batch: int = 32
    max_wait: float = 5.0

    def __post_init__(self) -> None:
        check_positive_int(self.max_batch, "max_batch")
        check_positive(self.max_wait, "max_wait")


class MicroBatcher(Generic[T]):
    """Accumulates items and hands full or timed-out batches to ``flush_cb``."""

    def __init__(
        self,
        queue: EventQueue,
        flush_cb: Callable[[list[T]], None],
        config: MicroBatchConfig | None = None,
    ) -> None:
        self.queue = queue
        self.flush_cb = flush_cb
        self.config = config or MicroBatchConfig()
        self._pending: list[T] = []
        self._timer: ScheduledEvent | None = None
        self.flushes_by_size = 0
        self.flushes_by_timer = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, item: T) -> None:
        """Enqueue one item; may flush synchronously on the size trigger."""
        self._pending.append(item)
        if len(self._pending) >= self.config.max_batch:
            self.flushes_by_size += 1
            self._flush()
            return
        if self._timer is None:
            self._timer = self.queue.schedule(self.config.max_wait, self._on_timer)

    def flush(self) -> None:
        """Force out whatever is pending (e.g. at end of stream)."""
        if self._pending:
            self._flush()

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self.flushes_by_timer += 1
            self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        self.flush_cb(batch)
