"""Deterministic fault injection for the simulated P2P overlay.

The paper's evaluation assumes every peer answers and every message
arrives; a real overlay has neither.  This module defines the failure
taxonomy the rest of the stack is hardened against, as *data* — a seeded
:class:`FaultPlan` — plus the :class:`FaultInjector` that drives it, so a
faulty run is exactly reproducible from ``(plan, workload, seed)``:

- **node crash / recover** — a crashed node neither receives, evaluates,
  nor forwards anything; its incident links are effectively dark for the
  duration of its :class:`CrashWindow`.
- **message drop** — independent per-message Bernoulli loss on top of
  whatever the network's own ``drop_probability`` models.
- **message delay** — extra per-message latency, ``Uniform(0, extra_delay)``.
- **message duplication** — per-message Bernoulli duplication (the
  at-least-once failure mode of retransmitting transports).
- **zombie peers** — nodes that stay up and keep routing but serve *stale*
  embeddings: their local evaluation is worthless even though the walk
  passes straight through them.

Two consumers, one plan:

- the synchronous walk engine (:func:`repro.core.batch.run_queries`, and
  :func:`repro.core.engine.run_query`, its one-walk call) takes the hop
  index as the logical time and reads whole node masks
  (:meth:`FaultInjector.down_mask`, :attr:`FaultInjector.zombie_mask`).
  Each walk draws its message drops from its own stream
  (:meth:`FaultInjector.walk_streams`), handed out in the order walks
  start, so a walk's drops do not depend on how many other walks run
  beside it or in which order the engine advances them;
- the event-driven runtime gets the same plan scheduled through the
  :class:`~repro.runtime.events.EventQueue`:
  :meth:`FaultInjector.install` registers crash/recover events on a
  :class:`~repro.runtime.network.SimNetwork` and hooks its per-message
  drop/delay/duplication decisions, drawn in event order from the
  injector's shared generator.

Every draw comes from generators seeded by the plan, never from the
protocol's, so injecting faults perturbs *only* the failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.utils import (
    check_non_negative,
    check_non_negative_int,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.network import SimNetwork

__all__ = [
    "CrashWindow",
    "FaultDecision",
    "FaultPlan",
    "FaultInjector",
    "choose_live_starts",
]


@dataclass(frozen=True)
class CrashWindow:
    """One node's downtime interval ``[start, end)`` (``end=inf``: permanent)."""

    node: int
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        check_non_negative_int(self.node, "crash window node")
        check_non_negative(self.start, "start")
        # Not `end <= start`: a NaN end compares False both ways and would
        # pass as a window that covers no time at all.
        if not self.end > self.start:
            raise ValueError(
                f"crash window must end after it starts, got "
                f"[{self.start}, {self.end})"
            )

    def covers(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class FaultDecision:
    """Per-message verdict handed back to the network's send path."""

    deliver: bool = True
    copies: int = 1
    extra_delay: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of faults for one overlay.

    The plan is pure data — it can be generated
    (:meth:`generate`), constructed explicitly for targeted tests, hashed
    into experiment configs, and replayed exactly.  Probabilities apply
    per message; crashes are time windows; ``zombies`` are node ids that
    answer with stale embeddings for the whole run.
    """

    n_nodes: int
    crashes: tuple[CrashWindow, ...] = ()
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    extra_delay: float = 0.0
    zombies: frozenset[int] = frozenset()
    seed: int = 0

    def __post_init__(self) -> None:
        # The injector seeds its generators from this; numpy would reject a
        # negative one only there, naming no field, and take True as 1.
        check_non_negative_int(self.seed, "seed")
        check_probability(self.drop_probability, "drop_probability")
        check_probability(self.duplicate_probability, "duplicate_probability")
        check_non_negative(self.extra_delay, "extra_delay")
        windows_by_node: dict[int, list[CrashWindow]] = {}
        for window in self.crashes:
            if not 0 <= window.node < self.n_nodes:
                raise ValueError(
                    f"crash window node {window.node} out of range "
                    f"[0, {self.n_nodes})"
                )
            windows_by_node.setdefault(window.node, []).append(window)
        for node in self.zombies:
            check_non_negative_int(node, "zombie node")
            if not node < self.n_nodes:
                raise ValueError(
                    f"zombie node {node} out of range [0, {self.n_nodes})"
                )
        # Per-node index for `crashed_at`, the point liveness check behind
        # `FaultInjector.alive`.  Set outside the dataclass fields, so plan
        # equality, hashing and repr still see only the windows.
        object.__setattr__(self, "_windows_by_node", windows_by_node)

    # ----------------------------------------------------------- inspection

    def crashed_at(self, node: int, time: float) -> bool:
        """Is ``node`` inside any of its crash windows at ``time``?"""
        windows = self._windows_by_node.get(node)
        return windows is not None and any(w.covers(time) for w in windows)

    def crashed_nodes(self, time: float) -> frozenset[int]:
        """All nodes down at ``time``."""
        return frozenset(w.node for w in self.crashes if w.covers(time))

    def live_nodes(self, time: float = 0.0) -> list[int]:
        """Node ids not crashed at ``time`` (zombies count as live)."""
        down = self.crashed_nodes(time)
        return [n for n in range(self.n_nodes) if n not in down]

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.crashes
            and not self.zombies
            and self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.extra_delay == 0.0
        )

    # ----------------------------------------------------------- generation

    @classmethod
    def generate(
        cls,
        n_nodes: int,
        *,
        crash_fraction: float = 0.0,
        crash_start: float = 0.0,
        recover_after: float = math.inf,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        extra_delay: float = 0.0,
        zombie_fraction: float = 0.0,
        protect: Iterable[int] = (),
        seed: int = 0,
    ) -> "FaultPlan":
        """Sample a plan: which nodes crash (and when) is a function of ``seed``.

        ``crash_fraction`` of the eligible nodes (everything except
        ``protect``) crash at ``crash_start`` and recover ``recover_after``
        time units later (never, by default).  ``zombie_fraction`` of the
        *remaining* live nodes serve stale embeddings.  The two sets are
        disjoint — a crashed node cannot also be a zombie.
        """
        check_probability(crash_fraction, "crash_fraction")
        check_probability(zombie_fraction, "zombie_fraction")
        rng = np.random.default_rng(seed)
        protected = set(int(p) for p in protect)
        eligible = np.asarray(
            [n for n in range(n_nodes) if n not in protected], dtype=np.int64
        )
        n_crashed = int(round(crash_fraction * eligible.shape[0]))
        crashed = (
            np.sort(rng.choice(eligible, size=n_crashed, replace=False))
            if n_crashed
            else np.empty(0, dtype=np.int64)
        )
        end = (
            math.inf
            if math.isinf(recover_after)
            else crash_start + float(recover_after)
        )
        remaining = np.asarray(
            sorted(set(eligible.tolist()) - set(crashed.tolist())),
            dtype=np.int64,
        )
        n_zombies = int(round(zombie_fraction * remaining.shape[0]))
        zombies = (
            np.sort(rng.choice(remaining, size=n_zombies, replace=False))
            if n_zombies
            else np.empty(0, dtype=np.int64)
        )
        return cls(
            n_nodes=n_nodes,
            crashes=tuple(
                CrashWindow(int(node), float(crash_start), end)
                for node in crashed
            ),
            drop_probability=float(drop_probability),
            duplicate_probability=float(duplicate_probability),
            extra_delay=float(extra_delay),
            zombies=frozenset(int(z) for z in zombies),
            seed=int(seed),
        )


@dataclass
class FaultInjector:
    """Executes a :class:`FaultPlan`: answers liveness/delivery questions.

    Holds the plan-seeded generators every fault draw comes from, plus
    counters for reporting.  The event path draws from one shared generator
    in event order.  The walk engines give each walk its own drop stream,
    seeded from ``(plan.seed, walk index)``, where walks are numbered in the
    order they start (:meth:`walk_streams`).  Either way a run is
    reproducible from the plan seed, and :meth:`reset` rewinds both the
    shared stream and the walk numbering for an exact replay.
    """

    plan: FaultPlan
    _rng: np.random.Generator = field(init=False, repr=False)
    dropped: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)
    crash_detections: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.plan.seed)
        self._walks = 0  # walks that took their drop streams so far
        self._down_masks: dict[float, np.ndarray] = {}
        crashes = self.plan.crashes
        self._window_nodes = np.array([w.node for w in crashes], dtype=np.int64)
        self._window_starts = np.array([w.start for w in crashes], dtype=float)
        self._window_ends = np.array([w.end for w in crashes], dtype=float)
        zombies = np.zeros(self.plan.n_nodes, dtype=bool)
        zombies[list(self.plan.zombies)] = True
        zombies.setflags(write=False)
        #: Boolean node mask of the zombie peers (read-only).
        self.zombie_mask = zombies

    def reset(self) -> None:
        """Rewind the fault streams and counters for an exact replay."""
        self._rng = np.random.default_rng(self.plan.seed)
        self._walks = 0
        self.dropped = 0
        self.duplicated = 0
        self.crash_detections = 0

    # ----------------------------------------------- synchronous-engine API

    def alive(self, node: int, time: float) -> bool:
        """Is ``node`` up at ``time``?  (Walks use hop indices as time.)

        A point check; the walk engine reads :meth:`down_mask` instead.
        """
        return not self.plan.crashed_at(node, time)

    def down_mask(self, time: float) -> np.ndarray:
        """Boolean node mask of the peers crashed at ``time`` (read-only).

        The lockstep engine's liveness check: one mask per hop, built once
        per distinct time and cached, so a walk reads it with one gather.
        """
        mask = self._down_masks.get(time)
        if mask is None:
            mask = np.zeros(self.plan.n_nodes, dtype=bool)
            covering = (self._window_starts <= time) & (time < self._window_ends)
            mask[self._window_nodes[covering]] = True
            mask.setflags(write=False)
            self._down_masks[time] = mask
        return mask

    def walk_streams(self, count: int) -> list[np.random.Generator] | None:
        """Drop streams of the next ``count`` walks, in the order they start.

        Walk ``i`` (counted from construction or the last :meth:`reset`)
        draws from ``default_rng([plan.seed, i])``.  An engine takes its
        walks' streams before running them, so a batch of ``count`` walks
        draws exactly what ``count`` single walks started in the same order
        would.  Returns ``None`` (and builds no generator) when the plan
        drops nothing; the walks are still counted.
        """
        first = self._walks
        self._walks += count
        if not self.plan.drop_probability:
            return None
        seed = self.plan.seed
        return [np.random.default_rng([seed, first + i]) for i in range(count)]

    def walk_drops(self, stream: np.random.Generator | None) -> bool:
        """Draw one walk's drop lottery for a message attempt; True if lost."""
        if stream is not None and stream.random() < self.plan.drop_probability:
            self.dropped += 1
            return True
        return False

    def deliver(self, src: int, dst: int) -> bool:
        """Draw the shared drop lottery for one event-path message src→dst."""
        if (
            self.plan.drop_probability
            and self._rng.random() < self.plan.drop_probability
        ):
            self.dropped += 1
            return False
        return True

    # ------------------------------------------------- event-driven API

    def decide(self, src: int, dst: int, time: float) -> FaultDecision:
        """Full per-message verdict for the :class:`SimNetwork` send path."""
        if not self.deliver(src, dst):
            return FaultDecision(deliver=False)
        copies = 1
        if (
            self.plan.duplicate_probability
            and self._rng.random() < self.plan.duplicate_probability
        ):
            copies = 2
            self.duplicated += 1
        extra = 0.0
        if self.plan.extra_delay:
            extra = float(self._rng.uniform(0.0, self.plan.extra_delay))
        return FaultDecision(deliver=True, copies=copies, extra_delay=extra)

    def install(self, network: "SimNetwork") -> "FaultInjector":
        """Wire this injector into an event-driven network.

        Registers the per-message hook and schedules every crash/recover
        transition through the network's :class:`EventQueue`, so fault
        timing participates in the same deterministic (time, seq) order as
        protocol traffic.  Windows already open at the current simulation
        time take effect immediately.
        """
        network.set_fault_injector(self)
        for window in self.plan.crashes:
            if window.covers(network.now):
                network.fail_node(window.node)
            elif window.start > network.now:
                network.queue.schedule_at(
                    window.start,
                    lambda node=window.node: network.fail_node(node),
                )
            if not math.isinf(window.end) and window.end > network.now:
                network.queue.schedule_at(
                    window.end,
                    lambda node=window.node: network.restore_node(node),
                )
        return self

    # ------------------------------------------------------------- helpers

    def pick_live_start(
        self, rng: np.random.Generator, time: float = 0.0
    ) -> int:
        """Sample a non-crashed start node (a dead user issues no queries)."""
        live = self.plan.live_nodes(time)
        if not live:
            raise ValueError("every node is crashed; no live start node")
        return int(live[int(rng.integers(0, len(live)))])


def choose_live_starts(
    plan: FaultPlan,
    n: int,
    rng: np.random.Generator,
    *,
    time: float = 0.0,
) -> np.ndarray:
    """Sample ``n`` query start nodes among the nodes live at ``time``."""
    live = np.asarray(plan.live_nodes(time), dtype=np.int64)
    if live.size == 0:
        raise ValueError("every node is crashed; no live start node")
    return live[rng.integers(0, live.size, size=n)]
