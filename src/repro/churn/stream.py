"""Deterministic, seeded churn streams over the event clock.

The paper's evaluation is a single frozen snapshot; a live deployment sees
documents and nodes arrive, move and leave continuously.  This module
defines that workload as *data*: a :class:`ChurnStream` generates a
reproducible sequence of :class:`ChurnEvent` s from ``(config, seed)`` —
the churn analogue of :class:`repro.runtime.faults.FaultPlan` — which can
be replayed against any consumer:

* :func:`apply_churn_event` mutates a
  :class:`~repro.core.search.DiffusionSearchNetwork` (documents placed,
  moved, removed; departing nodes take their documents with them), which
  feeds the network's dirty-node/dirty-mass machinery;
* a caller schedules :meth:`ChurnStream.events` on an
  :class:`~repro.runtime.events.EventQueue` (``queue.schedule_at(event.time,
  ...)``), so churn interleaves with query arrivals on one shared clock.
  Churn draws from its own seeded generator, so nothing else drawn on the
  clock perturbs the churn sequence.

Event kinds and their feasibility rules:

* ``doc_add`` — a new document appears on a live node;
* ``doc_move`` — an existing document relocates (``origin`` → ``node``);
* ``doc_delete`` — an existing document disappears;
* ``node_leave`` — a live node departs, taking its documents (the stream
  never empties the overlay: at least one node stays);
* ``node_join`` — a previously departed node returns (empty).

Kinds compete as independent Poisson processes (:class:`ChurnRates`);
infeasible kinds (no documents to move, no departed node to rejoin) are
excluded from the race at that instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.utils import check_non_negative, check_positive_int, ensure_rng
from repro.utils.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.search import DiffusionSearchNetwork

__all__ = [
    "CHURN_KINDS",
    "ChurnEvent",
    "ChurnRates",
    "ChurnStream",
    "apply_churn_event",
]

CHURN_KINDS = ("doc_add", "doc_move", "doc_delete", "node_leave", "node_join")


@dataclass(frozen=True)
class ChurnEvent:
    """One churn occurrence at a simulation time.

    ``node`` is the affected/destination node (``doc_move``: where the
    document lands; ``node_leave``/``node_join``: the node itself);
    ``origin`` is set only for ``doc_move`` (where it came from).
    """

    time: float
    kind: str
    doc_id: str | None = None
    node: int | None = None
    origin: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; expected one of {CHURN_KINDS}"
            )


@dataclass(frozen=True)
class ChurnRates:
    """Per-kind Poisson intensities (events per simulation time unit)."""

    doc_add: float = 0.0
    doc_move: float = 0.0
    doc_delete: float = 0.0
    node_leave: float = 0.0
    node_join: float = 0.0

    def __post_init__(self) -> None:
        for kind in CHURN_KINDS:
            check_non_negative(getattr(self, kind), kind)
        if self.total == 0.0:
            raise ValueError("at least one churn rate must be positive")

    @property
    def total(self) -> float:
        return sum(getattr(self, kind) for kind in CHURN_KINDS)


class ChurnStream:
    """Seeded generator of churn event sequences over a fixed overlay.

    The stream tracks the evolving document placement and live-node set
    *during generation*, so every emitted event is feasible at its time
    (moves reference live documents, joins reference departed nodes, ...).
    Generation is a pure function of the constructor arguments: calling
    :meth:`events` twice, or on two identically-configured streams,
    yields identical sequences.
    """

    def __init__(
        self,
        n_nodes: int,
        rates: ChurnRates,
        *,
        initial_placement: Mapping[str, int] | None = None,
        seed: RngLike = 0,
        doc_prefix: str = "churn-doc-",
    ) -> None:
        check_positive_int(n_nodes, "n_nodes")
        self.n_nodes = int(n_nodes)
        self.rates = rates
        self.initial_placement = dict(initial_placement or {})
        for doc_id, node in self.initial_placement.items():
            if not 0 <= node < self.n_nodes:
                raise ValueError(
                    f"initial placement of {doc_id!r} at node {node} out of "
                    f"range [0, {self.n_nodes})"
                )
        self.seed = seed
        self.doc_prefix = doc_prefix

    # ------------------------------------------------------------- generation

    def events(
        self,
        *,
        horizon: float | None = None,
        n: int | None = None,
    ) -> list[ChurnEvent]:
        """Generate the deterministic event sequence.

        Exactly one of ``horizon`` (events until that time) or ``n`` (that
        many events) must be given.
        """
        if (horizon is None) == (n is None):
            raise ValueError("specify exactly one of horizon= or n=")
        if horizon is not None:
            check_non_negative(horizon, "horizon")
        if n is not None:
            check_non_negative(int(n), "n")
        rng = ensure_rng(self.seed)
        placement = dict(self.initial_placement)
        live = list(range(self.n_nodes))
        departed: list[int] = []
        doc_counter = 0
        now = 0.0
        events: list[ChurnEvent] = []

        while True:
            if n is not None and len(events) >= n:
                break
            kinds, rates = self._feasible(placement, live, departed)
            if not kinds:
                break
            total = float(sum(rates))
            now += float(rng.exponential(1.0 / total))
            if horizon is not None and now > horizon:
                break
            kind = kinds[
                int(rng.choice(len(kinds), p=np.asarray(rates) / total))
            ]
            if kind == "doc_add":
                doc_id = f"{self.doc_prefix}{doc_counter}"
                doc_counter += 1
                node = live[int(rng.integers(len(live)))]
                placement[doc_id] = node
                events.append(ChurnEvent(now, kind, doc_id=doc_id, node=node))
            elif kind == "doc_move":
                docs = list(placement)
                doc_id = docs[int(rng.integers(len(docs)))]
                origin = placement[doc_id]
                candidates = [v for v in live if v != origin] or live
                node = candidates[int(rng.integers(len(candidates)))]
                placement[doc_id] = node
                events.append(
                    ChurnEvent(now, kind, doc_id=doc_id, node=node, origin=origin)
                )
            elif kind == "doc_delete":
                docs = list(placement)
                doc_id = docs[int(rng.integers(len(docs)))]
                node = placement.pop(doc_id)
                events.append(ChurnEvent(now, kind, doc_id=doc_id, node=node))
            elif kind == "node_leave":
                node = live.pop(int(rng.integers(len(live))))
                departed.append(node)
                # The node's documents depart with it; the applier mirrors
                # this, so the event itself carries only the node.
                for doc_id in [d for d, v in placement.items() if v == node]:
                    del placement[doc_id]
                events.append(ChurnEvent(now, kind, node=node))
            else:  # node_join
                node = departed.pop(int(rng.integers(len(departed))))
                live.append(node)
                events.append(ChurnEvent(now, kind, node=node))
        return events

    def _feasible(
        self,
        placement: dict[str, int],
        live: list[int],
        departed: list[int],
    ) -> tuple[list[str], list[float]]:
        """Kinds that can fire now, with their rates (the competing risks)."""
        kinds: list[str] = []
        rates: list[float] = []
        for kind in CHURN_KINDS:
            rate = getattr(self.rates, kind)
            if rate <= 0:
                continue
            if kind in ("doc_move", "doc_delete") and not placement:
                continue
            if kind in ("doc_add", "doc_move") and not live:
                continue
            if kind == "node_leave" and len(live) <= 1:
                continue
            if kind == "node_join" and not departed:
                continue
            kinds.append(kind)
            rates.append(rate)
        return kinds, rates


def apply_churn_event(
    network: "DiffusionSearchNetwork",
    event: ChurnEvent,
    *,
    embedding_of: Callable[[str], np.ndarray] | None = None,
) -> None:
    """Replay one churn event against a search network.

    ``embedding_of`` supplies the vector for ``doc_add`` events (a seeded
    deterministic generator keeps replays exact); moves reuse the stored
    embedding.  ``node_join`` is a no-op on the network — the topology is
    fixed and a returning node simply becomes eligible for future
    placements — while ``node_leave`` removes every document homed on the
    departing node, mirroring the stream's own bookkeeping.
    """
    if event.kind == "doc_add":
        if embedding_of is None:
            raise ValueError("doc_add events require an embedding_of callback")
        network.place_document(event.doc_id, embedding_of(event.doc_id), event.node)
    elif event.kind == "doc_move":
        node = network.location_of(event.doc_id)
        vector = np.array(
            network.stores[node].embedding_of(event.doc_id), copy=True
        )
        network.remove_document(event.doc_id)
        network.place_document(event.doc_id, vector, event.node)
    elif event.kind == "doc_delete":
        network.remove_document(event.doc_id)
    elif event.kind == "node_leave":
        for doc_id in list(network.documents_at(event.node)):
            network.remove_document(doc_id)
    # node_join: nothing to mutate on a fixed topology.
