"""The simulated P2P network: topology, message delivery, accounting.

Topology is mutable (churn support); message sends are only permitted along
current edges, mirroring a real overlay where a node can only talk to peers
it holds connections to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.runtime.events import EventQueue
from repro.runtime.node import SimNode
from repro.utils import check_non_negative, check_probability, ensure_rng
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class LatencyModel:
    """Per-message link delay: ``base + Uniform(0, jitter)`` time units."""

    base: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        check_non_negative(self.base, "base")
        check_non_negative(self.jitter, "jitter")

    def sample(self, rng: np.random.Generator) -> float:
        if self.jitter == 0.0:
            return self.base
        return self.base + float(rng.uniform(0.0, self.jitter))


@dataclass
class TrafficStats:
    """Message and (approximate) byte accounting for a simulation run.

    ``by_type`` counts sends per message class; dropped messages are
    *additionally* counted under a ``dropped:``-prefixed key, so per-type
    loss is observable (a protocol that tolerates losing ``EmbeddingPush``
    but not ``DegreeAnnounce`` can tell the two apart).
    """

    messages: int = 0
    bytes: float = 0.0
    dropped: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def record(self, message: Any) -> None:
        self.messages += 1
        self.bytes += float(getattr(message, "size_bytes", lambda: 64.0)())
        name = type(message).__name__
        self.by_type[name] = self.by_type.get(name, 0) + 1

    def record_dropped(self, message: Any) -> None:
        """Count one lost message (already recorded as sent by :meth:`record`)."""
        self.dropped += 1
        name = f"dropped:{type(message).__name__}"
        self.by_type[name] = self.by_type.get(name, 0) + 1


class SimNetwork:
    """Event-driven network of :class:`SimNode` actors.

    Parameters
    ----------
    topology:
        Initial undirected topology; nodes are the internal ids ``0..n-1``.
    latency:
        Link delay model applied to every message.
    drop_probability:
        Independent probability that any message is silently dropped in
        flight (failure injection).  Protocols relying on periodic
        retransmission (e.g. periodic-mode gossip) tolerate loss; one-shot
        push protocols may stall, which tests exercise deliberately.
    seed:
        Seeds latency jitter and loss draws (and nothing else — node logic
        draws from its own streams so traffic noise never perturbs protocol
        randomness).

    Message loss is the network's only failure mode.  Crashed peers and
    per-walk drops are the query walk's fault model
    (:mod:`repro.runtime.faults`), which runs on the hop clock of the walk
    engine, not on this event clock.
    """

    def __init__(
        self,
        topology: CompressedAdjacency,
        *,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: RngLike = None,
    ) -> None:
        check_probability(drop_probability, "drop_probability")
        if drop_probability >= 1.0:
            raise ValueError("drop_probability must be < 1 (nothing would arrive)")
        self.queue = EventQueue()
        self.latency = latency or LatencyModel()
        self.drop_probability = float(drop_probability)
        self._rng = ensure_rng(seed)
        self._adjacency: dict[int, set[int]] = {
            u: set(int(v) for v in topology.neighbors(u))
            for u in range(topology.n_nodes)
        }
        self._nodes: dict[int, SimNode] = {}
        self.stats = TrafficStats()
        self._started = False

    # ------------------------------------------------------------- topology

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._adjacency)

    def neighbors_of(self, node_id: int) -> list[int]:
        """Sorted neighbor list of ``node_id`` (live topology)."""
        return sorted(self._adjacency[node_id])

    def degree_of(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency.get(u, ())

    def add_node(self, node_id: int) -> None:
        """Add an isolated node to the topology (churn: join)."""
        if node_id in self._adjacency:
            raise ValueError(f"node {node_id} already exists")
        self._adjacency[int(node_id)] = set()

    def remove_node(self, node_id: int) -> None:
        """Remove a node and its incident edges (churn: leave)."""
        for neighbor in list(self._adjacency[node_id]):
            self.remove_edge(node_id, neighbor)
        del self._adjacency[node_id]
        self._nodes.pop(node_id, None)

    def add_edge(self, u: int, v: int) -> None:
        """Add an edge, notifying both endpoint actors."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if v in self._adjacency[u]:
            return
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        for node_id, other in ((u, v), (v, u)):
            actor = self._nodes.get(node_id)
            if actor is not None and self._started:
                actor.on_neighbor_added(other)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove an edge, notifying both endpoint actors."""
        if v not in self._adjacency.get(u, ()):
            return
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        for node_id, other in ((u, v), (v, u)):
            actor = self._nodes.get(node_id)
            if actor is not None and self._started:
                actor.on_neighbor_removed(other)

    def to_adjacency(self) -> CompressedAdjacency:
        """Snapshot the live topology as a :class:`CompressedAdjacency`."""
        nodes = sorted(self._adjacency)
        index = {label: i for i, label in enumerate(nodes)}
        edges = [
            (index[u], index[v])
            for u in nodes
            for v in self._adjacency[u]
            if u < v
        ]
        adjacency = CompressedAdjacency.from_edges(len(nodes), edges)
        return CompressedAdjacency(adjacency.indptr, adjacency.indices, nodes)

    # ---------------------------------------------------------------- actors

    def attach(self, node: SimNode) -> None:
        """Register an actor for an existing topology node."""
        if node.node_id not in self._adjacency:
            raise ValueError(f"node {node.node_id} is not in the topology")
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already has an actor")
        self._nodes[node.node_id] = node
        node.attach(self)
        if self._started:
            node.on_start()

    def attach_all(self, nodes: Iterable[SimNode]) -> None:
        for node in nodes:
            self.attach(node)

    def actor(self, node_id: int) -> SimNode:
        return self._nodes[node_id]

    @property
    def actors(self) -> dict[int, SimNode]:
        return dict(self._nodes)

    # -------------------------------------------------------------- messaging

    @property
    def now(self) -> float:
        return self.queue.now

    def send(self, src: int, dst: int, message: Any) -> None:
        """Deliver ``message`` from ``src`` to adjacent ``dst`` after latency."""
        if dst not in self._adjacency.get(src, ()):
            raise ValueError(f"no edge {src} -> {dst}; nodes may only message neighbors")
        self.stats.record(message)
        if self.drop_probability and self._rng.random() < self.drop_probability:
            self.stats.record_dropped(message)
            return

        def deliver() -> None:
            actor = self._nodes.get(dst)
            # The destination may have left the network while in flight.
            if actor is not None and self.has_edge(src, dst):
                actor.on_message(src, message)

        self.queue.schedule(self.latency.sample(self._rng), deliver)

    def schedule_timer(self, node_id: int, delay: float, tag: Hashable):
        """Schedule a timer callback on ``node_id``."""

        def fire() -> None:
            actor = self._nodes.get(node_id)
            if actor is not None:
                actor.on_timer(tag)

        return self.queue.schedule(delay, fire)

    # ------------------------------------------------------------------- run

    def start(self) -> None:
        """Invoke ``on_start`` on all attached actors (idempotent)."""
        if self._started:
            return
        self._started = True
        for node_id in sorted(self._nodes):
            self._nodes[node_id].on_start()

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Start (if needed) and dispatch events; returns events dispatched."""
        self.start()
        return self.queue.run(until=until, max_events=max_events)
