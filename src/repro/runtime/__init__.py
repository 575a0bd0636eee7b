"""Decentralized asynchronous runtime: a discrete-event P2P simulator.

The paper's diffusion is "iterative and asynchronous": node pairs exchange
embeddings at arbitrary (but not arbitrarily long) intervals and the estimates
converge to the closed-form PPR diffusion.  This package provides the
machinery to execute that protocol faithfully — an event queue, a simulated
network with per-link latencies, message loss and message accounting, node
actors, and the asynchronous diffusion overlay — plus churn operations
(join/leave/update).

It also holds the query walk's fault plans (:mod:`repro.runtime.faults`):
crashed peers, zombie peers and per-walk message drops, which feed the walk
engine on its hop clock rather than this event clock.
"""

from repro.runtime.events import EventQueue, ScheduledEvent
from repro.runtime.faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    choose_live_starts,
)
from repro.runtime.network import LatencyModel, SimNetwork, TrafficStats
from repro.runtime.node import SimNode
from repro.runtime.gossip import (
    AsyncDiffusionNode,
    AsyncPPRDiffusion,
    DegreeAnnounce,
    EmbeddingPush,
)
from repro.runtime.convergence import fixed_point_residual

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "CrashWindow",
    "FaultInjector",
    "FaultPlan",
    "choose_live_starts",
    "LatencyModel",
    "SimNetwork",
    "TrafficStats",
    "SimNode",
    "AsyncDiffusionNode",
    "AsyncPPRDiffusion",
    "DegreeAnnounce",
    "EmbeddingPush",
    "fixed_point_residual",
]
