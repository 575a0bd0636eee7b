"""Unstructured-search baselines (paper §II-A).

Methods the paper positions its scheme against: TTL-bounded flooding
(Gnutella-style) and learned query routing.  Both return the same
:class:`repro.core.engine.SearchResult` so harnesses compare them directly.
The blind walks (uniform, parallel and the hub-seeking degree-biased walk)
are forwarding policies rather than modules of their own: pass
:class:`repro.core.forwarding.RandomWalkPolicy` or
:class:`repro.core.forwarding.DegreeBiasedPolicy` to the walk engine,
:func:`repro.core.batch.run_queries` (or its one-walk call
:func:`repro.core.engine.run_query`), with ``WalkConfig(fanout=n)`` for
``n`` parallel walkers.
"""

from repro.baselines.flooding import flood_query
from repro.baselines.query_routing import (
    LearnedRoutingPolicy,
    QueryRoutingTable,
    learned_routing_walk,
    train_routing_policy,
)

__all__ = [
    "flood_query",
    "LearnedRoutingPolicy",
    "QueryRoutingTable",
    "learned_routing_walk",
    "train_routing_policy",
]
