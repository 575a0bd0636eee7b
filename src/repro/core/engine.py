"""Walk types and the one-walk query call (paper §IV-C, Fig. 1).

:class:`WalkConfig`, :class:`ResilienceConfig` and :class:`SearchResult` are
the types of the walk engine, :func:`repro.core.batch.run_queries`.  It runs
the per-node protocol of Fig. 1 — evaluate locally, decrement TTL, pick
unvisited neighbors by embedding score, fall back to all neighbors when every
neighbor was already involved (footnote 9) — for a batch of walks in
lockstep.  :func:`run_query` is its one-walk call.  A walk costs more alone
than inside a batch, so drivers with many walks call ``run_queries``.

Two oracles in ``tests/`` pin the walks: the equivalence tests compare them
with a readable per-walk loop (``tests/scalar_reference.py``), faults
included, and the integration tests compare fault-free walks, one at a time
and in a batch, with the message-level protocol of Fig. 1 run as actors on
the event-driven network (``tests/protocol_reference.py``).

Privacy note (paper §IV-C): visited state is the per-(query, node) memory of
which neighbors a node received from / forwarded to — the query message never
carries the visited set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

import numpy as np

from repro.core.forwarding import ForwardingPolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.topk import ScoredDocument, TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.utils import check_non_negative_int, check_positive_int
from repro.utils.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.faults import FaultInjector


@dataclass(frozen=True)
class WalkConfig:
    """Query execution parameters.

    Attributes
    ----------
    ttl:
        Time-to-live: the query message is forwarded while its decremented
        TTL stays positive, so at most ``ttl`` nodes evaluate it (the source
        at hop 0 through hop ``ttl − 1``).  The paper uses 50.
    fanout:
        Number of next hops selected at the source; 1 reproduces the paper's
        single biased random walk, larger values run parallel walks.
    k:
        Size of the query's running top-k result tracker (paper evaluates
        top-1).
    """

    ttl: int = 50
    fanout: int = 1
    k: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.ttl, "ttl")
        check_positive_int(self.fanout, "fanout")
        check_positive_int(self.k, "k")


@dataclass(frozen=True)
class ResilienceConfig:
    """Failure-handling knobs of the resilient walk (used with ``faults``).

    Attributes
    ----------
    max_retries:
        Per-hop budget of *failed* forwarding attempts (detected-dead
        reroutes plus dropped-message retries) before the walker gives up.
    retry_backoff:
        TTL units a walker burns per failed attempt — the synchronous
        engine's model of a detection timeout plus backoff wait.  Retry
        overhead therefore shows up in the walk budget, where the
        fault-tolerance benchmark measures it.
    redundancy:
        Number of walkers launched at the query source (k-redundant
        walking).  Walkers share the per-(query, node) visited memory, so
        redundancy widens coverage instead of duplicating it, and their
        results merge in the query's single top-k tracker.
    """

    max_retries: int = 2
    retry_backoff: int = 1
    redundancy: int = 1

    def __post_init__(self) -> None:
        # Validated as *integers* at construction: a negative or fractional
        # count would otherwise only surface deep in the walk loop (e.g. as
        # a float fanout corrupting the frontier) long after the config was
        # built.
        check_non_negative_int(self.max_retries, "max_retries")
        check_non_negative_int(self.retry_backoff, "retry_backoff")
        check_positive_int(self.redundancy, "redundancy")


@dataclass
class SearchResult:
    """Outcome of one query execution."""

    query_id: Hashable
    start_node: int
    tracker: TopKTracker
    visits: list[tuple[int, int]]  # (hop index, node id) in processing order
    discovered_at: dict[Hashable, int] = field(default_factory=dict)
    messages: int = 0
    #: Fault-injection outcome (all zero / False on a fault-free run):
    #: ``degraded`` means at least one walker died of failures (or the
    #: source itself was down) and the results are best-so-far partials.
    degraded: bool = False
    retries: int = 0  # dropped-message resends
    rerouted: int = 0  # detected-dead-peer reroutes
    walkers_lost: int = 0  # walkers that died with TTL remaining
    zombie_visits: int = 0  # visits whose local evaluation was stale/useless
    #: Deadline outcome: True when a ``hop_budget`` cap cut the walk short of
    #: its configured TTL (the serving layer's mid-walk timeout).  Implies
    #: ``degraded`` — the results are best-so-far partials.
    deadline_hit: bool = False
    #: Per-peer failure observations from the resilient walk: peer id →
    #: failed forwarding attempts charged to it (detected-dead reroutes plus
    #: dropped-message retries).  Circuit breakers aggregate these across
    #: queries to quarantine flapping peers.
    failed_peers: dict[int, int] = field(default_factory=dict)

    @property
    def results(self) -> list[ScoredDocument]:
        """Final top-k documents, best first."""
        return self.tracker.items()

    @property
    def best(self) -> ScoredDocument | None:
        """The single best document found (None when nothing was found)."""
        return self.tracker.best()

    @property
    def path(self) -> list[int]:
        """Visited node ids in processing order (source first)."""
        return [node for _, node in self.visits]

    @property
    def unique_nodes_visited(self) -> int:
        return len({node for _, node in self.visits})

    @property
    def hops_used(self) -> int:
        """Largest hop index reached by any walker."""
        return max((hop for hop, _ in self.visits), default=0)

    def found(self, doc_id: Hashable, *, top: int | None = None) -> bool:
        """Did the query retrieve ``doc_id`` (within the best ``top`` results)?

        With ``top=None`` membership in the final tracker suffices; the
        paper's top-1 criterion is ``found(gold, top=1)``.
        """
        ids = self.tracker.doc_ids()
        if top is not None:
            ids = ids[:top]
        return doc_id in ids

    def hops_to(self, doc_id: Hashable) -> int | None:
        """Hop index at which ``doc_id`` was first encountered (None if never)."""
        return self.discovered_at.get(doc_id)


def run_query(
    adjacency: CompressedAdjacency,
    stores: Mapping[int, DocumentStore],
    policy: ForwardingPolicy,
    query_embedding: np.ndarray,
    start_node: int,
    config: WalkConfig | None = None,
    *,
    query_id: Hashable = None,
    seed: RngLike = None,
    faults: "FaultInjector | None" = None,
    resilience: ResilienceConfig | None = None,
    hop_budget: int | None = None,
    quarantine: "Iterable[int] | None" = None,
) -> SearchResult:
    """Execute one query from ``start_node`` per the Fig. 1 protocol.

    A :func:`repro.core.batch.run_queries` call with one walk.  For a
    deterministic policy the result equals that walk's entry in a batch,
    every field included.

    Parameters
    ----------
    stores:
        Node id → local :class:`DocumentStore`; nodes without an entry hold
        no documents.
    policy:
        Next-hop selection (the paper's embedding-guided policy or a blind
        baseline).
    query_id:
        Returned unchanged as ``result.query_id`` (a tuple id included).
    seed:
        Drives stochastic policies only; the default embedding-guided policy
        is deterministic.  The walk draws from the one generator
        ``run_queries`` spawns from ``seed``.  Anything but ``None``, an
        int, a ``SeedSequence`` or a ``Generator`` raises ``TypeError``.
    faults:
        A :class:`repro.runtime.faults.FaultInjector` to walk through.  With
        ``None`` (the default) the engine runs the exact fault-free
        protocol.  With an injector, forwarding gains failure detection: a
        message to a crashed peer times out and the walker reroutes to the
        next-best-scoring live neighbor; a dropped message is retried; each
        failed attempt burns ``resilience.retry_backoff``
        TTL, and after ``resilience.max_retries`` failures at one hop the
        walker dies.  When every walker dies early the query returns its
        best-so-far partial results with ``result.degraded`` set instead of
        raising.  The hop index serves as the injector's logical clock, and
        the walk draws its drops from the injector's next walk stream
        (:meth:`~repro.runtime.faults.FaultInjector.walk_streams`), so a
        loop of these calls equals one ``run_queries`` call over the same
        walks.
    resilience:
        Retry/backoff/redundancy knobs (defaults: 2 retries, backoff 1,
        redundancy 1).  ``redundancy=k`` launches ``max(fanout, k)`` source
        walkers sharing one visited memory — also honored without faults,
        where it is equivalent to ``fanout=k``.
    hop_budget:
        Per-query deadline budget in hops: the walk's horizon is capped at
        ``min(config.ttl, hop_budget)`` visits per walker chain.  When the
        cap actually bites (``hop_budget < config.ttl`` and a walker
        exhausts it), the query returns its best-so-far partial with
        ``result.degraded`` and ``result.deadline_hit`` set — a timed-out
        query is never a silent drop.  ``None`` (default) leaves the walk
        byte-for-byte identical to the unbudgeted one.  The serving layer
        derives this from ``(deadline − start) / hop_cost``.
    quarantine:
        Peers to route around *before* wasting any TTL on them (a circuit
        breaker's open set).  Quarantined peers are excluded from next-hop
        candidates outright — with faults as well, so no detection timeout
        is ever paid for a peer already known to flap.  ``None``/empty
        changes nothing; an id outside ``[0, n_nodes)`` raises
        ``ValueError``.
    """
    # Imported here: repro.core.batch imports this module's dataclasses.
    from repro.core.batch import run_queries

    if hop_budget is not None:
        check_positive_int(hop_budget, "hop_budget")
    # A one-element id list: a tuple id must not be read as per-walk ids.
    return run_queries(
        adjacency,
        stores,
        policy,
        query_embedding,
        [start_node],
        config,
        query_ids=[query_id],
        seed=seed,
        hop_budgets=None if hop_budget is None else [hop_budget],
        faults=faults,
        resilience=resilience,
        quarantine=quarantine,
    )[0]
