"""The walk engine: TTL-bounded query forwarding (paper §IV-C, Fig. 1).

This is the synchronous fast path used by the experiment sweeps.  It executes
*exactly* the per-node protocol of Fig. 1 — evaluate locally, decrement TTL,
pick unvisited neighbors by embedding score, fall back to all neighbors when
every neighbor was already involved (footnote 9) — while keeping all state in
plain dictionaries instead of scheduling messages.  An integration test pins
its walks to the event-driven :class:`repro.core.protocol.QueryRoutingNode`
execution step for step, so the fast path is an accelerator, not a variant.

Privacy note (paper §IV-C): visited state is the per-(query, node) memory of
which neighbors a node received from / forwarded to — the query message never
carries the visited set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

import numpy as np

from repro.core.forwarding import ForwardingPolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.topk import ScoredDocument, TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.utils import (
    check_non_negative_int,
    check_peer_ids,
    check_positive_int,
    ensure_rng,
)
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


class _FrozenEmptyStore(DocumentStore):
    """Immutable empty store shared across queries of the same ``dim``.

    Nodes without documents are scored against this sentinel; freezing the
    mutators guarantees the shared instance can never accumulate documents
    and leak them into unrelated queries or networks.
    """

    def add(self, doc_id: Hashable, embedding: np.ndarray) -> None:
        raise TypeError("the shared empty-store sentinel is immutable")

    def add_many(self, documents) -> None:
        raise TypeError("the shared empty-store sentinel is immutable")

    def remove(self, doc_id: Hashable) -> None:
        raise TypeError("the shared empty-store sentinel is immutable")


_EMPTY_STORE_SENTINELS: dict[int, _FrozenEmptyStore] = {}


def _empty_store(dim: int) -> DocumentStore:
    store = _EMPTY_STORE_SENTINELS.get(dim)
    if store is None:
        store = _EMPTY_STORE_SENTINELS[dim] = _FrozenEmptyStore(dim)
    return store


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

    Parameters
    ----------
    stores:
        Node id → local :class:`DocumentStore`; nodes without an entry hold
        no documents.
    policy:
        Next-hop selection (the paper's embedding-guided policy or a blind
        baseline).
    seed:
        Drives stochastic policies only; the default embedding-guided policy
        is deterministic.
    faults:
        A :class:`repro.runtime.faults.FaultInjector` to walk through.  With
        ``None`` (the default) the engine runs the exact fault-free protocol
        — bit-identical to the pre-resilience implementation, pinned by
        equivalence tests.  With an injector, forwarding gains failure
        detection: a message to a crashed peer times out and the walker
        reroutes to the next-best-scoring live neighbor; a dropped message
        is retried; each failed attempt burns ``resilience.retry_backoff``
        TTL, and after ``resilience.max_retries`` failures at one hop the
        walker dies.  When every walker dies early the query returns its
        best-so-far partial results with ``result.degraded`` set instead of
        raising.  The hop index serves as the injector's logical clock, and
        the walk draws its drops from the injector's next walk stream
        (:meth:`~repro.runtime.faults.FaultInjector.walk_streams`), so the
        lockstep :func:`repro.core.batch.run_queries` reproduces a loop of
        these calls bit for bit.
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
    config = config or WalkConfig()
    rng = ensure_rng(seed)
    query_embedding = np.asarray(query_embedding, dtype=np.float64)
    if not 0 <= start_node < adjacency.n_nodes:
        raise ValueError(f"start_node {start_node} out of range")
    effective_ttl = config.ttl
    if hop_budget is not None:
        check_positive_int(hop_budget, "hop_budget")
        effective_ttl = min(effective_ttl, hop_budget)
    capped = effective_ttl < config.ttl
    n_nodes = adjacency.n_nodes
    if faults is not None and faults.plan.n_nodes < n_nodes:
        raise ValueError(
            f"fault plan covers {faults.plan.n_nodes} nodes, "
            f"the overlay has {n_nodes}"
        )
    quarantined = (
        [] if quarantine is None
        else check_peer_ids(quarantine, n_nodes, "quarantine")
    )
    # Peers `next_hops` must not pick, as one boolean node mask: the
    # quarantine, set once per call, plus (in the resilient walk) the peers
    # one hop's sending loop found dead or already chose, set during that
    # loop and cleared after it.  Filtering is then one gather per hop.
    excluded: np.ndarray | None = None
    if quarantined or faults is not None:
        excluded = np.zeros(n_nodes, dtype=bool)
        excluded[quarantined] = True

    dim = query_embedding.shape[0]
    tracker = TopKTracker(config.k)
    result = SearchResult(
        query_id=query_id,
        start_node=int(start_node),
        tracker=tracker,
        visits=[],
    )
    # Per-(query, node) neighbor memory: who this node received from or
    # forwarded to.  Kept engine-side but indexed per node — identical
    # information to the distributed implementation.  Each entry is a boolean
    # mask over the node's (sorted) CSR neighbor row, so the membership test
    # is a single fancy-index instead of a per-hop set→list→``np.isin`` scan.
    memory: dict[int, np.ndarray] = {}

    def visit(node: int, hop: int, *, skip_store: bool = False) -> None:
        result.visits.append((hop, node))
        if skip_store:
            # Zombie peer: it routes, but its local evaluation is stale.
            return
        store = stores.get(node) or _empty_store(dim)
        for doc_id, score in store.top_k(query_embedding, config.k):
            tracker.offer(doc_id, score, node)
            result.discovered_at.setdefault(doc_id, hop)

    def next_hops(node: int, fanout: int) -> np.ndarray:
        neighbors = adjacency.neighbors(node)
        if neighbors.size == 0:
            return neighbors
        seen = memory.get(node)
        candidates = neighbors if seen is None else neighbors[~seen]
        if excluded is not None:
            candidates = candidates[~excluded[candidates]]
        if candidates.size == 0:
            # Footnote 9: don't waste the remaining TTL — consider everyone.
            candidates = neighbors
            if excluded is not None:
                candidates = candidates[~excluded[candidates]]
            if candidates.size == 0:
                return candidates
        return policy.select(query_embedding, candidates, fanout, rng)

    def remember(node: int, other: int) -> None:
        """Mark ``other`` in ``node``'s neighbor-row memory mask."""
        neighbors = adjacency.neighbors(node)
        position = int(np.searchsorted(neighbors, other))
        if position >= neighbors.shape[0] or neighbors[position] != other:
            return  # not adjacent: can never be filtered, nothing to record
        seen = memory.get(node)
        if seen is None:
            seen = memory[node] = np.zeros(neighbors.shape[0], dtype=bool)
        seen[position] = True

    # Walker queue processed in hop order: (node, hop, remaining ttl before
    # this node's decrement, fanout for this node's forwarding decision).
    # Redundant walkers are extra source fanout sharing the visited memory.
    source_fanout = config.fanout
    if resilience is not None:
        source_fanout = max(source_fanout, resilience.redundancy)
    frontier: deque[tuple[int, int, int, int]] = deque()
    frontier.append((int(start_node), 0, effective_ttl, source_fanout))

    if faults is None:
        # The fault-free fast path: exactly the pre-resilience protocol
        # (equivalence tests pin this loop bit-identical to the seed when
        # no hop budget or quarantine narrows it).
        while frontier:
            node, hop, ttl, fanout = frontier.popleft()
            visit(node, hop)
            ttl -= 1  # Fig. 1 step 3
            if ttl <= 0:
                # Fig. 1 step 4b: discard (response backtracks).  When the
                # horizon was the deadline budget rather than the real TTL,
                # the results are best-so-far partials, flagged as such.
                if capped:
                    result.degraded = True
                    result.deadline_hit = True
                continue
            for target in next_hops(node, fanout):
                target = int(target)
                remember(node, target)
                remember(target, node)
                result.messages += 1
                frontier.append((target, hop + 1, ttl, 1))
        return result

    # ------------------------------------------------- failure-resilient walk
    res = resilience or ResilienceConfig()
    streams = faults.walk_streams(1)
    stream = None if streams is None else streams[0]
    if not faults.alive(int(start_node), 0.0):
        # The querying node itself is down: nothing can even be evaluated.
        result.degraded = True
        result.walkers_lost = source_fanout
        return result

    while frontier:
        node, hop, ttl, fanout = frontier.popleft()
        zombie = faults.is_zombie(node)
        if zombie:
            result.zombie_visits += 1
        visit(node, hop, skip_store=zombie)
        ttl -= 1  # Fig. 1 step 3
        if ttl <= 0:
            if capped:
                result.degraded = True
                result.deadline_hit = True
            continue
        # Forward `fanout` walkers one attempt at a time so a failure can
        # reroute to the next-best-scoring *live* neighbor.  Quarantined
        # peers are never tried, so a peer a circuit breaker already
        # condemned costs zero attempts.  `unreachable` lists the peers this
        # node found dead (or already chose) at this hop; they stay set in
        # `excluded` until the loop ends.  Failed attempts burn TTL
        # (timeout + backoff) and count against the per-hop retry budget.
        sent = 0
        failures = 0
        unreachable: list[int] = []
        died_of_faults = False
        while sent < fanout and ttl > 0:
            targets = next_hops(node, 1)
            if targets.size == 0:
                died_of_faults = bool(quarantined or unreachable)
                break
            target = int(targets[0])
            result.messages += 1
            if not faults.alive(target, float(hop + 1)):
                # No ack before the timeout: mark dead, reroute.
                failures += 1
                result.rerouted += 1
                faults.note_crash_detection()
                excluded[target] = True
                unreachable.append(target)
                result.failed_peers[target] = (
                    result.failed_peers.get(target, 0) + 1
                )
            elif faults.walk_drops(stream):
                # Message lost in flight: retry (same peer stays eligible).
                failures += 1
                result.retries += 1
                result.failed_peers[target] = (
                    result.failed_peers.get(target, 0) + 1
                )
            else:
                remember(node, target)
                remember(target, node)
                frontier.append((target, hop + 1, ttl, 1))
                excluded[target] = True  # one walker per distinct peer
                unreachable.append(target)
                sent += 1
                continue
            if failures > res.max_retries:
                died_of_faults = True
                break
            ttl -= res.retry_backoff
        excluded[unreachable] = False
        if sent < fanout and (died_of_faults or (ttl <= 0 and failures > 0)):
            result.walkers_lost += fanout - sent
            result.degraded = True

    return result
