"""The walk engine: B independent TTL-bounded walks in lockstep.

:func:`run_queries` executes the Fig. 1 protocol (paper §IV-C) for a whole
batch of queries at once, with structure-of-arrays state in place of a
per-walk Python loop:

* the frontier is a pair of flat arrays (query index, node) advanced one hop
  at a time — on a fault-free walk TTL and fanout are uniform across a hop,
  so they live as scalars, not arrays;
* neighbor candidates are gathered straight from the CSR arrays of
  :class:`~repro.graphs.adjacency.CompressedAdjacency` for every active
  walker in one shot;
* the per-(query, node) neighbor memory of paper §IV-C is a flat boolean
  matrix over (query, directed CSR edge) — membership tests and the
  symmetric "received from / forwarded to" marks become array indexing
  (via :attr:`~repro.graphs.adjacency.CompressedAdjacency.reverse_edge_positions`)
  instead of dict-of-set operations;
* next hops are chosen through :meth:`ForwardingPolicy.select_batch`, which
  the built-in policies implement with array-level per-segment top-k (and
  which falls back to scalar ``select`` calls for custom policies).  When
  every walk runs a :class:`PrecomputedScorePolicy` — the experiment hot
  path — selection short-circuits to one fused segment-argmax over a
  stacked score table (one dense row per distinct policy), no per-walk
  Python at all.

With a fault injector the same hop loop runs the resilient walk
(:class:`_FaultedWalks`): liveness and zombie status are node masks, each
walker carries its own TTL, and a hop's forwarding runs as attempt rounds
vectorised across walkers — reroutes around dead peers and retries of
dropped messages pick from one scoring of the hop's candidates
(:meth:`ForwardingPolicy.score_batch`).  Quarantine without faults only
filters candidates.  :func:`repro.core.engine.run_query` is this engine's
one-walk call.

Equivalence contract, pinned by ``tests/unit/test_batch_engine.py``,
``tests/unit/test_faults.py`` and a property test against the readable
per-walk loop kept as the oracle in ``tests/scalar_reference.py``: for
deterministic policies every :class:`SearchResult` field is bit-identical
to that loop's — with faults, quarantine, redundancy and hop budgets too,
where a batch takes the injector's next ``B`` walk drop streams in batch
order, so it equals the loop over the same walks, drops and crash
detections included.  Stochastic policies draw from per-walk generators
spawned from ``seed`` (one independent stream per walk), so each walk is
distributionally equivalent to a per-walk loop with its own seed.

Memory note: the visited-edge matrix is ``B × 2·n_edges`` booleans.  When a
batch would exceed :data:`VISITED_BUDGET_BYTES` (default 64 MB) it is split
into chunks transparently, so arbitrarily large batches run in bounded
memory; the experiment drivers use batches of at most a few dozen walks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.engine import ResilienceConfig, SearchResult, WalkConfig
from repro.core.forwarding import (
    ForwardingPolicy,
    PrecomputedScorePolicy,
    _segment_top_k,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.kernels import dispatch as kernels
from repro.retrieval.topk import TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.utils import check_peer_ids
from repro.utils.rng import RngLike, check_seed, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.runtime.faults import FaultInjector

__all__ = ["run_queries"]

#: Cap on the per-call visited-edge matrix (B × 2·n_edges booleans); batches
#: that would exceed it are split into independent chunks.
VISITED_BUDGET_BYTES = 64 * 1024 * 1024


def _within_query_ranks(queries: np.ndarray) -> np.ndarray:
    """Rank of each frontier entry among entries of the same query.

    The protocol serves same-hop walkers of one query in FIFO order, so a
    later walker sees the memory marks of an earlier one.  Ranks split a hop
    into sub-rounds that replay exactly that order (rank r of every query
    runs before rank r + 1).  Only needed past the source hop with
    fanout > 1; otherwise every query has a single walker per hop.
    """
    size = queries.shape[0]
    perm = np.argsort(queries, kind="stable")
    sorted_q = queries[perm]
    new_group = np.empty(size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_q[1:] != sorted_q[:-1]
    group_starts = np.flatnonzero(new_group)
    group_lens = np.diff(np.append(group_starts, size))
    ranks = np.empty(size, dtype=np.int64)
    ranks[perm] = np.arange(size) - np.repeat(group_starts, group_lens)
    return ranks


def _coerce_policies(
    policies: ForwardingPolicy | Sequence[ForwardingPolicy], batch: int
) -> list[ForwardingPolicy]:
    if isinstance(policies, ForwardingPolicy):
        return [policies] * batch
    policy_list = list(policies)
    if len(policy_list) != batch:
        raise ValueError(
            f"{len(policy_list)} policies for a batch of {batch} queries"
        )
    for policy in policy_list:
        if not isinstance(policy, ForwardingPolicy):
            raise TypeError(f"not a ForwardingPolicy: {policy!r}")
    return policy_list


def _coerce_query_ids(
    query_ids: Hashable | Sequence[Hashable] | None, batch: int
) -> list[Hashable]:
    """One query id per walk; lists/tuples/arrays are per-walk, else shared."""
    if isinstance(query_ids, (list, tuple, np.ndarray)):
        ids = list(query_ids)
        if len(ids) != batch:
            raise ValueError(f"{len(ids)} query ids for a batch of {batch} queries")
        return ids
    return [query_ids] * batch


class _ScoreStack:
    """Per-walk dense score rows; ``gather`` is one fancy index."""

    def __init__(self, stack: np.ndarray, rows: np.ndarray) -> None:
        self.stack = stack
        self.rows = rows

    def gather(self, queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Score of ``nodes[i]`` under walk ``queries[i]``'s policy."""
        return self.stack[self.rows[queries], nodes]


def _precomputed_stack(
    policy_list: list[ForwardingPolicy], n_nodes: int
) -> _ScoreStack | None:
    """Stack per-walk score vectors when every policy is score-table based.

    Returns a score stack whose ``gather(queries, nodes)`` yields walk
    ``queries[i]``'s score for node ``nodes[i]`` — or None when the batch
    mixes in other policy types.  Distinct policy instances share a row
    when they are the same object, so the Fig. 3 accuracy experiment's
    one-policy-per-alpha batch stacks to one row per alpha.
    """
    row_of: dict[int, int] = {}
    vectors: list[np.ndarray] = []
    rows = np.empty(len(policy_list), dtype=np.int64)
    for q, policy in enumerate(policy_list):
        if type(policy) is not PrecomputedScorePolicy:
            return None
        if policy.n_nodes != n_nodes:
            return None
        row = row_of.get(id(policy))
        if row is None:
            if not np.isfinite(policy.node_scores).all():
                # The fused selection uses -inf as its masking sentinel;
                # non-finite scores take the general select_batch path.
                return None
            row = row_of[id(policy)] = len(vectors)
            vectors.append(policy.node_scores)
        rows[q] = row
    return _ScoreStack(np.stack(vectors), rows)


def _policy_groups(
    policy_list: list[ForwardingPolicy], homogeneous: bool, r_q: np.ndarray
) -> list[tuple[ForwardingPolicy, np.ndarray | None]]:
    """Frontier entries grouped by their walk's policy.

    Each group is ``(policy, entry indices)``; ``None`` stands for every
    entry, the one group of a homogeneous batch.
    """
    if homogeneous:
        return [(policy_list[0], None)]
    by_policy: dict[int, list[int]] = {}
    for j, q in enumerate(r_q.tolist()):
        by_policy.setdefault(id(policy_list[q]), []).append(j)
    return [
        (policy_list[r_q[js[0]]], np.asarray(js, dtype=np.int64))
        for js in by_policy.values()
    ]


def _group_segments(
    js: np.ndarray, entries: int, lens: np.ndarray, segments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and segment offsets of entries ``js``'s candidates."""
    member = np.zeros(entries, dtype=bool)
    member[js] = True
    return (
        np.flatnonzero(member[segments]),
        np.concatenate(([0], np.cumsum(lens[js]))),
    )


def _select(
    policy_list: list[ForwardingPolicy],
    homogeneous: bool,
    r_q: np.ndarray,
    embeddings: np.ndarray,
    rngs: list[np.random.Generator],
    cand: np.ndarray,
    lens: np.ndarray,
    segments: np.ndarray,
    fanout: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Choose up to ``fanout`` candidates per frontier entry via the policies.

    ``cand`` concatenates one candidate segment per entry (``lens[j]``
    candidates for entry ``j``; ``segments`` maps each to its entry).
    Returns the chosen flat indices into ``cand`` and the entry that chose
    each, in entry order, then each entry's selection order.
    """
    entries = r_q.shape[0]
    offsets = np.concatenate(([0], np.cumsum(lens)))
    picked_parts: list[np.ndarray] = []
    entry_parts: list[np.ndarray] = []
    groups = _policy_groups(policy_list, homogeneous, r_q)
    for policy, js in groups:
        if js is None:
            js = np.arange(entries, dtype=np.int64)
            sub_index = None
            sub_cand, sub_offsets = cand, offsets
        else:
            sub_index, sub_offsets = _group_segments(js, entries, lens, segments)
            sub_cand = cand[sub_index]
        group_q = r_q[js]
        chosen, chosen_offsets = policy.select_batch(
            embeddings[group_q],
            sub_cand,
            sub_offsets,
            np.full(js.shape[0], fanout, dtype=np.int64),
            [rngs[q] for q in group_q.tolist()],
        )
        picked_parts.append(chosen if sub_index is None else sub_index[chosen])
        entry_parts.append(np.repeat(js, np.diff(chosen_offsets)))
    if len(groups) == 1:
        return picked_parts[0], entry_parts[0]
    # Entry order, then each entry's selection order.
    entry = np.concatenate(entry_parts)
    order = np.argsort(entry, kind="stable")
    return np.concatenate(picked_parts)[order], entry[order]


def _hop_scores(
    stacked: _ScoreStack | None,
    policy_list: list[ForwardingPolicy],
    homogeneous: bool,
    r_q: np.ndarray,
    embeddings: np.ndarray,
    flat_q: np.ndarray,
    cand: np.ndarray,
    lens: np.ndarray,
    segments: np.ndarray,
) -> np.ndarray | None:
    """One scoring of a sub-round's candidates, or None to select per attempt.

    None when a policy's choice is not a score ranking
    (:meth:`ForwardingPolicy.score_batch`) or a score is non-finite: the
    masked argmax uses -inf as its sentinel.
    """
    if stacked is not None:
        return stacked.gather(flat_q, cand)
    entries = r_q.shape[0]
    scores: np.ndarray | None = None
    for policy, js in _policy_groups(policy_list, homogeneous, r_q):
        if js is None:
            offsets = np.concatenate(([0], np.cumsum(lens)))
            scores = policy.score_batch(embeddings[r_q], cand, offsets)
            if scores is None:
                return None
            continue
        sub_index, sub_offsets = _group_segments(js, entries, lens, segments)
        part = policy.score_batch(embeddings[r_q[js]], cand[sub_index], sub_offsets)
        if part is None:
            return None
        if scores is None:
            scores = np.empty(cand.shape[0], dtype=np.float64)
        scores[sub_index] = part
    return scores if np.isfinite(scores).all() else None


class _FaultedWalks:
    """A batch's resilient walk: the Fig. 1 protocol under faults.

    Holds each walk's fault accounting and runs a sub-round's forwarding as
    attempt rounds, vectorised across walkers.  In each round every walker
    that still owes sends tries one candidate: its unseen, not-blocked
    candidates first, else every not-blocked one (footnote 9), where
    blocked means quarantined, or found dead or already chosen at this
    hop.  A send to a peer down at the hop's time fails and blocks it (a
    reroute); a send to a live peer draws the walk's drop lottery, and a
    drop retries the same peer.  Each failure burns ``retry_backoff`` TTL,
    and failures past ``max_retries`` kill the walker.  A sub-round holds at
    most one walker per query, so each walk's drop draws keep the
    protocol's FIFO order.
    """

    def __init__(
        self,
        faults: "FaultInjector",
        resilience: ResilienceConfig,
        results: list[SearchResult],
        ttl: int,
        budgets: np.ndarray | None,
        quarantine: np.ndarray | None,
    ) -> None:
        batch = len(results)
        self.faults = faults
        self.resilience = resilience
        self.results = results
        self.quarantine = quarantine
        self.streams = faults.walk_streams(batch)
        horizon = np.full(batch, ttl, dtype=np.int64)
        if budgets is not None:
            horizon = np.minimum(horizon, budgets)
        self.horizon = horizon
        self.capped = horizon < ttl
        self.degraded = np.zeros(batch, dtype=bool)
        self.deadline_hit = np.zeros(batch, dtype=bool)
        self.walkers_lost = np.zeros(batch, dtype=np.int64)
        # Walk index of every attempt (a message each), reroute and retry.
        self.attempts: list[np.ndarray] = []
        self.reroutes: list[np.ndarray] = []
        self.retries: list[np.ndarray] = []

    def launch(
        self, start: np.ndarray, fanout: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first frontier: walks whose source is up, with their TTLs."""
        walks = np.arange(start.shape[0], dtype=np.int64)
        down = self.faults.down_mask(0.0)[start]
        if down.any():
            # The querying node itself is down: nothing can be evaluated.
            self.degraded[down] = True
            self.walkers_lost[down] = fanout
            walks = walks[~down]
        return walks, start[walks], self.horizon[walks]

    def spend_ttl(
        self, q: np.ndarray, node: np.ndarray, ttl: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fig. 1 step 3 per walker: decrement, retire the spent walkers.

        A spent walker of a budget-capped walk flags its results as
        best-so-far partials.
        """
        ttl = ttl - 1
        spent = ttl <= 0
        if spent.any():
            hit = q[spent & self.capped[q]]
            self.degraded[hit] = True
            self.deadline_hit[hit] = True
            keep = ~spent
            q, node, ttl = q[keep], node[keep], ttl[keep]
        return q, node, ttl

    def strand(self, q: np.ndarray, fanout: int) -> None:
        """Walkers on isolated nodes: lost to faults when peers are quarantined."""
        if self.quarantine is not None:
            np.add.at(self.walkers_lost, q, fanout)
            self.degraded[q] = True

    def forward(
        self,
        hop: int,
        fanout: int,
        r_q: np.ndarray,
        ttl: np.ndarray,
        cand: np.ndarray,
        segments: np.ndarray,
        seg_starts: np.ndarray,
        unseen: np.ndarray,
        scores: np.ndarray | None,
        select: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        iota: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run one sub-round's attempt rounds.

        ``scores`` is the sub-round's one scoring (each attempt takes the
        masked segment argmax); without it ``select(keep)`` asks the
        policies once per round among the ``keep`` candidates.  Returns the
        delivered children as (entry, flat candidate index, TTL) arrays,
        each walker's in send order.
        """
        faults, res = self.faults, self.resilience
        entries = r_q.shape[0]
        down = faults.down_mask(float(hop + 1))
        blocked = (
            np.zeros(cand.shape[0], dtype=bool)
            if self.quarantine is None
            else self.quarantine[cand]
        )
        ttl = ttl.copy()
        sent = np.zeros(entries, dtype=np.int64)
        failures = np.zeros(entries, dtype=np.int64)
        found_dead = np.zeros(entries, dtype=bool)
        died = np.zeros(entries, dtype=bool)
        live = np.ones(entries, dtype=bool)
        n_live = entries
        children: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while True:
            open_ = ~blocked
            pool = unseen & open_
            if scores is not None:
                masked = np.where(open_, scores, -np.inf)
                best = kernels.masked_segment_argmax(
                    masked, pool, seg_starts, segments, iota
                )
                go = np.flatnonzero(live & (masked[best] > -np.inf))
                pick = best[go]
            else:
                any_pool = np.add.reduceat(pool, seg_starts) > 0
                keep = (pool | (~any_pool[segments] & open_)) & live[segments]
                pick, go = select(keep)
            if go.size < n_live:
                # No candidate left: died of faults when a peer was found
                # dead or quarantined, not when the walker just ran out of
                # neighbours to send to.
                stuck = live.copy()
                stuck[go] = False
                died[stuck] = found_dead[stuck] | (self.quarantine is not None)
                if go.size == 0:
                    break
            q = r_q[go]
            target = cand[pick]
            self.attempts.append(q)
            dead = down[target]
            failed = dead.copy()
            if self.streams is not None:
                walks = q.tolist()
                for i in np.flatnonzero(~dead).tolist():
                    failed[i] = faults.walk_drops(self.streams[walks[i]])
            senders, sent_to = go, pick
            if failed.any():
                if dead.any():
                    # No ack before the timeout: block the peer, reroute.
                    self.reroutes.append(q[dead])
                    faults.crash_detections += int(dead.sum())
                    blocked[pick[dead]] = True
                    found_dead[go[dead]] = True
                dropped = failed & ~dead
                if dropped.any():
                    self.retries.append(q[dropped])
                for walk, peer in zip(q[failed].tolist(), target[failed].tolist()):
                    peers = self.results[walk].failed_peers
                    peers[peer] = peers.get(peer, 0) + 1
                failing = go[failed]
                failures[failing] += 1
                over = failures[failing] > res.max_retries
                died[failing[over]] = True
                ttl[failing[~over]] -= res.retry_backoff
                delivered = ~failed
                senders, sent_to = go[delivered], pick[delivered]
            if senders.size:
                blocked[sent_to] = True  # one walker per distinct peer
                sent[senders] += 1
                children.append((senders, sent_to, ttl[senders]))
            live = np.zeros(entries, dtype=bool)
            live[go] = True
            live &= ~died & (sent < fanout) & (ttl > 0)
            n_live = np.count_nonzero(live)
            if not n_live:
                break
        lost = (sent < fanout) & (died | ((ttl <= 0) & (failures > 0)))
        if lost.any():
            self.walkers_lost[r_q[lost]] += fanout - sent[lost]
            self.degraded[r_q[lost]] = True
        if not children:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if len(children) == 1:
            return children[0]
        # Round order keeps each walker's children in send order; walkers of
        # a sub-round belong to distinct queries, so nothing else is ordered.
        entry, flat, child_ttl = (np.concatenate(part) for part in zip(*children))
        return entry, flat, child_ttl

    def finish(self, visited_q: np.ndarray, visited_node: np.ndarray) -> None:
        """Write every walk's fault accounting into its result."""
        batch = len(self.results)

        def per_walk(log: list[np.ndarray]) -> list[int]:
            if not log:
                return [0] * batch
            return np.bincount(np.concatenate(log), minlength=batch).tolist()

        zombie = self.faults.zombie_mask[visited_node]
        zombie_visits = np.bincount(visited_q[zombie], minlength=batch).tolist()
        retries = per_walk(self.retries)
        rerouted = per_walk(self.reroutes)
        lost = self.walkers_lost.tolist()
        degraded = self.degraded.tolist()
        deadline_hit = self.deadline_hit.tolist()
        for q, result in enumerate(self.results):
            result.retries = retries[q]
            result.rerouted = rerouted[q]
            result.walkers_lost = lost[q]
            result.zombie_visits = zombie_visits[q]
            result.degraded = degraded[q]
            result.deadline_hit = deadline_hit[q]


def run_queries(
    adjacency: CompressedAdjacency,
    stores: Mapping[int, DocumentStore],
    policies: ForwardingPolicy | Sequence[ForwardingPolicy],
    query_embeddings: np.ndarray,
    start_nodes: Sequence[int] | np.ndarray,
    config: WalkConfig | None = None,
    *,
    query_ids: Hashable | Sequence[Hashable] | None = None,
    seed: RngLike = None,
    hop_budgets: Sequence[int] | np.ndarray | None = None,
    faults: "FaultInjector | None" = None,
    resilience: ResilienceConfig | None = None,
    quarantine: Iterable[int] | None = None,
) -> list[SearchResult]:
    """Execute one Fig. 1 walk per start node, all in lockstep.

    Parameters
    ----------
    policies:
        A single :class:`ForwardingPolicy` shared by every walk, or one per
        walk (e.g. one :class:`PrecomputedScorePolicy` per teleport alpha in
        the accuracy experiment).  Walks are grouped by policy each hop, so
        mixed batches still select with one array call per policy.
    query_embeddings:
        ``(dim,)`` for a shared query or ``(B, dim)`` for per-walk queries.
    query_ids:
        ``None``, a single shared id, or a list/tuple/array of ``B`` ids.
    seed:
        Spawned into ``B`` independent per-walk generators (stochastic
        policies only; deterministic policies never draw from them).
        Anything but ``None``, an int, a ``SeedSequence`` or a
        ``Generator`` raises ``TypeError``, on every path.
    hop_budgets:
        Per-query deadline budgets in hops (``B`` positive ints, or ``None``
        for none): walk ``q``'s horizon is capped at
        ``min(config.ttl, hop_budgets[q])`` visits.  A walk whose cap
        actually bites returns its best-so-far partial with
        ``result.degraded`` and ``result.deadline_hit`` set — the
        ``hop_budget`` of :func:`repro.core.engine.run_query`, per query.
        ``None`` leaves the batch bit-identical to the unbudgeted engine.
    faults, resilience, quarantine:
        The resilient walk, as documented for
        :func:`repro.core.engine.run_query`, for every walk of the batch.
        With ``faults`` the walks take the injector's next ``B`` walk drop
        streams in batch order, so the call equals a loop of ``run_query``
        over the same walks through the same injector, its ``dropped`` and
        ``crash_detections`` counts included.  All three ``None`` (the
        default) run the fault-free walk.

    Returns
    -------
    list[SearchResult]
        One result per start node, index-aligned with ``start_nodes``.
    """
    config = config or WalkConfig()
    # Checked up front: the stacked score path never spawns from the seed.
    check_seed(seed)
    start = np.asarray(start_nodes, dtype=np.int64)
    if start.ndim != 1:
        raise ValueError(f"start_nodes must be 1-D, got shape {start.shape}")
    batch = start.shape[0]
    if batch == 0:
        return []
    n_nodes = adjacency.n_nodes
    if np.any((start < 0) | (start >= n_nodes)):
        bad = start[(start < 0) | (start >= n_nodes)][0]
        raise ValueError(f"start_node {int(bad)} out of range")

    embeddings = np.asarray(query_embeddings, dtype=np.float64)
    shared_embedding = embeddings.ndim == 1
    if shared_embedding:
        embeddings = np.broadcast_to(embeddings, (batch, embeddings.shape[0]))
    elif embeddings.ndim != 2 or embeddings.shape[0] != batch:
        raise ValueError(
            f"query_embeddings must be (dim,) or ({batch}, dim), "
            f"got shape {embeddings.shape}"
        )

    policy_list = _coerce_policies(policies, batch)
    ids = _coerce_query_ids(query_ids, batch)
    if faults is not None and faults.plan.n_nodes < n_nodes:
        # Its node masks would not cover every peer a walk can reach.
        raise ValueError(
            f"fault plan covers {faults.plan.n_nodes} nodes, "
            f"the overlay has {n_nodes}"
        )
    quarantined = (
        [] if quarantine is None
        else check_peer_ids(quarantine, n_nodes, "quarantine")
    )

    budgets: np.ndarray | None = None
    if hop_budgets is not None:
        budgets = np.asarray(hop_budgets)
        if budgets.dtype.kind not in "iu":
            raise TypeError(
                f"hop_budgets must be integers, got dtype {budgets.dtype}"
            )
        budgets = budgets.astype(np.int64)
        if budgets.shape != (batch,):
            raise ValueError(
                f"{budgets.shape[0] if budgets.ndim == 1 else budgets.shape} "
                f"hop budgets for a batch of {batch} queries"
            )
        if np.any(budgets < 1):
            raise ValueError(
                "hop_budgets must be >= 1 (a query with no budget left "
                "should be shed before reaching the engine)"
            )

    # Bound the visited-edge matrix: oversized batches split into chunks
    # (per-walk results are independent; each chunk gets an independent
    # child seed, preserving the per-walk-stream contract, and takes its
    # walks' drop streams in batch order).
    edge_count = adjacency.indices.shape[0]
    if batch > 1 and batch * edge_count > VISITED_BUDGET_BYTES:
        chunk = max(1, VISITED_BUDGET_BYTES // max(edge_count, 1))
        bounds = range(0, batch, chunk)
        chunk_rngs = spawn_rngs(seed, len(bounds))
        results = []
        for chunk_rng, lo in zip(chunk_rngs, bounds):
            hi = min(lo + chunk, batch)
            results.extend(
                run_queries(
                    adjacency,
                    stores,
                    policy_list[lo:hi],
                    embeddings[lo:hi],
                    start[lo:hi],
                    config,
                    query_ids=ids[lo:hi],
                    seed=chunk_rng,
                    hop_budgets=None if budgets is None else budgets[lo:hi],
                    faults=faults,
                    resilience=resilience,
                    quarantine=quarantined or None,
                )
            )
        return results

    homogeneous = all(policy is policy_list[0] for policy in policy_list)
    stacked = _precomputed_stack(policy_list, n_nodes)
    # Per-walk generators, spawned only if a policy can actually draw from
    # them (the stacked fast path is deterministic end to end).
    rngs: list[np.random.Generator] | None = (
        None if stacked is not None else spawn_rngs(seed, batch)
    )

    results = [
        SearchResult(
            query_id=ids[q],
            start_node=int(start[q]),
            tracker=TopKTracker(config.k),
            visits=[],
        )
        for q in range(batch)
    ]

    indptr, indices = adjacency.indptr, adjacency.indices
    degrees = adjacency.degrees
    reverse = adjacency.reverse_edge_positions
    # Per-(query, directed edge) neighbor memory (paper §IV-C).
    seen = np.zeros((batch, indices.shape[0]), dtype=bool)

    # Redundant walkers are extra source fanout sharing the visited memory.
    source_fanout = config.fanout
    if resilience is not None:
        source_fanout = max(source_fanout, resilience.redundancy)
    blocked_nodes: np.ndarray | None = None
    if quarantined:
        blocked_nodes = np.zeros(n_nodes, dtype=bool)
        blocked_nodes[quarantined] = True

    # Frontier (structure of arrays).  On a fault-free walk all walkers of
    # a hop share the same remaining TTL (children inherit the parent's
    # decremented TTL) and the same fanout (the source fanout at hop 0, 1
    # afterwards), so neither needs a per-walker array.  Under faults a
    # failed attempt burns TTL, so each walker carries its own (`cur_ttl`).
    cur_q = np.arange(batch, dtype=np.int64)
    cur_node = start.copy()
    cur_ttl: np.ndarray | None = None
    faulted: _FaultedWalks | None = None
    if faults is not None:
        faulted = _FaultedWalks(
            faults,
            resilience or ResilienceConfig(),
            results,
            config.ttl,
            budgets,
            blocked_nodes,
        )
        cur_q, cur_node, cur_ttl = faulted.launch(start, source_fanout)
    hop = 0
    # Index scratch reused across hops (sliced views, never mutated), so the
    # hot loop does not re-allocate an arange per hop.
    iota = np.arange(max(batch, int(degrees.max(initial=0)) * batch), dtype=np.int64)
    isolated_nodes = bool(n_nodes) and int(degrees.min()) == 0

    visit_queries: list[np.ndarray] = []
    visit_nodes: list[np.ndarray] = []
    hop_sizes: list[int] = []
    child_q_log: list[np.ndarray] = []

    while cur_q.size:
        visit_queries.append(cur_q)
        visit_nodes.append(cur_node)
        hop_sizes.append(cur_q.shape[0])

        if faulted is not None:
            cur_q, cur_node, cur_ttl = faulted.spend_ttl(cur_q, cur_node, cur_ttl)
            if cur_q.size == 0:
                break
        elif config.ttl - hop - 1 <= 0:  # Fig. 1 steps 3/4b
            break
        elif budgets is not None:
            # Per-query deadline horizon: retire walkers whose budget is
            # spent.  The global TTL check above already passed, so every
            # entry retired here was cut by its budget, not the TTL — its
            # query's results are best-so-far partials.
            alive = budgets[cur_q] - hop - 1 > 0
            if not alive.all():
                for q in np.unique(cur_q[~alive]).tolist():
                    results[q].degraded = True
                    results[q].deadline_hit = True
                cur_q = cur_q[alive]
                cur_node = cur_node[alive]
                if cur_q.size == 0:
                    break
        fanout_now = source_fanout if hop == 0 else 1
        cur_deg = degrees[cur_node]
        act_ttl = cur_ttl
        if not isolated_nodes:
            act_q, act_node, act_deg = cur_q, cur_node, cur_deg
        else:
            active = cur_deg > 0
            if active.all():
                act_q, act_node, act_deg = cur_q, cur_node, cur_deg
            else:
                act_q, act_node, act_deg = (
                    cur_q[active],
                    cur_node[active],
                    cur_deg[active],
                )
                if faulted is not None:
                    faulted.strand(cur_q[~active], fanout_now)
                    act_ttl = cur_ttl[active]
                if act_q.size == 0:
                    break

        # Sub-rounds replay the protocol's FIFO order when one query can
        # field several same-hop walkers (fanout > 1 past the source hop).
        if source_fanout > 1 and hop >= 1:
            ranks = _within_query_ranks(act_q)
            n_rounds = int(ranks.max()) + 1
        else:
            ranks = None
            n_rounds = 1

        round_child_q: list[np.ndarray] = []
        round_child_node: list[np.ndarray] = []
        round_child_ttl: list[np.ndarray] = []
        for sub_round in range(n_rounds):
            if ranks is None:
                r_q, r_node, lens, r_ttl = act_q, act_node, act_deg, act_ttl
            else:
                in_round = ranks == sub_round
                r_q, r_node = act_q[in_round], act_node[in_round]
                lens = act_deg[in_round]
                r_ttl = None if act_ttl is None else act_ttl[in_round]
            entries = r_q.shape[0]

            # CSR gather of every walker's neighbor row in one shot.
            seg_ends = lens.cumsum()
            seg_starts = seg_ends - lens
            total = int(seg_ends[-1])
            flat_pos = (indptr[r_node] - seg_starts).repeat(lens) + iota[:total]
            flat_q = r_q.repeat(lens)
            segments = iota[:entries].repeat(lens)

            # Memory filter (paper §IV-C): which candidate edges are still
            # unvisited for their walk.
            unseen = ~seen[flat_q, flat_pos]

            if faulted is not None:
                # Resilient forwarding: attempt rounds over one scoring.
                flat_cand = indices[flat_pos]
                scores = _hop_scores(
                    stacked, policy_list, homogeneous, r_q, embeddings,
                    flat_q, flat_cand, lens, segments,
                )

                def select(keep, r_q=r_q, flat_cand=flat_cand, segments=segments):
                    kept = np.flatnonzero(keep)
                    kept_segments = segments[kept]
                    picked, entry = _select(
                        policy_list, homogeneous, r_q, embeddings, rngs,
                        flat_cand[kept],
                        np.bincount(kept_segments, minlength=r_q.shape[0]),
                        kept_segments,
                        1,
                    )
                    return kept[picked], entry

                child_entry, child_flat, child_ttl = faulted.forward(
                    hop, fanout_now, r_q, r_ttl, flat_cand, segments,
                    seg_starts, unseen, scores, select, iota,
                )
                child_q = r_q[child_entry]
                child_pos = flat_pos[child_flat]
                child_node = flat_cand[child_flat]
                round_child_ttl.append(child_ttl)
            elif stacked is not None and fanout_now == 1 and blocked_nodes is None:
                # Fused fast path: every walk scores candidates from one
                # stacked table, and the memory filter plus footnote-9
                # fallback fold into a -inf mask, so a whole hop selects via
                # one segment argmax (first-position tie-break — exactly
                # top_k_indices(scores, 1) per segment).
                flat_cand = indices[flat_pos]
                scores = stacked.gather(flat_q, flat_cand)
                chosen = kernels.masked_segment_argmax(
                    scores, unseen, seg_starts, segments, iota
                )
                child_q = r_q
                child_pos = flat_pos[chosen]
                child_node = flat_cand[chosen]
            else:
                # General path: compress to the per-segment candidate sets
                # (footnote-9 fallback included) and dispatch to the
                # policies.  Quarantined peers are filtered from both pools.
                allowed = None
                if blocked_nodes is not None:
                    allowed = ~blocked_nodes[indices[flat_pos]]
                    unseen &= allowed
                if unseen.all():
                    kept_pos, kept_q, kept_segments = flat_pos, flat_q, segments
                    kept_lens = lens
                else:
                    any_unseen = (
                        np.bincount(segments, weights=unseen, minlength=entries) > 0
                    )
                    keep = unseen | ~any_unseen[segments]
                    if allowed is not None:
                        keep &= allowed
                    kept_pos = flat_pos[keep]
                    kept_q = flat_q[keep]
                    kept_segments = segments[keep]
                    kept_lens = np.bincount(kept_segments, minlength=entries)
                kept_cand = indices[kept_pos]

                if stacked is not None:
                    scores = stacked.gather(kept_q, kept_cand)
                    kept_offsets = np.concatenate(([0], np.cumsum(kept_lens)))
                    chosen, chosen_offsets = _segment_top_k(
                        scores,
                        kept_offsets,
                        np.full(entries, fanout_now, dtype=np.int64),
                    )
                    child_q = np.repeat(r_q, np.diff(chosen_offsets))
                else:
                    chosen, child_entry = _select(
                        policy_list, homogeneous, r_q, embeddings, rngs,
                        kept_cand, kept_lens, kept_segments, fanout_now,
                    )
                    child_q = r_q[child_entry]
                child_pos = kept_pos[chosen]
                child_node = kept_cand[chosen]

            if child_q.size == 0:
                continue
            # Symmetric memory marks (Fig. 1 step 4a): forwarded-to on the
            # parent row, received-from on the child row.
            seen[child_q, child_pos] = True
            seen[child_q, reverse[child_pos]] = True
            round_child_q.append(child_q)
            round_child_node.append(child_node)
            child_q_log.append(child_q)

        if not round_child_q:
            break
        if len(round_child_q) == 1:
            cur_q, cur_node = round_child_q[0], round_child_node[0]
        else:
            cur_q = np.concatenate(round_child_q)
            cur_node = np.concatenate(round_child_node)
        if faulted is not None:
            cur_ttl = np.concatenate(round_child_ttl)
        hop += 1

    # Scatter the flat visit log back into per-query (hop, node) lists; the
    # stable sort preserves processing order within each query.
    if visit_queries:
        all_q = np.concatenate(visit_queries)
        all_node = np.concatenate(visit_nodes)
    else:  # every source was down
        all_q = all_node = np.empty(0, dtype=np.int64)
    all_hop = np.repeat(
        np.arange(len(hop_sizes), dtype=np.int64),
        np.asarray(hop_sizes, dtype=np.int64),
    )
    order = np.argsort(all_q, kind="stable")
    sorted_q = all_q[order]
    sorted_node = all_node[order]
    sorted_hop = all_hop[order]

    # Local evaluation (Fig. 1 steps 1-2), deferred: forwarding never reads
    # the tracker, so document scoring can run once over the deduplicated
    # visit log instead of once per hop.  Each (query, node) pair is scored
    # at its first visit — a re-visit would offer nothing new (the tracker
    # keeps one entry per doc id and ``discovered_at`` keeps the first
    # hop) — and offers replay in exact per-query visit order.
    # Only visited nodes are looked up, by key, so a call costs nothing per
    # unvisited store (sizing a lazily built store would build it, and an
    # empty store offers nothing to the tracker anyway).  A zombie peer
    # routes but serves nothing, on every visit.
    evaluated = np.zeros(n_nodes, dtype=bool)
    evaluated[[v for v in np.unique(all_node).tolist() if v in stores]] = True
    if faults is not None:
        evaluated &= ~faults.zombie_mask
    store_visits = np.flatnonzero(evaluated[sorted_node])
    if store_visits.size:
        key = sorted_q[store_visits] * n_nodes + sorted_node[store_visits]
        _, first = np.unique(key, return_index=True)
        first.sort()
        node_hits: dict[int, list[tuple[Hashable, float]]] = {}
        for i in store_visits[first].tolist():
            q = int(sorted_q[i])
            node = int(sorted_node[i])
            if shared_embedding:
                hits = node_hits.get(node)
                if hits is None:
                    hits = node_hits[node] = stores[node].top_k(
                        embeddings[0], config.k
                    )
            else:
                hits = stores[node].top_k(embeddings[q], config.k)
            result = results[q]
            for doc_id, score in hits:
                result.tracker.offer(doc_id, score, node)
                result.discovered_at.setdefault(doc_id, int(sorted_hop[i]))

    counts = np.bincount(all_q, minlength=batch)
    # Every forwarding attempt is a message: each child on a fault-free
    # walk, each send, reroute and retry under faults.
    message_log = child_q_log if faulted is None else faulted.attempts
    messages = (
        np.bincount(np.concatenate(message_log), minlength=batch)
        if message_log
        else np.zeros(batch, dtype=np.int64)
    )
    sorted_hops = sorted_hop.tolist()
    sorted_nodes = sorted_node.tolist()
    position = 0
    for q in range(batch):
        end = position + int(counts[q])
        results[q].visits = list(
            zip(sorted_hops[position:end], sorted_nodes[position:end])
        )
        results[q].messages = int(messages[q])
        position = end
    if faulted is not None:
        faulted.finish(all_q, all_node)
    return results
