"""Batched walk engine: B independent TTL-bounded walks in lockstep.

:func:`run_queries` executes the exact Fig. 1 protocol of
:func:`repro.core.engine.run_query` for a whole batch of queries at once,
replacing the per-walk Python loop with structure-of-arrays state:

* the frontier is a pair of flat arrays (query index, node) advanced one hop
  at a time — TTL and fanout are uniform across a hop, so they live as
  scalars, not arrays;
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
  stacked score table, no per-walk Python at all; the table is a dense
  matrix for dense-backed policies or a composite-key CSR lookup for
  sparse-backed ones, so the sparse pipeline's walks never densify their
  scores per hop.

Equivalence contract, pinned by ``tests/unit/test_batch_engine.py``: for
deterministic policies every :class:`SearchResult` field is bit-identical to
the scalar engine's; stochastic policies draw from per-walk generators
spawned from ``seed`` (one independent stream per walk), so each walk is
distributionally equivalent to a scalar walk with its own seed.

Memory note: the visited-edge matrix is ``B × 2·n_edges`` booleans.  When a
batch would exceed :data:`VISITED_BUDGET_BYTES` (default 64 MB) it is split
into chunks transparently, so arbitrarily large batches run in bounded
memory; the experiment drivers use batches of at most a few dozen walks.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.engine import SearchResult, WalkConfig
from repro.core.forwarding import (
    ForwardingPolicy,
    PrecomputedScorePolicy,
    _segment_top_k,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.kernels import dispatch as kernels
from repro.retrieval.topk import TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.utils.rng import RngLike, spawn_rngs

__all__ = ["run_queries"]

#: Cap on the per-call visited-edge matrix (B × 2·n_edges booleans); batches
#: that would exceed it are split into independent chunks.
VISITED_BUDGET_BYTES = 64 * 1024 * 1024


def _within_query_ranks(queries: np.ndarray) -> np.ndarray:
    """Rank of each frontier entry among entries of the same query.

    The scalar engine pops same-hop walkers of one query in FIFO order, so a
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


class _DenseScoreStack:
    """Per-walk dense score rows; ``gather`` is one fancy index."""

    def __init__(self, stack: np.ndarray, rows: np.ndarray) -> None:
        self.stack = stack
        self.rows = rows

    def gather(self, queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Score of ``nodes[i]`` under walk ``queries[i]``'s policy."""
        return self.stack[self.rows[queries], nodes]


class _SparseScoreStack:
    """Per-walk CSR score rows, gathered without densifying.

    The stacked rows' (row, node) coordinates collapse into one sorted
    composite-key array (rows are appended in order, node indices are sorted
    within each row), so a whole hop's ``(walk, candidate)`` lookups are a
    single ``searchsorted`` — absent entries score exactly ``0.0``, matching
    what a densified copy would hold.
    """

    def __init__(
        self, keys: np.ndarray, values: np.ndarray, rows: np.ndarray, n_nodes: int
    ) -> None:
        # The composite key of stack row r, node v is r·n_nodes + v; it must
        # fit int64 for every (row, node) pair or gathers would silently
        # wrap around and return the wrong walk's scores.
        max_row = int(rows.max(initial=-1)) + 1
        if n_nodes > 0 and max_row > np.iinfo(np.int64).max // n_nodes:
            raise OverflowError(
                f"sparse score stack of {max_row} distinct policies over "
                f"{n_nodes} nodes overflows the int64 composite-key space "
                f"({max_row} * {n_nodes} > {np.iinfo(np.int64).max}); "
                "split the batch into smaller policy groups"
            )
        self.keys = keys
        self.values = values
        self.rows = rows
        self.n_nodes = n_nodes

    def gather(self, queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Score of ``nodes[i]`` under walk ``queries[i]``'s policy."""
        wanted = self.rows[queries] * np.int64(self.n_nodes) + nodes
        return kernels.sparse_key_lookup(self.keys, self.values, wanted)


def _precomputed_stack(
    policy_list: list[ForwardingPolicy], n_nodes: int
) -> _DenseScoreStack | _SparseScoreStack | None:
    """Stack per-walk score vectors when every policy is score-table based.

    Returns a score stack whose ``gather(queries, nodes)`` yields walk
    ``queries[i]``'s score for node ``nodes[i]`` — or None when the batch
    mixes in other policy types (or mixes dense- and sparse-backed score
    tables).  Distinct policy instances share a row when they are the same
    object, so the accuracy driver's one-policy-per-alpha batch stacks to
    one row per alpha.
    """
    row_of: dict[int, int] = {}
    vectors: list = []
    rows = np.empty(len(policy_list), dtype=np.int64)
    sparse_mode: bool | None = None
    for q, policy in enumerate(policy_list):
        if type(policy) is not PrecomputedScorePolicy:
            return None
        if policy.n_nodes != n_nodes:
            return None
        policy_sparse = policy.node_scores is None
        if sparse_mode is None:
            sparse_mode = policy_sparse
        elif sparse_mode != policy_sparse:
            return None
        row = row_of.get(id(policy))
        if row is None:
            table = (
                (policy._sparse_indices, policy._sparse_values)
                if policy_sparse
                else policy.node_scores
            )
            values = table[1] if policy_sparse else table
            if not np.isfinite(values).all():
                # The fused selection uses -inf as its masking sentinel;
                # non-finite scores take the general select_batch path.
                return None
            row = row_of[id(policy)] = len(vectors)
            vectors.append(table)
        rows[q] = row
    if not sparse_mode:
        return _DenseScoreStack(np.stack(vectors), rows)
    keys = np.concatenate(
        [
            np.int64(r) * np.int64(n_nodes) + indices
            for r, (indices, _) in enumerate(vectors)
        ]
    ) if vectors else np.empty(0, dtype=np.int64)
    values = (
        np.concatenate([vals for _, vals in vectors])
        if vectors
        else np.empty(0, dtype=np.float64)
    )
    return _SparseScoreStack(keys, values, rows, n_nodes)


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
    hop_budgets:
        Per-query deadline budgets in hops (``B`` positive ints, or ``None``
        for none): walk ``q``'s horizon is capped at
        ``min(config.ttl, hop_budgets[q])`` visits.  A walk whose cap
        actually bites returns its best-so-far partial with
        ``result.degraded`` and ``result.deadline_hit`` set — exactly the
        scalar engine's ``hop_budget`` semantics, per query.  ``None``
        leaves the batch bit-identical to the unbudgeted engine.

    Returns
    -------
    list[SearchResult]
        One result per start node, index-aligned with ``start_nodes``.
    """
    config = config or WalkConfig()
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
    # child seed, preserving the per-walk-stream contract).
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

    has_store = np.zeros(n_nodes, dtype=bool)
    for node, store in stores.items():
        if isinstance(node, (int, np.integer)) and 0 <= node < n_nodes and len(store):
            has_store[node] = True

    # Frontier (structure of arrays).  All walkers of a hop share the same
    # remaining TTL (children inherit the parent's decremented TTL) and the
    # same fanout (config.fanout at the source, 1 afterwards), so neither
    # needs a per-walker array.
    cur_q = np.arange(batch, dtype=np.int64)
    cur_node = start.copy()
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

        if config.ttl - hop - 1 <= 0:  # Fig. 1 steps 3/4b
            break
        if budgets is not None:
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
        fanout_now = config.fanout if hop == 0 else 1
        cur_deg = degrees[cur_node]
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
                if act_q.size == 0:
                    break

        # Sub-rounds replay the scalar FIFO order when one query can field
        # several same-hop walkers (fanout > 1 past the source hop).
        if config.fanout > 1 and hop >= 1:
            ranks = _within_query_ranks(act_q)
            n_rounds = int(ranks.max()) + 1
        else:
            ranks = None
            n_rounds = 1

        round_child_q: list[np.ndarray] = []
        round_child_node: list[np.ndarray] = []
        for sub_round in range(n_rounds):
            if ranks is None:
                r_q, r_node, lens = act_q, act_node, act_deg
            else:
                in_round = ranks == sub_round
                r_q, r_node = act_q[in_round], act_node[in_round]
                lens = act_deg[in_round]
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

            if stacked is not None and fanout_now == 1:
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
                # Symmetric memory marks (Fig. 1 step 4a).
                seen[child_q, child_pos] = True
                seen[child_q, reverse[child_pos]] = True
                round_child_q.append(child_q)
                round_child_node.append(child_node)
                child_q_log.append(child_q)
                continue

            # General path: compress to the per-segment candidate sets
            # (footnote-9 fallback included) and dispatch to the policies.
            if unseen.all():
                kept_pos, kept_q, kept_segments = flat_pos, flat_q, segments
                kept_lens, kept_starts = lens, seg_starts
            else:
                any_unseen = (
                    np.bincount(segments, weights=unseen, minlength=entries) > 0
                )
                keep = unseen | ~any_unseen[segments]
                kept_pos = flat_pos[keep]
                kept_q = flat_q[keep]
                kept_segments = segments[keep]
                kept_lens = np.bincount(kept_segments, minlength=entries)
                kept_starts = kept_lens.cumsum() - kept_lens
            kept_cand = indices[kept_pos]

            if stacked is not None:
                scores = stacked.gather(kept_q, kept_cand)
                kept_offsets = np.concatenate(([0], kept_starts + kept_lens))
                chosen, chosen_offsets = _segment_top_k(
                    scores,
                    kept_offsets,
                    np.full(entries, fanout_now, dtype=np.int64),
                )
                child_q = np.repeat(r_q, np.diff(chosen_offsets))
                child_pos = kept_pos[chosen]
                child_node = kept_cand[chosen]
            else:
                if homogeneous:
                    groups: list[tuple[ForwardingPolicy, np.ndarray]] = [
                        (policy_list[0], np.arange(entries, dtype=np.int64))
                    ]
                else:
                    by_policy: dict[int, list[int]] = {}
                    for j, q in enumerate(r_q.tolist()):
                        by_policy.setdefault(id(policy_list[q]), []).append(j)
                    groups = [
                        (policy_list[r_q[js[0]]], np.asarray(js, dtype=np.int64))
                        for js in by_policy.values()
                    ]
                kept_offsets = np.concatenate(([0], kept_starts + kept_lens))
                cand_parts: list[np.ndarray | None] = [None] * entries
                pos_parts: list[np.ndarray | None] = [None] * entries
                for policy, js in groups:
                    if homogeneous:
                        sub_cand, sub_pos = kept_cand, kept_pos
                        sub_offsets = kept_offsets
                    else:
                        member = np.zeros(entries, dtype=bool)
                        member[js] = True
                        sub_mask = member[kept_segments]
                        sub_cand = kept_cand[sub_mask]
                        sub_pos = kept_pos[sub_mask]
                        sub_offsets = np.concatenate(
                            ([0], np.cumsum(kept_lens[js]))
                        )
                    group_q = r_q[js]
                    chosen, chosen_offsets = policy.select_batch(
                        embeddings[group_q],
                        sub_cand,
                        sub_offsets,
                        np.full(js.shape[0], fanout_now, dtype=np.int64),
                        [rngs[q] for q in group_q.tolist()],
                    )
                    for t, j in enumerate(js.tolist()):
                        span = slice(
                            int(chosen_offsets[t]), int(chosen_offsets[t + 1])
                        )
                        cand_parts[j] = sub_cand[chosen[span]]
                        pos_parts[j] = sub_pos[chosen[span]]
                child_counts = np.asarray(
                    [part.shape[0] for part in cand_parts], dtype=np.int64
                )
                if not child_counts.any():
                    continue
                child_q = np.repeat(r_q, child_counts)
                child_node = np.concatenate(cand_parts)
                child_pos = np.concatenate(pos_parts)

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
        hop += 1

    # Scatter the flat visit log back into per-query (hop, node) lists; the
    # stable sort preserves processing order within each query.
    all_q = np.concatenate(visit_queries)
    all_node = np.concatenate(visit_nodes)
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
    # at its first visit — re-visits are no-ops in the scalar engine too
    # (the tracker keeps one entry per doc id and ``discovered_at`` keeps
    # the first hop) — and offers replay in exact per-query visit order.
    store_visits = np.flatnonzero(has_store[sorted_node])
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
    messages = (
        np.bincount(np.concatenate(child_q_log), minlength=batch)
        if child_q_log
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
    return results
