"""The scalar reference walk: the oracle the walk engine is tested against.

:func:`scalar_run_query` is the per-walk loop that once was
``repro.core.engine.run_query``: it runs the Fig. 1 protocol (paper §IV-C)
one walker at a time from a FIFO queue, with per-node neighbor memory in
plain dictionaries.  The lockstep engine, :func:`repro.core.batch.run_queries`,
must equal it on every :class:`SearchResult` field for deterministic
policies, with faults, quarantine, redundancy and hop budgets too; the
equivalence tests and the batch-engine benchmark compare the two.

:func:`scalar_accuracy_experiment` and :func:`scalar_hop_count_experiment`
are the per-walk reference drivers of
:func:`repro.simulation.runner.run_accuracy_experiment` and
:func:`repro.simulation.runner.run_hop_count_experiment`: one oracle walk per
start, and a per-alpha ``diffuse_scores`` power iteration where the batched
driver solves all alphas in one multi-column pass.

Stochastic policies draw from ``ensure_rng(seed)`` here, where the engine
spawns one generator per walk, so only deterministic policies compare walk
for walk.

:func:`reference_build_workload` is the per-word loop that once was
:func:`repro.simulation.workload.build_workload`: one full-vocabulary
``neighbors_above`` pass per candidate word.  The blocked scan must return
the same queries, gold lists (order included) and pool.

:func:`reference_sparse_ppr` is the sweep loop that once was
``SparsePersonalizedPageRank.apply_detailed``: it re-slices the operator
with ``searchsorted`` whenever the active rows change, slices each row chunk
again every sweep, and assembles every iterate and residual through
``union1d``.  The filter must return the same :class:`DiffusionResult`, field
for field and bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping

from math import inf

import numpy as np
import scipy.sparse as sp

from repro.core.engine import ResilienceConfig, SearchResult, WalkConfig
from repro.core.forwarding import ForwardingPolicy, PrecomputedScorePolicy
from repro.embeddings.model import WordEmbeddingModel
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.metrics import bfs_distances
from repro.gsp.filters import (
    DiffusionResult,
    RowBlock,
    SparsePersonalizedPageRank,
    check_pruned_mass,
    coerce_sparse_signal,
    effective_tolerance,
    operator_out_degrees,
)
from repro.retrieval.topk import TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector
from repro.simulation.metrics import AccuracyGrid, HopStatistics, summarize_hops
from repro.simulation.runner import IterationSampler, sample_start_nodes
from repro.simulation.scenario import AccuracyScenario, HopCountScenario
from repro.simulation.workload import RetrievalWorkload
from repro.utils import (
    check_peer_ids,
    check_positive_int,
    check_probability,
    ensure_rng,
)
from repro.utils.rng import RngLike, spawn_rngs


def scalar_run_query(
    adjacency: CompressedAdjacency,
    stores: Mapping[int, DocumentStore],
    policy: ForwardingPolicy,
    query_embedding: np.ndarray,
    start_node: int,
    config: WalkConfig | None = None,
    *,
    query_id: Hashable = None,
    seed: RngLike = None,
    faults: FaultInjector | None = None,
    resilience: ResilienceConfig | None = None,
    hop_budget: int | None = None,
    quarantine: Iterable[int] | None = None,
) -> SearchResult:
    """One walk, one walker at a time; parameters as for ``run_query``."""
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
        store = stores.get(node)
        if not store:
            return  # no documents here
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
        zombie = bool(faults.zombie_mask[node])
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
        found_dead = False
        died_of_faults = False
        while sent < fanout and ttl > 0:
            targets = next_hops(node, 1)
            if targets.size == 0:
                # Lost to faults only when a peer was found dead or is
                # quarantined, not when the neighbours ran out.
                died_of_faults = bool(quarantined) or found_dead
                break
            target = int(targets[0])
            result.messages += 1
            if not faults.alive(target, float(hop + 1)):
                # No ack before the timeout: mark dead, reroute.
                failures += 1
                result.rerouted += 1
                faults.crash_detections += 1
                excluded[target] = True
                unreachable.append(target)
                found_dead = True
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


def scalar_accuracy_experiment(
    adjacency: CompressedAdjacency,
    workload: RetrievalWorkload,
    scenario: AccuracyScenario,
) -> AccuracyGrid:
    """``run_accuracy_experiment`` with one oracle walk per (alpha, start)."""
    sampler = IterationSampler(
        adjacency,
        workload,
        weighting=scenario.weighting,
        placement=scenario.placement,
        correlation_mixing=scenario.correlation_mixing,
    )
    grid = AccuracyGrid(tuple(scenario.alphas), scenario.max_distance)
    config = WalkConfig(ttl=scenario.ttl, fanout=scenario.fanout, k=scenario.k)
    for rng in spawn_rngs(scenario.seed, scenario.iterations):
        data = sampler.sample(scenario.n_documents, rng)
        distances = bfs_distances(adjacency, data.gold_node)
        starts = sample_start_nodes(distances, scenario.max_distance, rng)
        for alpha in scenario.alphas:
            scores = sampler.diffuse_scores(data.relevance_signal, alpha)
            policy = PrecomputedScorePolicy(scores)
            for radius, start in starts.items():
                result = scalar_run_query(
                    adjacency,
                    data.stores,
                    policy,
                    data.query_embedding,
                    start,
                    config,
                    query_id=data.query_word,
                    seed=rng,
                )
                grid.record(alpha, radius, result.found(data.gold_word, top=1))
    return grid


def scalar_hop_count_experiment(
    adjacency: CompressedAdjacency,
    workload: RetrievalWorkload,
    scenario: HopCountScenario,
) -> HopStatistics:
    """``run_hop_count_experiment`` with one oracle walk per start."""
    sampler = IterationSampler(
        adjacency,
        workload,
        weighting=scenario.weighting,
        placement=scenario.placement,
        correlation_mixing=scenario.correlation_mixing,
    )
    config = WalkConfig(ttl=scenario.ttl, fanout=scenario.fanout, k=scenario.k)
    hops_of_successes: list[int] = []
    total = 0
    for rng in spawn_rngs(scenario.seed, scenario.iterations):
        data = sampler.sample(scenario.n_documents, rng)
        scores = sampler.diffuse_scores(data.relevance_signal, scenario.alpha)
        policy = PrecomputedScorePolicy(scores)
        starts = rng.integers(
            0, adjacency.n_nodes, size=scenario.queries_per_iteration
        )
        for start in starts:
            result = scalar_run_query(
                adjacency,
                data.stores,
                policy,
                data.query_embedding,
                int(start),
                config,
                query_id=data.query_word,
                seed=rng,
            )
            total += 1
            if result.found(data.gold_word, top=1):
                hops = result.hops_to(data.gold_word)
                assert hops is not None
                hops_of_successes.append(hops)
    return summarize_hops(scenario.n_documents, hops_of_successes, total)


def reference_build_workload(
    model: WordEmbeddingModel,
    *,
    n_queries: int = 1000,
    threshold: float = 0.6,
    seed: RngLike = None,
) -> RetrievalWorkload:
    """``build_workload`` with one ``neighbors_above`` call per candidate."""
    check_positive_int(n_queries, "n_queries")
    check_probability(threshold, "threshold", inclusive=False)
    order = ensure_rng(seed).permutation(len(model))
    queries: list[str] = []
    gold_of: dict[str, list[str]] = {}
    query_set: set[str] = set()
    gold_set: set[str] = set()
    for idx in order:
        if len(queries) >= n_queries:
            break
        word = model.word_at(int(idx))
        if word in gold_set or word in query_set:
            continue
        neighbors = [
            neighbor
            for neighbor, _ in model.neighbors_above(word, threshold)
            if neighbor not in query_set
        ]
        if not neighbors:
            continue
        queries.append(word)
        query_set.add(word)
        gold_of[word] = neighbors
        gold_set.update(neighbors)
    if not queries:
        raise ValueError("no query words have neighbors above the threshold")
    irrelevant_pool = [
        word for word in model.words if word not in query_set and word not in gold_set
    ]
    return RetrievalWorkload(
        model=model,
        queries=queries,
        gold_of=gold_of,
        irrelevant_pool=irrelevant_pool,
        threshold=threshold,
    )

#: The row chunk ``reference_sparse_ppr`` slices and prunes by.
REFERENCE_CHUNK_ROWS = 8192


def reference_sparse_ppr(
    ppr: SparsePersonalizedPageRank,
    operator: sp.spmatrix,
    signal: np.ndarray | sp.spmatrix,
) -> DiffusionResult:
    """``ppr.apply_detailed(operator, signal)`` with the union-based sweep."""
    n = operator.shape[0]
    signal, _ = coerce_sparse_signal(signal, n, ppr.dtype)
    dim = signal.shape[1]
    alpha = ppr.alpha
    damping = 1.0 - alpha
    csr_op = (
        operator
        if sp.issparse(operator) and operator.format == "csr"
        else operator.tocsr()
    )
    op_data = csr_op.data.astype(ppr.dtype, copy=False)
    row_dtype = np.int32 if n < np.iinfo(np.int32).max else np.int64
    op_entry_rows = np.repeat(np.arange(n, dtype=row_dtype), np.diff(csr_op.indptr))

    teleport_rows = signal.nodes
    teleport_block = signal.rows * alpha
    cur_rows = teleport_rows
    cur_block = teleport_block.copy()

    if ppr.epsilon > 0.0:
        thresholds = ppr.epsilon * operator_out_degrees(operator).astype(np.float64)
        allowed = np.zeros(n, dtype=bool)
        allowed[teleport_rows] = True
    else:
        thresholds = None
        allowed = None

    sliced_rows: np.ndarray | None = None
    sliced: sp.csr_matrix | None = None
    touched: np.ndarray | None = None
    active_mask = np.zeros(n, dtype=bool)

    residual = np.inf
    converged = False
    iterations = 0
    edge_operations = 0
    tol = effective_tolerance(ppr.tol, ppr.dtype)
    for iterations in range(1, ppr.max_iterations + 1):
        if sliced_rows is None or not np.array_equal(sliced_rows, cur_rows):
            active_mask[:] = False
            active_mask[cur_rows] = True
            keep_entry = active_mask[csr_op.indices]
            counts = np.bincount(op_entry_rows[keep_entry], minlength=n)
            touched = np.flatnonzero(counts).astype(np.int64)
            sliced = sp.csr_matrix(
                (
                    op_data[keep_entry],
                    np.searchsorted(cur_rows, csr_op.indices[keep_entry]),
                    np.concatenate(([0], np.cumsum(counts[touched]))),
                ),
                shape=(touched.shape[0], cur_rows.shape[0]),
            )
            sliced_rows = cur_rows
        edge_operations += sliced.nnz
        kept_rows_parts: list[np.ndarray] = []
        kept_value_parts: list[np.ndarray] = []
        for lo in range(0, touched.shape[0], REFERENCE_CHUNK_ROWS):
            hi = min(lo + REFERENCE_CHUNK_ROWS, touched.shape[0])
            chunk_rows = touched[lo:hi]
            chunk = sliced[lo:hi] @ cur_block
            chunk *= damping
            if thresholds is not None and dim:
                peaks = np.max(np.abs(chunk), axis=1)
                above = peaks >= thresholds[chunk_rows]
                allowed[chunk_rows[above]] = True
                keep = above | allowed[chunk_rows]
                if not keep.all():
                    chunk_rows = chunk_rows[keep]
                    chunk = chunk[keep]
            kept_rows_parts.append(chunk_rows)
            kept_value_parts.append(chunk)
        kept_rows = (
            np.concatenate(kept_rows_parts)
            if kept_rows_parts
            else np.empty(0, dtype=np.int64)
        )
        new_rows = np.union1d(kept_rows, teleport_rows)
        block = np.zeros((new_rows.shape[0], dim), dtype=ppr.dtype)
        if kept_rows.shape[0]:
            block[np.searchsorted(new_rows, kept_rows)] = np.concatenate(
                kept_value_parts
            )
        block[np.searchsorted(new_rows, teleport_rows)] += teleport_block
        if np.array_equal(new_rows, cur_rows):
            residual = float(np.max(np.abs(block - cur_block))) if block.size else 0.0
        else:
            union = np.union1d(new_rows, cur_rows)
            change = np.zeros((union.shape[0], dim), dtype=ppr.dtype)
            change[np.searchsorted(union, new_rows)] = block
            change[np.searchsorted(union, cur_rows)] -= cur_block
            residual = float(np.max(np.abs(change))) if change.size else 0.0
        converged = residual < tol
        if converged or iterations == ppr.max_iterations:
            prev_rows, prev_block = cur_rows, cur_block
        cur_rows, cur_block = new_rows, block
        if converged:
            break

    e0_l1 = float(np.abs(signal.rows[signal.rows != 0]).sum())
    estimate_l1 = float(np.abs(cur_block).sum())
    residual_l1 = inf
    pruned_l1 = 0.0
    if touched is not None:
        active_mask[:] = False
        active_mask[cur_rows] = True
        pruned = np.flatnonzero(~active_mask[touched])
        pruned_values = sliced[pruned] @ prev_block
        pruned_l1 = damping * float(np.abs(pruned_values, out=pruned_values).sum())
        change_entries = dim * (prev_rows.shape[0] + cur_rows.shape[0])
        residual_l1 = ppr._residual_l1_bound(
            operator,
            pruned_l1=pruned_l1,
            change_l1=residual * change_entries,
            estimate_l1=estimate_l1,
            e0_l1=e0_l1,
            max_row_entries=int(np.diff(sliced.indptr).max(initial=0)),
        )
    mass_ratio = None
    if thresholds is not None:
        mass_ratio = check_pruned_mass(e0_l1, estimate_l1, alpha, pruned_l1)
    return DiffusionResult(
        signal=RowBlock(cur_rows, cur_block, n),
        iterations=iterations,
        residual=residual,
        converged=converged,
        diffused_mass_ratio=mass_ratio,
        edge_operations=edge_operations,
        residual_l1=residual_l1,
    )


def diffusion_differences(got: DiffusionResult, want: DiffusionResult) -> list[str]:
    """The :class:`DiffusionResult` fields in which two results differ, bit for bit.

    ``signal`` is compared through its CSR copy (``.tocsr()``: shape,
    dtype, ``indptr``, ``indices`` and ``data`` bytes); floats by their
    bytes, so ``-0.0`` differs from ``0.0`` and a NaN equals only itself.
    """
    differ = [
        name
        for name in ("iterations", "converged", "edge_operations")
        if getattr(got, name) != getattr(want, name)
    ]
    for name in ("residual", "diffused_mass_ratio", "residual_l1"):
        a, b = getattr(got, name), getattr(want, name)
        if (a is None) != (b is None) or (
            a is not None and np.float64(a).tobytes() != np.float64(b).tobytes()
        ):
            differ.append(name)
    g, w = got.signal.tocsr(), want.signal.tocsr()
    if g.shape != w.shape or any(
        getattr(g, part).dtype != getattr(w, part).dtype
        or getattr(g, part).tobytes() != getattr(w, part).tobytes()
        for part in ("indptr", "indices", "data")
    ):
        differ.append("signal")
    return differ
