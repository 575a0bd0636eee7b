"""Query-oriented informed routing: the §II-A alternative to diffusion.

In query-oriented methods "nodes store information of passing queries and
their results and, when a new query arrives, it is forwarded to the most
successful route travelled by similar past queries" (paper §II-A, citing
Kalogeraki et al. and Li & Wu).  Their advantage is storing nothing about
unpopular documents; their weakness is blindness to unseen queries — the
cold-start problem the paper calls out.

:class:`QueryRoutingTable` implements the per-node cache: a bounded set of
(query embedding, neighbor, reward) exemplars with exponential decay.
:class:`LearnedRoutingPolicy` scores a candidate neighbor by the
similarity-weighted reward of cached exemplars that routed through it, and
explores uniformly when the cache has nothing relevant.  ``train()`` replays
a workload of queries, reinforcing the hop sequences of successful walks —
the comparison harness can then measure cold vs warm behaviour against the
diffusion scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.core.engine import SearchResult, WalkConfig
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.scoring import top_k_indices
from repro.retrieval.vector_store import DocumentStore
from repro.utils import check_positive, check_probability, ensure_rng
from repro.utils.rng import RngLike


@dataclass
class CachedRoute:
    """One exemplar: a past query that succeeded through ``neighbor``."""

    embedding: np.ndarray
    neighbor: int
    reward: float


@dataclass
class QueryRoutingTable:
    """A node's bounded memory of successful past queries."""

    capacity: int = 50
    decay: float = 0.98
    entries: list[CachedRoute] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._matrix: np.ndarray | None = None  # stacked entry embeddings

    def record(self, embedding: np.ndarray, neighbor: int, reward: float) -> None:
        """Cache a successful routing decision (evicting the weakest entry)."""
        for entry in self.entries:
            entry.reward *= self.decay
        self.entries.append(
            CachedRoute(np.asarray(embedding, dtype=np.float64), int(neighbor), reward)
        )
        if len(self.entries) > self.capacity:
            weakest = min(range(len(self.entries)), key=lambda i: self.entries[i].reward)
            self.entries.pop(weakest)
        self._matrix = None  # invalidate the scoring cache

    def score_neighbors(
        self, query_embedding: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Similarity-weighted cached reward per candidate (0 when unknown)."""
        scores = np.zeros(candidates.shape[0], dtype=np.float64)
        if not self.entries:
            return scores
        if self._matrix is None:
            self._matrix = np.vstack([entry.embedding for entry in self.entries])
        similarities = np.maximum(self._matrix @ query_embedding, 0.0)
        rewards = np.asarray([entry.reward for entry in self.entries])
        weights = similarities * rewards
        position = {int(c): i for i, c in enumerate(candidates)}
        for entry, weight in zip(self.entries, weights):
            slot = position.get(entry.neighbor)
            if slot is not None:
                scores[slot] += weight
        return scores


class LearnedRoutingPolicy:
    """Forward along the most successful route of similar past queries.

    Cold nodes (no relevant cache entries) fall back to uniform random
    forwarding — exactly the cold-start behaviour §II-A describes.

    The choice depends on the node deciding, which a walk-engine policy is
    never told, so this is not a
    :class:`~repro.core.forwarding.ForwardingPolicy`:
    :func:`learned_routing_walk` walks the nodes itself and asks
    :meth:`route_from` at each.
    """

    def __init__(
        self,
        adjacency: CompressedAdjacency,
        *,
        capacity: int = 50,
        decay: float = 0.98,
        epsilon: float = 0.05,
    ) -> None:
        check_positive(capacity, "capacity")
        check_probability(decay, "decay", inclusive=False)
        check_probability(epsilon, "epsilon")
        self.adjacency = adjacency
        self.tables: dict[int, QueryRoutingTable] = {}
        self.capacity = int(capacity)
        self.decay = float(decay)
        self.epsilon = float(epsilon)

    def table_of(self, node: int) -> QueryRoutingTable:
        table = self.tables.get(node)
        if table is None:
            table = self.tables[node] = QueryRoutingTable(self.capacity, self.decay)
        return table

    def route_from(
        self,
        node: int,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Pick the next hop from ``node`` (explore with prob. epsilon)."""
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            raise ValueError("no candidates to route to")
        scores = self.table_of(node).score_neighbors(query_embedding, candidates)
        if scores.max() <= 0.0 or rng.random() < self.epsilon:
            return int(candidates[rng.integers(candidates.size)])
        return int(candidates[top_k_indices(scores, 1)[0]])

    def describe(self) -> str:
        return "learned-routing"


def learned_routing_walk(
    adjacency: CompressedAdjacency,
    stores: Mapping[int, DocumentStore],
    policy: LearnedRoutingPolicy,
    query_embedding: np.ndarray,
    start_node: int,
    config: WalkConfig | None = None,
    *,
    gold_doc: Hashable | None = None,
    learn: bool = True,
    query_id: Hashable = None,
    seed: RngLike = None,
) -> SearchResult:
    """Run one query with per-node learned routing, optionally reinforcing.

    Executes the Fig. 1 walk with the policy consulted *at each node*; when
    ``learn`` and the walk finds ``gold_doc``, every node on the path up to
    the discovery reinforces the hop it chose (reward discounted by the
    remaining distance, so earlier, more general decisions learn less than
    the final precise ones).
    """
    config = config or WalkConfig()
    rng = ensure_rng(seed)
    query_embedding = np.asarray(query_embedding, dtype=np.float64)

    # A tiny wrapper class would hide the node; simpler: drive the engine
    # hop by hop ourselves, mirroring run_query's semantics exactly.
    from repro.retrieval.topk import TopKTracker

    tracker = TopKTracker(config.k)
    result = SearchResult(
        query_id=query_id, start_node=int(start_node), tracker=tracker, visits=[]
    )
    memory: dict[int, set[int]] = {}
    decisions: list[tuple[int, int]] = []  # (node, chosen neighbor)

    node, ttl = int(start_node), config.ttl
    hop = 0
    while True:
        result.visits.append((hop, node))
        store = stores.get(node)
        if store is not None:
            for doc_id, score in store.top_k(query_embedding, config.k):
                tracker.offer(doc_id, score, node)
                result.discovered_at.setdefault(doc_id, hop)
        ttl -= 1
        if ttl <= 0:
            break
        neighbors = adjacency.neighbors(node)
        if neighbors.size == 0:
            break
        seen = memory.get(node)
        if seen:
            mask = np.isin(neighbors, list(seen), invert=True, assume_unique=True)
            candidates = neighbors[mask]
        else:
            candidates = neighbors
        if candidates.size == 0:
            candidates = neighbors
        target = policy.route_from(node, query_embedding, candidates, rng)
        memory.setdefault(node, set()).add(target)
        memory.setdefault(target, set()).add(node)
        decisions.append((node, target))
        result.messages += 1
        node, hop = target, hop + 1

    if learn and gold_doc is not None and result.found(gold_doc, top=1):
        found_hop = result.hops_to(gold_doc)
        assert found_hop is not None
        for decision_hop, (from_node, to_node) in enumerate(decisions):
            if decision_hop >= found_hop:
                break
            remaining = found_hop - decision_hop
            reward = 1.0 / remaining
            policy.table_of(from_node).record(query_embedding, to_node, reward)
    return result


def train_routing_policy(
    adjacency: CompressedAdjacency,
    stores: Mapping[int, DocumentStore],
    policy: LearnedRoutingPolicy,
    training_queries: list[tuple[np.ndarray, Hashable]],
    *,
    ttl: int = 50,
    k: int = 1,
    seed: RngLike = None,
) -> float:
    """Replay a training workload; returns the training success rate."""
    rng = ensure_rng(seed)
    config = WalkConfig(ttl=ttl, fanout=1, k=k)
    hits = 0
    for query_embedding, gold_doc in training_queries:
        start = int(rng.integers(adjacency.n_nodes))
        result = learned_routing_walk(
            adjacency, stores, policy, query_embedding, start, config,
            gold_doc=gold_doc, learn=True, seed=rng,
        )
        hits += result.found(gold_doc, top=1)
    return hits / max(1, len(training_queries))
