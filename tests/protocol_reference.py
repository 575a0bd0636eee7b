"""The message-level query walk: an oracle for the walk engine.

:class:`QueryRoutingNode` runs the Fig. 1 protocol (paper §IV-C) as actors on
a :class:`repro.runtime.network.SimNetwork`: a query is relayed node to node,
each node keeps per-query memory of the neighbors it interacted with (the
message itself never carries the visited set), and on TTL expiry a response
backtracks along the reverse path to the querying node.  Backtracking uses a
per-(query, node) LIFO stack of upstream hops, so walks that revisit a node
still unwind correctly.

:func:`event_search` runs one query this way over a diffused
:class:`repro.core.search.DiffusionSearchNetwork` and rebuilds a
:class:`SearchResult`.  The lockstep engine,
:func:`repro.core.batch.run_queries`, must walk the same path and return the
same results and first-discovery hops, one walk at a time or many in one
batch; the integration tests compare the two.

This is the protocol without faults: the engine's fault model (hop-indexed
crash masks, one drop stream per walk) is pinned by
``scalar_reference.scalar_run_query`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from repro.core.engine import SearchResult
from repro.core.search import DiffusionSearchNetwork
from repro.retrieval.scoring import top_k_indices
from repro.retrieval.topk import ScoredDocument, TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.network import LatencyModel, SimNetwork
from repro.runtime.node import SimNode
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class QueryMessage:
    """A forwarded query: embedding, TTL budget, and the running top-k."""

    query_id: Hashable
    embedding: np.ndarray
    ttl: int
    k: int
    items: tuple[ScoredDocument, ...] = ()

    def size_bytes(self) -> float:
        return 8.0 * np.asarray(self.embedding).size + 24.0 * len(self.items) + 32.0


@dataclass(frozen=True)
class QueryResponse:
    """The expired query's results, backtracking toward the source."""

    query_id: Hashable
    items: tuple[ScoredDocument, ...]

    def size_bytes(self) -> float:
        return 24.0 * len(self.items) + 16.0


def _tracker(k: int, items: tuple[ScoredDocument, ...]) -> TopKTracker:
    tracker = TopKTracker(k)
    for item in items:
        tracker.offer(item.doc_id, item.score, item.node)
    return tracker


class QueryRoutingNode(SimNode):
    """A node executing local retrieval plus Fig. 1 forwarding.

    Parameters
    ----------
    store:
        The node's local document collection.
    neighbor_embeddings:
        Diffused embeddings of the node's one-hop neighbors, as collected
        during the diffusion warm-up (paper §IV-B keeps exactly this state).
        Missing neighbors score as zero vectors.
    """

    def __init__(
        self,
        node_id: int,
        store: DocumentStore,
        neighbor_embeddings: dict[int, np.ndarray] | None = None,
        *,
        trace: list | None = None,
    ) -> None:
        super().__init__(node_id)
        self.store = store
        self.neighbor_embeddings = {
            int(k): np.asarray(v, dtype=np.float64)
            for k, v in (neighbor_embeddings or {}).items()
        }
        # per-query state
        self._memory: dict[Hashable, set[int]] = {}
        self._upstream: dict[Hashable, list[int | None]] = {}
        self.completed: dict[Hashable, tuple[ScoredDocument, ...]] = {}
        self.trace = trace

    def initiate(self, message: QueryMessage) -> None:
        """Start a query at this node (the querying peer of §III-B)."""
        self._process(None, message)

    def update_neighbor_embedding(self, neighbor: int, embedding: np.ndarray) -> None:
        """Refresh a stored neighbor embedding (diffusion keeps these current)."""
        self.neighbor_embeddings[int(neighbor)] = np.asarray(
            embedding, dtype=np.float64
        )

    def on_message(self, src: int, message: Any) -> None:
        if isinstance(message, QueryMessage):
            self._process(src, message)
        elif isinstance(message, QueryResponse):
            self._backtrack(message)

    def _process(self, src: int | None, message: QueryMessage) -> None:
        query_id = message.query_id
        memory = self._memory.setdefault(query_id, set())
        if src is not None:
            memory.add(src)
        if self.trace is not None:
            self.trace.append((query_id, self.node_id))

        # Fig. 1 step 2: evaluate on local documents.
        tracker = _tracker(message.k, message.items)
        for doc_id, score in self.store.top_k(message.embedding, message.k):
            tracker.offer(doc_id, score, self.node_id)
        items = tuple(tracker.items())

        # Fig. 1 step 3: decrement TTL.
        ttl = message.ttl - 1
        neighbors = self.neighbors()
        if ttl <= 0 or not neighbors:
            # Fig. 1 steps 4b/5b: discard and notify the source by backtracking.
            self._respond(src, QueryResponse(query_id, items))
            return

        # Fig. 1 steps 4a/5a: score unvisited neighbors, forward to the best.
        candidates = np.asarray(
            [n for n in neighbors if n not in memory], dtype=np.int64
        )
        if candidates.size == 0:
            # Footnote 9: all neighbors already involved — consider them all.
            candidates = np.asarray(neighbors, dtype=np.int64)
        query = np.asarray(message.embedding, dtype=np.float64)
        zero = np.zeros(query.shape[0])
        rows = np.stack(
            [self.neighbor_embeddings.get(int(c), zero) for c in candidates]
        )
        # A row-wise dot, as EmbeddingGuidedPolicy scores a dense cache.  A
        # BLAS `query @ row` sums in another order, and two neighbors whose
        # scores differ in the last bit could then break their tie the other
        # way: this oracle checks the walk's logic, not the summation order.
        scores = np.einsum(
            "ij,ij->i", rows, np.repeat(query[None, :], rows.shape[0], axis=0)
        )
        target = int(candidates[top_k_indices(scores, 1)[0]])
        memory.add(target)
        self._upstream.setdefault(query_id, []).append(src)
        self.send(
            target,
            QueryMessage(query_id, message.embedding, ttl, message.k, items),
        )

    def _respond(self, src: int | None, response: QueryResponse) -> None:
        if src is None:
            self.completed[response.query_id] = response.items
        else:
            self.send(src, response)

    def _backtrack(self, response: QueryResponse) -> None:
        stack = self._upstream.get(response.query_id)
        if not stack:
            # No pending forward: we are the source (or state was cleaned up).
            self.completed[response.query_id] = response.items
            return
        upstream = stack.pop()
        self._respond(upstream, response)


def event_search(
    net: DiffusionSearchNetwork,
    query_embedding: np.ndarray,
    start_node: int,
    *,
    ttl: int = 50,
    k: int = 1,
    query_id: Hashable = "query",
    latency: LatencyModel | None = None,
    seed: RngLike = None,
    max_events: int | None = None,
) -> SearchResult:
    """Run one query on ``net`` through the message protocol.

    Builds a :class:`SimNetwork` of :class:`QueryRoutingNode` actors, each
    holding only its own store and its neighbors' diffused embeddings, runs
    it to quiescence, response backtracking included, and rebuilds a
    :class:`SearchResult`.  One walk (fanout 1), as in the paper's
    evaluation.
    """
    embeddings = net.embeddings
    network = SimNetwork(net.adjacency, latency=latency, seed=seed)
    trace: list[tuple[Hashable, int]] = []
    for node_id in range(net.n_nodes):
        neighbor_embeddings = {
            int(v): embeddings[int(v)] for v in net.adjacency.neighbors(node_id)
        }
        store = net.stores.get(node_id) or DocumentStore(net.dim)
        network.attach(
            QueryRoutingNode(node_id, store, neighbor_embeddings, trace=trace)
        )
    network.start()
    source = network.actor(start_node)
    source.initiate(
        QueryMessage(query_id, np.asarray(query_embedding, float), ttl, k)
    )
    network.run(max_events=max_events)

    result = SearchResult(
        query_id=query_id,
        start_node=int(start_node),
        tracker=_tracker(k, source.completed.get(query_id, ())),
        visits=[(hop, node) for hop, (_, node) in enumerate(trace)],
        messages=network.stats.messages,
    )
    # First-discovery hops from the visit order.
    for hop, (_, node) in enumerate(trace):
        store = net.stores.get(node)
        if store is None:
            continue
        for doc_id, _ in store.top_k(query_embedding, k):
            result.discovered_at.setdefault(doc_id, hop)
    return result
