"""High-level facade: a searchable decentralized network in one object.

Typical use (the full pipeline of paper §IV)::

    net = DiffusionSearchNetwork(graph, dim=300, alpha=0.5)
    net.place_document("doc-1", embedding, node=42)
    net.diffuse()                      # PPR warm-up (Fig. 2 lines 3-6)
    result = net.search(query_embedding, start_node=7, ttl=50)
    result.best                        # best document found by the walk

Dynamic content: the network tracks which nodes' personalization rows
changed since the last warm-up (``place_document``/``remove_document``
mark their node dirty).  With an incremental-capable backend the next
``diffuse(method="push")`` patches the cached embeddings from the sparse
delta instead of recomputing the whole network — work proportional to the
change, exact to within the push tolerance::

    net.place_document("doc-2", other_embedding, node=9)
    outcome = net.diffuse(method="push")   # incremental patch, not a redo
    assert outcome.incremental

Large networks: ``net.diffuse(method="sparse")`` runs the sparse-first
pipeline — personalization assembled from occupied rows only, pruned CSR
power iteration, CSR embedding cache consumed directly by the walk policies
— so precompute memory and time scale with the diffused support rather than
``n_nodes × dim``.  ``net.embeddings`` still returns the dense view (built
lazily on first access); ``net.diffuse(method="sparse")`` after further
placements patches the CSR cache incrementally, like ``push`` does for the
dense one.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.churn.staleness import StalenessTracker
from repro.core.backends import DiffusionBackend
from repro.core.diffusion import DiffusionOutcome, resolve_backend
from repro.core.engine import (
    ResilienceConfig,
    SearchResult,
    WalkConfig,
    run_query,
)
from repro.core.forwarding import EmbeddingGuidedPolicy, ForwardingPolicy
from repro.core.personalization import (
    PersonalizationWeighting,
    personalization_matrix,
    personalization_vector,
)
from repro.core.protocol import QueryMessage, QueryRoutingNode
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import rows_to_csr
from repro.gsp.normalization import NormalizationKind
from repro.retrieval.topk import TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector
from repro.runtime.network import LatencyModel, SimNetwork
from repro.utils.rng import RngLike


def _drop_rows(matrix: sp.csr_matrix, nodes: np.ndarray) -> sp.csr_matrix:
    """Zero out the listed rows of a CSR matrix without densifying."""
    n, dim = matrix.shape
    lens = np.diff(matrix.indptr)
    keep_row = np.ones(n, dtype=bool)
    keep_row[nodes] = False
    keep_entry = np.repeat(keep_row, lens)
    indptr = np.concatenate(([0], np.cumsum(np.where(keep_row, lens, 0))))
    return sp.csr_matrix(
        (matrix.data[keep_entry], matrix.indices[keep_entry], indptr),
        shape=(n, dim),
    )


class DiffusionSearchNetwork:
    """A P2P network with per-node document collections and PPR diffusion.

    Parameters
    ----------
    topology:
        The P2P graph (``networkx.Graph`` or :class:`CompressedAdjacency`);
        nodes are addressed by internal ids ``0..n-1``.
    dim:
        Embedding dimensionality shared by documents and queries.
    alpha:
        PPR teleport probability (paper: 0.1 heavy / 0.5 moderate / 0.9 light
        diffusion).
    weighting:
        Personalization weighting (paper uses ``"sum"``; see
        :mod:`repro.core.personalization` for the ablation variants).
    dtype:
        Precision of the personalization pipeline (``float64`` default).
        ``float32`` halves the memory of the E0 matrices and, combined with
        a float32 backend (``SparseDiffusionBackend(dtype=np.float32)``),
        keeps the whole diffuse-and-cache path in single precision at a
        bounded accuracy cost (overlap@100 ≥ 0.98 on the benchmark graphs).
    """

    def __init__(
        self,
        topology: CompressedAdjacency | nx.Graph,
        dim: int,
        *,
        alpha: float = 0.5,
        normalization: NormalizationKind = "column",
        weighting: PersonalizationWeighting = "sum",
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if isinstance(topology, nx.Graph):
            topology = CompressedAdjacency.from_networkx(topology)
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.adjacency = topology
        self.dim = int(dim)
        self.alpha = float(alpha)
        self.dtype = dtype
        self.normalization: NormalizationKind = normalization
        self.weighting: PersonalizationWeighting = weighting
        self.stores: dict[int, DocumentStore] = {}
        self._doc_locations: dict[Hashable, int] = {}
        # The raw cache from the last diffusion: a dense array for the
        # standard backends, a scipy CSR matrix for the sparse backend.
        # `.embeddings` densifies lazily (memoized in _embeddings_dense).
        self._embeddings: np.ndarray | sp.spmatrix | None = None
        self._embeddings_dense: np.ndarray | None = None
        self._last_outcome: DiffusionOutcome | None = None
        self._stale = True
        # Incremental-refresh state: the personalization matrix the cached
        # embeddings were diffused from (dense or CSR, matching the backend
        # that produced it), and the nodes whose rows changed since (the
        # sparse delta support set).
        self._diffused_personalization: np.ndarray | sp.spmatrix | None = None
        self._dirty_nodes: set[int] = set()
        # The one residual ledger: the full run's error floor, the patches'
        # summed residual and the coalesced per-node pending L1 mass — the
        # cheap upper bound on the cached embeddings' error that SLO-driven
        # refresh scheduling acts on (see repro.churn).
        self.staleness = StalenessTracker()

    # ------------------------------------------------------------ documents

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n_nodes

    @property
    def n_documents(self) -> int:
        return len(self._doc_locations)

    def place_document(self, doc_id: Hashable, embedding: np.ndarray, node: int) -> None:
        """Store a document at ``node`` (marks the diffusion stale)."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        if doc_id in self._doc_locations:
            raise ValueError(f"document {doc_id!r} is already placed; remove it first")
        store = self.stores.get(node)
        if store is None:
            store = self.stores[node] = DocumentStore(self.dim)
        store.add(doc_id, embedding)
        self._doc_locations[doc_id] = node
        self._mark_dirty(node)

    def place_documents(
        self, placements: Iterable[tuple[Hashable, np.ndarray, int]]
    ) -> None:
        """Place many ``(doc_id, embedding, node)`` triples."""
        for doc_id, embedding, node in placements:
            self.place_document(doc_id, embedding, node)

    def remove_document(self, doc_id: Hashable) -> None:
        """Remove a document from wherever it is stored."""
        node = self._doc_locations.pop(doc_id)
        self.stores[node].remove(doc_id)
        if len(self.stores[node]) == 0:
            del self.stores[node]
        self._mark_dirty(node)

    def clear_documents(self) -> None:
        """Drop every document (e.g. between experiment iterations)."""
        occupied = list(self.stores)
        # Clear first, mark after: the pending-delta computation inside
        # _mark_dirty reads the *current* store state, which here is empty.
        self.stores.clear()
        self._doc_locations.clear()
        for node in occupied:
            self._mark_dirty(node)
        self._stale = True

    def _mark_dirty(self, node: int) -> None:
        """Record that ``node``'s personalization row changed.

        Alongside the boolean dirty set, the staleness tracker receives the
        node's coalesced pending mass — ``‖current row − diffused row‖₁``,
        overwritten on every mark, so N churn events on one node cost one
        tracker entry and contribute their *net* delta to the bound.
        """
        node = int(node)
        self._dirty_nodes.add(node)
        self._stale = True
        if self._diffused_personalization is not None:
            self.staleness.set_pending(node, self._pending_delta_l1(node))

    def _pending_delta_l1(self, node: int) -> float:
        """L1 distance of ``node``'s personalization row from the baseline."""
        baseline = self._diffused_personalization
        if baseline is None:
            return 0.0
        if sp.issparse(baseline):
            base_row = np.asarray(baseline.getrow(node).todense()).ravel()
        else:
            base_row = baseline[node]
        store = self.stores.get(node)
        if store is None or len(store) == 0:
            return float(np.abs(base_row).sum())
        current = personalization_vector(store.matrix(), self.weighting)
        return float(np.abs(current - base_row).sum())

    def location_of(self, doc_id: Hashable) -> int:
        """Node currently holding ``doc_id``."""
        return self._doc_locations[doc_id]

    def documents_at(self, node: int) -> list[Hashable]:
        """Document ids stored at ``node``."""
        store = self.stores.get(node)
        return store.doc_ids if store else []

    # ------------------------------------------------------------- diffusion

    def personalization(self) -> np.ndarray:
        """The current ``E0`` matrix (one personalization row per node)."""
        matrix = personalization_matrix(
            self.stores, self.n_nodes, self.dim, self.weighting
        )
        return matrix.astype(self.dtype, copy=False)

    def personalization_sparse(self) -> sp.csr_matrix:
        """The current ``E0`` as a CSR matrix, built from occupied rows only.

        Most nodes hold no documents, so their personalization rows are
        zero; this builds ``E0`` with one stored row per document-holding
        node — ``O(holders × dim)`` memory regardless of network size.  The
        entry point of the sparse diffusion pipeline (``method="sparse"``).
        """
        occupied = sorted(
            node for node, store in self.stores.items() if len(store)
        )
        if not occupied:
            return sp.csr_matrix((self.n_nodes, self.dim), dtype=self.dtype)
        block = np.stack(
            [self._personalization_row(node) for node in occupied]
        )
        matrix = rows_to_csr(
            np.asarray(occupied, dtype=np.int64), block, self.n_nodes
        )
        return matrix

    def _personalization_row(self, node: int) -> np.ndarray:
        """``node``'s current personalization row, in the facade dtype."""
        store = self.stores.get(node)
        if store is None or len(store) == 0:
            return np.zeros(self.dim, dtype=self.dtype)
        row = personalization_vector(store.matrix(), self.weighting)
        return row.astype(self.dtype, copy=False)

    def diffuse(
        self,
        *,
        method: str | DiffusionBackend = "power",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
        latency: LatencyModel | None = None,
        seed: RngLike = None,
        incremental: bool | None = None,
    ) -> DiffusionOutcome:
        """Run (or incrementally refresh) the PPR diffusion warm-up.

        ``incremental=None`` (the default) patches the cached embeddings
        from the sparse personalization delta whenever possible — an
        incremental-capable backend (``method="push"``) and a previous
        diffusion to patch — and falls back to a full cold-start run
        otherwise.  ``True`` forces the incremental path (raising when it
        is unavailable); ``False`` forces a full re-diffusion.

        An incremental outcome with ``converged=False`` (the sweep cap hit
        before the delta drained) is returned but *not* committed: the
        cached embeddings, baseline, and staleness are left untouched so a
        retry with a larger budget re-diffuses the full delta.

        With a sparse-capable backend (``method="sparse"``) the whole path
        stays in CSR form: the personalization is assembled from occupied
        rows only, the cached embeddings are a CSR matrix (``.embeddings``
        densifies lazily; ``csr_embeddings`` exposes the raw cache), and
        incremental refreshes patch that CSR cache without densifying.
        """
        backend = resolve_backend(method)
        sparse_mode = backend.accepts_sparse
        can_refresh = (
            backend.supports_incremental
            and self._embeddings is not None
            and self._diffused_personalization is not None
        )
        if incremental is None:
            incremental = can_refresh
        elif incremental and not can_refresh:
            if not backend.supports_incremental:
                raise ValueError(
                    f"diffusion method {backend.name!r} does not support "
                    "incremental refresh; use method='push' or "
                    "method='sparse'"
                )
            raise ValueError(
                "incremental refresh needs a previous diffusion to patch; "
                "run .diffuse() once before requesting incremental=True"
            )

        if incremental:
            # Coalesced dirty-row delta: every place/remove since the last
            # refresh marked its node dirty, so one refresh per scheduling
            # window diffuses the whole window's *net* change in a single
            # sparse push — delta assembly costs O(dirty × dim), never a
            # full E0 rebuild.  Unchanged rows would difference to exact
            # zeros anyway (same floats recomputed), so the dirty-only delta
            # is bit-identical to the historical full-matrix difference.
            # Mutations must go through the facade (place_document /
            # remove_document / clear_documents) for the dirty set to be
            # complete.
            baseline = self._diffused_personalization
            cached = self._embeddings
            dirty = sorted(self._dirty_nodes)
            nodes = np.asarray(dirty, dtype=np.int64)
            block = (
                np.stack([self._personalization_row(v) for v in dirty])
                if dirty
                else np.zeros((0, self.dim), dtype=self.dtype)
            )
            if sparse_mode:
                if not sp.issparse(baseline):
                    baseline = sp.csr_matrix(baseline)
                base_block = np.asarray(baseline[nodes].todense())
                delta = rows_to_csr(nodes, block - base_block, self.n_nodes)
                # Commit-side baseline: exact row *replacement*, never
                # baseline + delta — floating point ``b + (c − b) ≠ c``
                # would poison every later delta.
                refreshed_baseline = (
                    _drop_rows(baseline, nodes)
                    + rows_to_csr(nodes, block, self.n_nodes)
                ).tocsr()
                refreshed_baseline.sort_indices()
            else:
                if sp.issparse(baseline):
                    baseline = np.asarray(baseline.todense())
                if sp.issparse(cached):
                    cached = np.asarray(cached.todense())
                delta = np.zeros_like(baseline)
                refreshed_baseline = baseline.copy()
                if dirty:
                    delta[nodes] = block - baseline[nodes]
                    refreshed_baseline[nodes] = block
            outcome = backend.refresh(
                self.adjacency,
                cached,
                delta,
                alpha=self.alpha,
                normalization=self.normalization,
                tol=tol,
                max_iterations=max_iterations,
            )
        else:
            personalization = (
                self.personalization_sparse() if sparse_mode
                else self.personalization()
            )
            outcome = backend.diffuse(
                self.adjacency,
                personalization,
                alpha=self.alpha,
                normalization=self.normalization,
                tol=tol,
                max_iterations=max_iterations,
                latency=latency,
                seed=seed,
            )
        if incremental and not outcome.converged:
            # A truncated patch must not advance the baseline: committing it
            # would mark the lost correction as applied, and no later
            # refresh could ever recover it (the next delta would be zero).
            # Leave every cache untouched — still stale — so a retry
            # re-diffuses the full delta.
            return outcome
        self._embeddings = outcome.embeddings
        self._embeddings_dense = None
        self._last_outcome = outcome
        # Only a converged run may serve as the incremental baseline: a
        # truncated full run carries residual error that a later delta patch
        # could never see, let alone repair.  Without a baseline the next
        # diffuse() falls back to a full run (seed behaviour preserved: the
        # embeddings themselves are still cached and searchable).
        if incremental:
            self._diffused_personalization = refreshed_baseline
        else:
            self._diffused_personalization = (
                personalization if outcome.converged else None
            )
        self._dirty_nodes.clear()
        self._stale = False
        # Each patch leaves its residual behind; a full run resets the
        # baseline to its own error floor.  See :meth:`staleness_bound`.
        if outcome.incremental:
            self.staleness.record_refresh(outcome.residual_l1, full=False)
        elif outcome.converged:
            self.staleness.record_refresh(outcome.residual_l1, full=True)
        else:
            # No baseline ⇒ the next delta is unknowable; the bound is ∞
            # until a converged full run re-establishes one.
            self.staleness.invalidate()
        return outcome

    @property
    def embeddings(self) -> np.ndarray:
        """Diffused node embeddings from the last :meth:`diffuse` call (dense).

        May be *stale* if documents changed since; check :attr:`is_stale`.
        (A live network is transiently stale too, until re-diffusion
        propagates the update.)

        After a sparse diffusion the cache is a CSR matrix; this property
        densifies it lazily (memoized until the next diffusion) so dense
        consumers keep working unchanged.  Hot paths that can consume CSR
        rows directly — :meth:`default_policy`, the walk engines — read
        :attr:`csr_embeddings` instead and never trigger the densification.
        """
        if self._embeddings is None:
            raise RuntimeError(
                "no diffusion has been run; call .diffuse() after placing documents"
            )
        if sp.issparse(self._embeddings):
            if self._embeddings_dense is None:
                self._embeddings_dense = np.asarray(self._embeddings.todense())
            return self._embeddings_dense
        return self._embeddings

    @property
    def csr_embeddings(self) -> sp.csr_matrix | None:
        """The CSR embedding cache from the last sparse diffusion.

        ``None`` when the last diffusion used a dense backend; treat the
        returned matrix as read-only.
        """
        return self._embeddings if sp.issparse(self._embeddings) else None

    @property
    def is_stale(self) -> bool:
        """True when documents changed after the last diffusion."""
        return self._stale

    @property
    def dirty_nodes(self) -> frozenset[int]:
        """Nodes whose personalization changed since the last diffusion.

        This is the support set of the sparse delta an incremental refresh
        would diffuse; empty right after :meth:`diffuse`.
        """
        return frozenset(self._dirty_nodes)

    def diffused_signal_mass(self) -> float:
        """L1 mass of the personalization the cached embeddings came from.

        The "how much signal does a full run diffuse" figure a
        :class:`repro.churn.RefreshCostModel` needs to convert one observed
        full-run cost into an incremental edge-ops-per-unit-mass rate.
        0.0 while no converged baseline exists.
        """
        base = self._diffused_personalization
        if base is None:
            return 0.0
        if sp.issparse(base):
            return float(np.abs(base.data).sum()) if base.nnz else 0.0
        return float(np.abs(base).sum())

    @property
    def dirty_mass(self) -> float:
        """Total pending personalization change, in L1 mass.

        The sum over dirty nodes of ``‖current row − diffused row‖₁``,
        coalesced per node (repeated churn on one node contributes its net
        delta once).  This is the quantity the refresh cost model prices an
        incremental refresh by, and the churn half of
        :meth:`staleness_bound`.
        """
        return self.staleness.dirty_mass

    def staleness_bound(self) -> float:
        """Upper bound on the cached embeddings' entrywise L1 error.

        The last full run's error floor, plus the residual every patch
        since abandoned, plus ``dirty_mass``: with column normalization the
        PPR filter satisfies ``‖H‖₁ ≤ 1``, so un-diffused personalization
        mass can only shrink on its way into the cached embeddings (see
        :class:`repro.churn.StalenessTracker` for the argument).  Sound
        only when the backends report their ``residual_l1`` (the ``push``
        and ``sparse`` backends do); ``inf`` while no converged diffusion
        baseline exists.
        O(1); computing the true error costs a full re-diffusion — the whole
        point is that SLO scheduling can consult this every tick.
        """
        return self.staleness.bound()

    @property
    def last_diffusion(self) -> DiffusionOutcome | None:
        return self._last_outcome

    # ---------------------------------------------------------------- search

    def default_policy(self) -> EmbeddingGuidedPolicy:
        """The paper's forwarding policy over the cached embeddings.

        A CSR cache (sparse diffusion) is handed to the policy as-is —
        walks score candidate rows straight from the sparse matrix, so the
        dense ``(n_nodes, dim)`` view is never materialized; the dense
        branch reuses :attr:`embeddings` (including its no-diffusion guard).
        """
        csr = self.csr_embeddings
        return EmbeddingGuidedPolicy(csr if csr is not None else self.embeddings)

    def search(
        self,
        query_embedding: np.ndarray,
        start_node: int,
        *,
        ttl: int = 50,
        fanout: int = 1,
        k: int = 1,
        policy: ForwardingPolicy | None = None,
        query_id: Hashable = None,
        seed: RngLike = None,
        faults: FaultInjector | None = None,
        resilience: ResilienceConfig | None = None,
        hop_budget: int | None = None,
        quarantine: Iterable[int] | None = None,
    ) -> SearchResult:
        """Execute one query through the walk engine's one-walk call.

        A :func:`repro.core.engine.run_query` call.  A walk costs more
        alone than in a batch, so many queries run faster as one
        :func:`repro.core.batch.run_queries` call over ``self.adjacency``,
        ``self.stores`` and ``self.default_policy()``.
        ``faults``/``resilience`` run the failure-resilient protocol:
        detected-dead peers are rerouted around, dropped messages retried,
        and a query whose walkers all die returns best-so-far results with
        ``result.degraded`` set.  Without an injector the walk is
        bit-identical to the fault-free engine.  ``hop_budget`` caps the
        walk horizon (deadline serving; a truncated walk returns partials
        with ``deadline_hit`` set) and ``quarantine`` routes around a
        circuit breaker's open peers.
        """
        config = WalkConfig(ttl=ttl, fanout=fanout, k=k)
        return run_query(
            self.adjacency,
            self.stores,
            policy or self.default_policy(),
            query_embedding,
            start_node,
            config,
            query_id=query_id,
            seed=seed,
            faults=faults,
            resilience=resilience,
            hop_budget=hop_budget,
            quarantine=quarantine,
        )

    def search_on_runtime(
        self,
        query_embedding: np.ndarray,
        start_node: int,
        *,
        ttl: int = 50,
        k: int = 1,
        query_id: Hashable = "query",
        latency: LatencyModel | None = None,
        seed: RngLike = None,
        max_events: int | None = None,
        faults: FaultInjector | None = None,
    ) -> SearchResult:
        """Execute the same query through the event-driven message protocol.

        Builds a :class:`SimNetwork` of :class:`QueryRoutingNode` actors
        (each holding only its own store and its neighbors' diffused
        embeddings), runs to quiescence including response backtracking, and
        reconstructs a :class:`SearchResult`.  Single-walk (fanout 1), as in
        the paper's evaluation.

        With a ``faults`` injector installed, messages can be dropped,
        duplicated, or delayed and peers can crash mid-walk per the
        injector's plan.  A walk that dies in flight (the query or a
        backtracking response lost) would leave the source waiting forever;
        instead the result is reconstructed from the forwarding trace as
        best-so-far partials with ``degraded=True`` — the same graceful
        degradation contract as the fast engine.
        """
        embeddings = self.embeddings
        network = SimNetwork(self.adjacency, latency=latency, seed=seed)
        if faults is not None:
            faults.install(network)
        trace: list[tuple[Hashable, int]] = []
        dim = self.dim
        for node_id in range(self.n_nodes):
            neighbor_embeddings = {
                int(v): embeddings[int(v)] for v in self.adjacency.neighbors(node_id)
            }
            store = self.stores.get(node_id) or DocumentStore(dim)
            network.attach(
                QueryRoutingNode(
                    node_id, store, neighbor_embeddings, trace=trace
                )
            )
        network.start()
        if faults is not None and network.is_down(start_node):
            return SearchResult(
                query_id=query_id,
                start_node=int(start_node),
                tracker=TopKTracker(k),
                visits=[],
                degraded=True,
                walkers_lost=1,
            )
        source = network.actor(start_node)
        assert isinstance(source, QueryRoutingNode)
        source.initiate(
            QueryMessage(query_id, np.asarray(query_embedding, float), ttl, k)
        )
        network.run(max_events=max_events)

        completed = query_id in source.completed
        items = source.completed.get(query_id, ())
        if not completed and faults is not None:
            # The walk (or its backtracking response) died in flight.
            # Rebuild best-so-far from the nodes the query provably reached.
            tracker = TopKTracker(k)
            for _, node in trace:
                store = self.stores.get(node)
                if store is None:
                    continue
                for doc_id, score in store.top_k(query_embedding, k):
                    tracker.offer(doc_id, score, node)
            items = tuple(tracker.items())
        tracker = TopKTracker.from_items(k, items)
        result = SearchResult(
            query_id=query_id,
            start_node=int(start_node),
            tracker=tracker,
            visits=[(hop, node) for hop, (_, node) in enumerate(trace)],
            messages=network.stats.messages,
            degraded=not completed and faults is not None,
            walkers_lost=int(not completed and faults is not None),
        )
        # Reconstruct first-discovery hops from the visit order.
        for hop, (_, node) in enumerate(trace):
            store = self.stores.get(node)
            if store is None:
                continue
            for doc_id, _ in store.top_k(query_embedding, k):
                result.discovered_at.setdefault(doc_id, hop)
        return result
