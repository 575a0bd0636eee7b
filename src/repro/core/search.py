"""High-level facade: a searchable decentralized network in one object.

Typical use (the full pipeline of paper §IV)::

    net = DiffusionSearchNetwork(graph, dim=300, alpha=0.5)
    net.place_document("doc-1", embedding, node=42)
    net.diffuse()                      # PPR warm-up (Fig. 2 lines 3-6)
    result = net.search(query_embedding, start_node=7, ttl=50)
    result.best                        # best document found by the walk

Dynamic content: the network tracks which nodes' personalization rows
changed since the last warm-up (``place_document``/``remove_document``
mark their node dirty).  The ``sparse`` backend, the one built-in that
patches, then refreshes the cached embeddings from the row-block delta
instead of recomputing the whole network — work proportional to the
change; with ``epsilon=0.0`` the patch is exact to within the push
tolerance::

    exact = SparseDiffusionBackend(epsilon=0.0)
    net.diffuse(method=exact)
    net.place_document("doc-2", other_embedding, node=9)
    outcome = net.diffuse(method=exact)   # incremental patch, not a redo
    assert outcome.incremental

Large networks: ``net.diffuse(method="sparse")`` runs the sparse-first
pipeline — personalization assembled from occupied rows only, pruned power
iteration, and an embedding cache of support rows
(:class:`~repro.gsp.filters.RowBlock`) that the walk policy scores directly
— so precompute memory and time scale with the diffused support rather than
``n_nodes × dim``.  ``net.embeddings`` still returns the dense view (built
lazily on first access).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx
import numpy as np

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
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock
from repro.gsp.normalization import NormalizationKind
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector
from repro.runtime.network import LatencyModel
from repro.utils.rng import RngLike


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
        # standard backends, a RowBlock for the sparse backend.
        # `.embeddings` densifies lazily (memoized in _embeddings_dense).
        self._embeddings: np.ndarray | RowBlock | None = None
        self._embeddings_dense: np.ndarray | None = None
        self._last_outcome: DiffusionOutcome | None = None
        self._stale = True
        # Incremental-refresh state: the personalization the cached
        # embeddings were diffused from, as a RowBlock of occupied rows
        # whatever the backend, and the nodes whose rows changed since (the
        # sparse delta support set).
        self._diffused_personalization: RowBlock | None = None
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
        # Both rows in the facade dtype, so a row back at its diffused state
        # reads exactly 0 at float32 too.
        current = self._personalization_rows([node])[0]
        return float(np.abs(current - baseline[node]).sum())

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

    def personalization_sparse(self) -> RowBlock:
        """The current ``E0`` as a :class:`RowBlock` of occupied rows only.

        Most nodes hold no documents, so their personalization rows are
        zero; this builds ``E0`` with one row per document-holding node —
        ``O(holders × dim)`` memory regardless of network size.  The entry
        point of the sparse diffusion pipeline (``method="sparse"``).
        """
        occupied = sorted(
            node for node, store in self.stores.items() if len(store)
        )
        return RowBlock(occupied, self._personalization_rows(occupied), self.n_nodes)

    def _personalization_rows(self, nodes: list[int] | np.ndarray) -> np.ndarray:
        """The current personalization rows of ``nodes``, in the facade dtype."""
        rows = np.zeros((len(nodes), self.dim), dtype=self.dtype)
        for i, node in enumerate(nodes):
            store = self.stores.get(node)
            if store is not None and len(store):
                rows[i] = personalization_vector(store.matrix(), self.weighting)
        return rows

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
        incremental-capable backend (``method="sparse"``) and a previous
        diffusion to patch — and falls back to a full cold-start run
        otherwise.  ``True`` forces the incremental path (raising when it
        is unavailable); ``False`` forces a full re-diffusion.

        An incremental outcome with ``converged=False`` (the sweep cap hit
        before the delta drained) is returned but *not* committed: the
        cached embeddings, baseline, and staleness are left untouched so a
        retry with a larger budget re-diffuses the full delta.

        The diffused personalization is kept as a
        :class:`~repro.gsp.filters.RowBlock` of the occupied rows whatever
        the backend (a dense backend receives its ``toarray()``, the
        values and dtype of :meth:`personalization`).  The cache is kept as
        the backend returns it: a dense array for ``power``/``solve``/
        ``async``, a block for ``sparse`` (``.embeddings`` densifies it
        lazily).  An incremental refresh adds the push estimate of the
        block delta into the cache block in place, once the push has
        converged, and writes the dirty rows into the baseline block in
        place; a policy built before the patch scores the patched rows.
        """
        backend = resolve_backend(method)
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
                    "incremental refresh; use method='sparse'"
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
            dirty = np.asarray(sorted(self._dirty_nodes), dtype=np.int64)
            current = self._personalization_rows(dirty)
            delta = RowBlock(dirty, current - baseline[dirty], self.n_nodes)
            outcome = backend.refresh(
                self.adjacency,
                self._embeddings,
                delta,
                alpha=self.alpha,
                normalization=self.normalization,
                tol=tol,
                max_iterations=max_iterations,
            )
        else:
            personalization = self.personalization_sparse()
            outcome = backend.diffuse(
                self.adjacency,
                personalization if backend.accepts_sparse
                else personalization.toarray(),
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
            # Commit-side baseline: exact row *replacement*, never baseline +
            # delta — floating point ``b + (c − b) ≠ c`` would poison every
            # later delta.
            self._diffused_personalization.put(dirty, current)
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

        After a sparse diffusion the cache is a
        :class:`~repro.gsp.filters.RowBlock`; this property densifies it
        lazily (memoized until the next diffusion) so dense consumers keep
        working unchanged.  :meth:`default_policy` scores the block's rows
        directly and never triggers the densification; the block itself is
        ``last_diffusion.embeddings``.
        """
        cache = self._cached_embeddings()
        if isinstance(cache, RowBlock):
            if self._embeddings_dense is None:
                self._embeddings_dense = cache.toarray()
            return self._embeddings_dense
        return cache

    def _cached_embeddings(self) -> np.ndarray | RowBlock:
        if self._embeddings is None:
            raise RuntimeError(
                "no diffusion has been run; call .diffuse() after placing documents"
            )
        return self._embeddings

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
        # The nonzero entries in node order, as a CSR copy stores them.
        return float(np.abs(base.tocsr().data).sum())

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
        only when the backend reports its ``residual_l1`` (``sparse``
        does); ``inf`` while no converged diffusion baseline exists.
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

        A block cache (sparse diffusion) is handed to the policy as is:
        walks score candidate rows straight from the block, so the dense
        ``(n_nodes, dim)`` view is never materialized.  A patch writes
        into the block, so the policy scores the latest rows after a later
        patch, like a policy built after it.
        """
        return EmbeddingGuidedPolicy(self._cached_embeddings())

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

        This is the library's only query walk.  The message-level Fig. 1
        protocol, with per-node memory and response backtracking on the
        event-driven network, is kept in ``tests/protocol_reference.py`` as
        the oracle it must match.
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
