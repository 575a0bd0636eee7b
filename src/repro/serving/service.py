"""The online query service: admission → micro-batch → deadline-aware walks.

:class:`QueryService` turns the repository's one-shot search primitives into
a long-lived serving loop over the discrete-event clock:

1. **Admission** (:mod:`repro.serving.admission`) — each arriving query is
   admitted or shed immediately with an explicit reason; the ingress queue
   never grows without bound unless explicitly configured to.
2. **Micro-batching** (:mod:`repro.serving.scheduler`) — admitted queries
   coalesce into engine batches under the dual trigger (``max_batch`` items
   or ``max_wait`` elapsed), then execute as one call of the lockstep
   :func:`~repro.core.batch.run_queries`, which runs the resilient walk
   itself when there are faults, a quarantine or a resilience config.
3. **Deadline budgets** — a simple :class:`CostModel` prices batch setup and
   per-hop time; a query whose deadline precedes its walk start is shed
   (``REJECTED``/``"deadline"``), and one that can start but not finish gets
   a hop budget so the walk returns best-so-far partials (``DEGRADED`` with
   ``deadline_hit``) instead of blowing its deadline or silently dropping.
4. **Health-aware routing** — an optional
   :class:`~repro.serving.breaker.PeerCircuitBreaker` folds each walk's
   per-peer failure observations into a quarantine set that subsequent
   walks route around; a ``static_quarantine`` supports oracle baselines.
5. **Staleness-aware refresh** — one decider, the SLO-driven
   :class:`~repro.churn.RefreshScheduler` that
   ``StalenessConfig(slo=RefreshSLO(...))`` builds: each batch consults the
   refreshable part of the underlying
   :class:`~repro.core.search.DiffusionSearchNetwork`'s staleness bound and
   picks defer / incremental / full by fitted cost within a banked
   edge-operation budget; a patch runs in-line (its cost charged to the
   batch) through the ``sparse`` backend's block refresh.  Without an SLO
   the service never refreshes: a stale network is served stale, marked
   ``stale_served``.  Every response is stamped with the whole bound it
   was served under (``QueryResponse.staleness_bound``).

Every submitted query resolves to exactly one :class:`QueryResponse` with
outcome ``OK``, ``DEGRADED``, or ``REJECTED`` — never a silent drop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.churn.scheduler import RefreshCostModel, RefreshScheduler, RefreshSLO
from repro.core.backends import DiffusionBackend
from repro.core.batch import run_queries
from repro.core.diffusion import resolve_backend
from repro.core.engine import ResilienceConfig, SearchResult, WalkConfig

# Not called here since batches run the resilient walk in `run_queries`.
# perfbench/layers.py patches `run_query` on this module by name and its
# tracer reads `vars(module)["run_query"]`, so the traced benchmark fails
# without it; it goes when those shims do.
from repro.core.engine import run_query  # noqa: F401
from repro.core.forwarding import ForwardingPolicy
from repro.graphs.adjacency import CompressedAdjacency
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.events import EventQueue
from repro.runtime.faults import FaultInjector
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.breaker import PeerCircuitBreaker
from repro.serving.metrics import ServiceMetrics
from repro.serving.scheduler import MicroBatchConfig, MicroBatcher
from repro.utils import (
    check_non_negative,
    check_peer_ids,
    check_positive,
    check_positive_int,
)
from repro.utils.rng import RngLike, derive_rng

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.search import DiffusionSearchNetwork

__all__ = [
    "CostModel",
    "Outcome",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "RefreshSLO",
    "ServingConfig",
    "StalenessConfig",
]


class Outcome(str, Enum):
    """Per-query disposition: the service's explicit result taxonomy."""

    OK = "ok"
    DEGRADED = "degraded"
    REJECTED = "rejected"


@dataclass(frozen=True)
class CostModel:
    """Prices service work in simulation time units (drives deadlines).

    ``walk_start = flush_time + refresh_cost + batch_overhead +
    per_query × batch_size``; each walk then advances ``hop_cost`` per hop.
    """

    batch_overhead: float = 0.5
    per_query: float = 0.05
    hop_cost: float = 1.0
    refresh_overhead: float = 1.0
    refresh_per_dirty: float = 0.25
    refresh_per_node: float = 0.01

    def __post_init__(self) -> None:
        check_non_negative(self.batch_overhead, "batch_overhead")
        check_non_negative(self.per_query, "per_query")
        check_positive(self.hop_cost, "hop_cost")
        check_non_negative(self.refresh_overhead, "refresh_overhead")
        check_non_negative(self.refresh_per_dirty, "refresh_per_dirty")
        check_non_negative(self.refresh_per_node, "refresh_per_node")


@dataclass(frozen=True)
class StalenessConfig:
    """When and how to patch a stale diffusion before serving a batch.

    ``slo`` opts in to refreshing.  Per batch its
    :class:`repro.churn.RefreshScheduler` compares the refreshable part of
    the network's staleness bound
    (:meth:`repro.churn.StalenessTracker.refreshable`) to
    ``slo.staleness_target``; on a breach the cheaper of incremental/full
    runs (a full re-baseline once the carried patch residual alone
    breaches) when affordable within the banked edge-operation budget —
    otherwise the batch is served stale and the breach counted
    (``ServiceMetrics.slo_violations``).  With ``slo=None`` the service
    makes no refresh: a stale network is served stale, each such batch
    counted in ``ServiceMetrics.deferred_refreshes``.

    ``method`` must name (or be) a backend that ``supports_incremental``
    (built-in: ``sparse``): every refresh the service makes goes through
    it, and a backend that cannot patch would fail each one and serve
    stale forever.
    """

    method: str | DiffusionBackend = "sparse"
    tol: float = 1e-8
    max_iterations: int = 10_000
    slo: RefreshSLO | None = None

    def __post_init__(self) -> None:
        check_positive(self.tol, "tol")
        check_positive_int(self.max_iterations, "max_iterations")
        backend = resolve_backend(self.method)
        if not backend.supports_incremental:
            raise ValueError(
                f"staleness method {backend.name!r} cannot patch a diffusion "
                "(supports_incremental is False); use 'sparse'"
            )


@dataclass(frozen=True)
class ServingConfig:
    """Everything the service needs beyond the data plane objects."""

    walk: WalkConfig = field(default_factory=WalkConfig)
    batch: MicroBatchConfig = field(default_factory=MicroBatchConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    cost: CostModel = field(default_factory=CostModel)
    resilience: ResilienceConfig | None = None
    staleness: StalenessConfig = field(default_factory=StalenessConfig)


@dataclass
class QueryRequest:
    """One query as submitted to the service."""

    query_id: Hashable
    embedding: np.ndarray
    start_node: int
    arrival: float = 0.0
    deadline: float = math.inf


@dataclass
class QueryResponse:
    """The service's answer for one submitted query (exactly one per query)."""

    query_id: Hashable
    outcome: Outcome
    reason: str | None
    result: SearchResult | None
    arrival: float
    started: float | None
    completed: float
    stale_served: bool = False
    # Upper bound on the L1 error of the diffusion scores this query was
    # routed with (0.0 when the service has no network attached; may be
    # ``inf`` when no diffusion baseline exists).  Stamped so downstream
    # consumers can judge a stale-served answer instead of trusting it
    # blindly.
    staleness_bound: float = 0.0

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (meaningless for rejections)."""
        return self.completed - self.arrival


class QueryService:
    """Long-lived query serving over the walk engines (see module docstring).

    Parameters
    ----------
    adjacency, stores, policy:
        The data plane: overlay topology, per-node document stores, and the
        forwarding policy over the diffused embeddings.
    config:
        All serving knobs (:class:`ServingConfig`).
    queue:
        The shared :class:`~repro.runtime.events.EventQueue`; supply the
        simulation's queue so load generators and churn events share the
        clock.  A private queue is created when omitted.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector`; with one,
        each batch runs the resilient walk (reroutes, retries, lost-walker
        accounting), each walk drawing drops from its own stream.
    breaker:
        Optional :class:`~repro.serving.breaker.PeerCircuitBreaker`; it
        observes every walk and its OPEN peers are excluded from
        subsequent walks.
    static_quarantine:
        Peers to exclude from every walk regardless of the breaker (oracle
        baselines, operator denylists).  An id outside the overlay raises
        ``ValueError`` here.
    network:
        The owning :class:`~repro.core.search.DiffusionSearchNetwork`, if
        any — enables the staleness-aware refresh path.  ``stores`` and
        ``policy`` should come from the same network.
    on_response:
        Callback invoked with each :class:`QueryResponse` as it resolves
        (rejections resolve at submit time, completions at walk end).
    """

    def __init__(
        self,
        adjacency: CompressedAdjacency,
        stores: Mapping[int, DocumentStore],
        policy: ForwardingPolicy,
        *,
        config: ServingConfig | None = None,
        queue: EventQueue | None = None,
        faults: FaultInjector | None = None,
        breaker: PeerCircuitBreaker | None = None,
        static_quarantine: Iterable[int] | None = None,
        network: "DiffusionSearchNetwork | None" = None,
        on_response: Callable[[QueryResponse], None] | None = None,
        seed: RngLike = None,
    ) -> None:
        self.adjacency = adjacency
        self.stores = stores
        self.policy = policy
        self.config = config or ServingConfig()
        # Not `queue or EventQueue()`: an empty EventQueue is falsy (len 0),
        # which would silently discard the caller's shared clock.
        self.queue = EventQueue() if queue is None else queue
        self.faults = faults
        self.breaker = breaker
        # Checked here, not per walk: a bad id would otherwise fail every
        # batch inside `drain()`.
        self.static_quarantine = (
            frozenset(check_peer_ids(
                static_quarantine, adjacency.n_nodes, "static_quarantine"
            ))
            if static_quarantine is not None
            else frozenset()
        )
        self.network = network
        self.on_response = on_response
        self.metrics = ServiceMetrics()
        self.responses: list[QueryResponse] = []
        self.admission = AdmissionController(self.config.admission)
        self.batcher: MicroBatcher[QueryRequest] = MicroBatcher(
            self.queue, self._on_flush, self.config.batch
        )
        self._backlog: deque[QueryRequest] = deque()
        self._in_flight = 0
        self._busy = False
        self._batch_counter = 0
        self._serving_stale = False
        self._staleness_bound = 0.0
        self._seed = seed
        # SLO-driven refresh scheduling (repro.churn): built only when the
        # config opts in AND a network is attached — the scheduler needs
        # the network's staleness bound to decide anything.
        self.refresh_scheduler: RefreshScheduler | None = None
        slo = self.config.staleness.slo
        if slo is not None and network is not None:
            model = RefreshCostModel(
                nnz=2 * network.adjacency.n_edges,
                alpha=network.alpha,
                tol=self.config.staleness.tol,
            )
            # Seed the fit from the warm-up diffusion when one exists: its
            # cost anchors the full price, and cost ÷ signal mass anchors
            # the incremental rate — without this the analytic prior
            # overprices small deltas until the first observed run.
            warmup = network.last_diffusion
            if warmup is not None and warmup.converged and not warmup.incremental:
                model.observe(
                    "full", network.diffused_signal_mass(), warmup.operations
                )
            self.refresh_scheduler = RefreshScheduler(slo, model)

    @classmethod
    def from_network(
        cls,
        network: "DiffusionSearchNetwork",
        **kwargs: object,
    ) -> "QueryService":
        """Build a service over a diffused search network's data plane."""
        return cls(
            network.adjacency,
            network.stores,
            network.default_policy(),
            network=network,
            **kwargs,  # type: ignore[arg-type]
        )

    # ---------------------------------------------------------------- ingress

    @property
    def depth(self) -> int:
        """Queries currently inside the service (batcher + backlog + running)."""
        return len(self.batcher) + len(self._backlog) + self._in_flight

    def submit(self, request: QueryRequest) -> QueryResponse | None:
        """Offer one query; returns the rejection response, or ``None``.

        Call from an event action (or before starting the clock): the
        arrival timestamp is taken from ``queue.now``.  An admitted query's
        response arrives later via :attr:`responses` / ``on_response``.
        A start node outside the overlay, or (when a network is attached) an
        embedding that is not a finite vector of the network's dimension,
        raises ``ValueError`` here, before the query is counted, so it
        cannot fail the batch it would join.
        """
        if not 0 <= request.start_node < self.adjacency.n_nodes:
            raise ValueError(f"start_node {request.start_node} out of range")
        if self.network is not None:
            embedding = np.asarray(request.embedding, dtype=np.float64)
            if embedding.shape != (self.network.dim,):
                raise ValueError(
                    f"query embedding has shape {embedding.shape}, "
                    f"expected ({self.network.dim},)"
                )
            if not np.isfinite(embedding).all():
                raise ValueError("query embedding has non-finite entries")
        now = self.queue.now
        request.arrival = now
        self.metrics.record_submitted()
        reason = self.admission.admit(now, self.depth)
        if reason is None and request.deadline <= now:
            reason = "deadline"  # dead on arrival; don't waste a slot
        if reason is not None:
            response = QueryResponse(
                query_id=request.query_id,
                outcome=Outcome.REJECTED,
                reason=reason,
                result=None,
                arrival=now,
                started=None,
                completed=now,
            )
            self._resolve(response)
            return response
        self.batcher.add(request)
        return None

    def drain(self) -> None:
        """Run the clock until every admitted query resolves.

        No eager flush: pending items always have an armed window timer, so
        batches form at their scheduled times, not at drain time.
        """
        while True:
            while self.queue.step():
                pass
            if len(self.batcher):
                self.batcher.flush()
                continue
            return

    # ------------------------------------------------------------- batch path

    def _on_flush(self, batch: list[QueryRequest]) -> None:
        if self._busy:
            self._backlog.extend(batch)
            return
        self._run_batch(batch)

    def _run_batch(self, batch: list[QueryRequest]) -> None:
        cost = self.config.cost
        self._in_flight += len(batch)
        self.metrics.record_batch(len(batch))
        refresh_cost = self._maybe_refresh()
        walk_start = (
            self.queue.now
            + refresh_cost
            + cost.batch_overhead
            + cost.per_query * len(batch)
        )

        # Shed queries that cannot even start before their deadline.
        runnable: list[QueryRequest] = []
        for request in batch:
            if request.deadline <= walk_start:
                self._in_flight -= 1
                self._resolve(
                    QueryResponse(
                        query_id=request.query_id,
                        outcome=Outcome.REJECTED,
                        reason="deadline",
                        result=None,
                        arrival=request.arrival,
                        started=None,
                        completed=self.queue.now,
                    )
                )
            else:
                runnable.append(request)
        if not runnable:
            self._finish_batch(self.queue.now)
            return

        # Deadline → hop budget: hop h completes at walk_start + h·hop_cost.
        ttl = self.config.walk.ttl
        budgets: list[int] = []
        any_finite = False
        for request in runnable:
            if math.isinf(request.deadline):
                budgets.append(ttl)
            else:
                any_finite = True
                slack = request.deadline - walk_start
                budgets.append(max(1, min(ttl, math.ceil(slack / cost.hop_cost))))

        results = self._execute(runnable, budgets if any_finite else None, walk_start)

        busy_until = walk_start
        for request, result in zip(runnable, results):
            completed = walk_start + result.hops_used * cost.hop_cost
            busy_until = max(busy_until, completed)
            outcome = Outcome.DEGRADED if result.degraded else Outcome.OK
            reason = None
            if result.degraded:
                reason = "deadline" if result.deadline_hit else "faults"
            self._in_flight -= 1
            self._resolve(
                QueryResponse(
                    query_id=request.query_id,
                    outcome=outcome,
                    reason=reason,
                    result=result,
                    arrival=request.arrival,
                    started=walk_start,
                    completed=completed,
                    stale_served=self._serving_stale,
                    staleness_bound=self._staleness_bound,
                )
            )
        self._finish_batch(busy_until)

    def _execute(
        self,
        batch: list[QueryRequest],
        budgets: list[int] | None,
        walk_start: float,
    ) -> list[SearchResult]:
        quarantine: frozenset[int] = self.static_quarantine
        if self.breaker is not None:
            quarantine = quarantine | self.breaker.quarantined(walk_start)
        seed = derive_rng(self._seed, "batch", self._batch_counter)
        self._batch_counter += 1
        # One lockstep call per batch.  With no faults, quarantine or
        # resilience config and no finite deadline this is bit-identical to
        # a direct run_queries call, and with them to the same batch driven
        # through per-query run_query calls — both pinned by tests.
        results = run_queries(
            self.adjacency,
            self.stores,
            self.policy,
            np.stack([np.asarray(r.embedding, dtype=np.float64) for r in batch]),
            [r.start_node for r in batch],
            self.config.walk,
            query_ids=[r.query_id for r in batch],
            seed=seed,
            hop_budgets=budgets,
            faults=self.faults,
            resilience=self.config.resilience,
            quarantine=quarantine or None,
        )
        if self.breaker is not None:
            for result in results:
                self.breaker.observe(result, walk_start)
        return results

    def _finish_batch(self, busy_until: float) -> None:
        """Hold the service busy until the batch completes, then drain."""
        self._busy = True
        self.queue.schedule_at(max(busy_until, self.queue.now), self._on_complete)

    def _on_complete(self) -> None:
        self._busy = False
        if self._backlog:
            take = min(len(self._backlog), self.config.batch.max_batch)
            batch = [self._backlog.popleft() for _ in range(take)]
            self._run_batch(batch)

    # -------------------------------------------------------------- staleness

    def _maybe_refresh(self) -> float:
        """One refresh-scheduler tick: patch a stale diffusion, or serve stale.

        Returns the simulated time cost charged to the current batch and
        updates :attr:`_serving_stale` and :attr:`_staleness_bound` (both
        stamped onto the batch's responses).  The scheduler sees the
        refreshable part of the network's staleness bound (dirty mass +
        patch residual beyond the full run's floor, an O(1) read) rather
        than a node count, prices incremental vs full with its fitted cost
        model, and spends a banked edge-operation budget.  Every batch is
        stamped with the whole bound (floor + patch residual + pending).
        Degradation is explicit: a deferral over the target serves stale
        and counts an SLO violation.  Without a scheduler (no SLO) a stale
        network is served stale.
        """
        network = self.network
        scheduler = self.refresh_scheduler
        if network is None:
            self._serving_stale = False
            self._staleness_bound = 0.0
            return 0.0
        self._serving_stale = network.is_stale
        self._staleness_bound = network.staleness_bound()
        if scheduler is None:
            if network.is_stale:
                self.metrics.deferred_refreshes += 1
            return 0.0
        staleness = self.config.staleness
        cost = self.config.cost
        scheduler.tick()
        decision = scheduler.decide(
            network.staleness.refreshable(), network.dirty_mass
        )
        if decision.action == "defer":
            if network.is_stale and not decision.within_slo:
                self.metrics.deferred_refreshes += 1
                self.metrics.slo_violations += 1
            return 0.0
        dirty = len(network.dirty_nodes)
        dirty_mass = network.dirty_mass
        try:
            outcome = network.diffuse(
                method=staleness.method,
                tol=staleness.tol,
                max_iterations=staleness.max_iterations,
                incremental=decision.action == "incremental",
            )
        except ValueError:
            # Incremental chosen but no baseline survived (e.g. a fault
            # path cleared it between decide and diffuse): serve stale now;
            # the next tick's decision sees bound=∞ and schedules a full.
            self.metrics.deferred_refreshes += 1
            self._serving_stale = True
            self._staleness_bound = network.staleness_bound()
            return 0.0
        if not outcome.converged:
            self.metrics.failed_refreshes += 1
            self._serving_stale = True
            self._staleness_bound = network.staleness_bound()
            return 0.0
        scheduler.commit(decision, outcome.operations)
        # Feed the fit with what the run actually diffused: the pending L1
        # mass for an incremental patch, the whole signal's mass for a full
        # run (which also re-anchors the incremental rate if unseeded).
        scheduler.cost_model.observe(
            decision.action,
            dirty_mass
            if decision.action == "incremental"
            else network.diffused_signal_mass(),
            outcome.operations,
        )
        self.metrics.refreshes += 1
        if decision.action == "full":
            self.metrics.full_refreshes += 1
        self._serving_stale = False
        self._staleness_bound = network.staleness_bound()
        self.policy = network.default_policy()
        if decision.action == "full":
            return cost.refresh_overhead + cost.refresh_per_node * network.n_nodes
        return cost.refresh_overhead + cost.refresh_per_dirty * dirty

    # ------------------------------------------------------------------ misc

    def _resolve(self, response: QueryResponse) -> None:
        self.metrics.record_response(response)
        self.responses.append(response)
        if self.on_response is not None:
            self.on_response(response)
