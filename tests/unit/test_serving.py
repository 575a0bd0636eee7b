"""Tests for the online serving layer (repro.serving).

Pins the load-bearing contracts:

* every submitted query resolves to exactly one explicit OK / DEGRADED /
  REJECTED response — never a silent drop;
* with infinite deadlines and no fault injector, service results are
  bit-identical to a direct ``run_queries`` call over the same batch;
* finite deadlines shed (can't start in time) or degrade (mid-walk budget)
  with the reason attached;
* admission control bounds the ingress queue with explicit reasons;
* the circuit breaker's state machine trips, cools down, probes, and
  recovers as configured;
* staleness handling refreshes in-line only through an SLO's refresh
  scheduler, and without one serves a stale network stale (marked).
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.churn.scheduler import RefreshCostModel
from repro.core.backends import SparseDiffusionBackend
from repro.core.batch import run_queries
from repro.core.engine import ResilienceConfig, WalkConfig
from repro.core.forwarding import PrecomputedScorePolicy
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import PersonalizedPageRank, RowBlock
from repro.gsp.normalization import transition_matrix
from repro.runtime.events import EventQueue
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    MicroBatchConfig,
    MicroBatcher,
    Outcome,
    PeerCircuitBreaker,
    QueryRequest,
    QueryService,
    RefreshSLO,
    ServiceMetrics,
    ServingConfig,
)
from repro.serving.service import CostModel, StalenessConfig
from scalar_reference import scalar_run_query


# --------------------------------------------------------------------- fixture


def make_network(n=40, dim=8, docs=10, seed=0):
    graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    net = DiffusionSearchNetwork(graph, dim=dim, alpha=0.5)
    rng = np.random.default_rng(seed)
    vectors = {}
    for d in range(docs):
        vec = rng.standard_normal(dim)
        node = int(rng.integers(n))
        net.place_document(f"doc{d}", vec, node)
        vectors[f"doc{d}"] = vec
    net.diffuse(method=SparseDiffusionBackend(epsilon=0.0))
    return net, vectors, rng


def make_service(net, *, config=None, queue=None, **kwargs):
    return QueryService.from_network(
        net, config=config or ServingConfig(), queue=queue, **kwargs
    )


# -------------------------------------------------------------------- admission


class TestAdmissionController:
    def test_admits_under_all_limits(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=4))
        assert ctl.admit(0.0, 0) is None

    def test_queue_full(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=4))
        assert ctl.admit(0.0, 4) == "queue_full"

    def test_shed_depth_before_hard_cap(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=10, shed_depth=3))
        assert ctl.admit(0.0, 2) is None
        assert ctl.admit(0.0, 3) == "queue_depth"

    def test_unbounded_configuration(self):
        ctl = AdmissionController(AdmissionConfig(max_pending=None))
        assert ctl.admit(0.0, 10**6) is None

    def test_token_bucket_throttles_sustained_rate(self):
        ctl = AdmissionController(
            AdmissionConfig(
                max_pending=None, tokens_per_time=1.0, bucket_capacity=2.0
            )
        )
        # Burst drains the bucket, then refill paces admissions.
        assert ctl.admit(0.0, 0) is None
        assert ctl.admit(0.0, 0) is None
        assert ctl.admit(0.0, 0) == "throttled"
        assert ctl.admit(1.0, 0) is None  # one token refilled
        assert ctl.admit(1.0, 0) == "throttled"

    def test_rejected_query_consumes_no_token(self):
        ctl = AdmissionController(
            AdmissionConfig(
                max_pending=1, tokens_per_time=100.0, bucket_capacity=1.0
            )
        )
        before = ctl.tokens
        assert ctl.admit(0.0, 1) == "queue_full"
        assert ctl.tokens == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_pending=0)
        with pytest.raises(TypeError):
            AdmissionConfig(max_pending=2.5)
        with pytest.raises(ValueError):
            AdmissionConfig(max_pending=4, shed_depth=5)
        with pytest.raises(ValueError):
            AdmissionConfig(tokens_per_time=-1.0)


# ---------------------------------------------------------------------- breaker


class TestPeerCircuitBreaker:
    def _breaker(self, **kwargs):
        defaults = dict(
            failure_threshold=3, window=10.0, cooldown=100.0, half_open_successes=1
        )
        defaults.update(kwargs)
        return PeerCircuitBreaker(BreakerConfig(**defaults))

    def test_trips_at_threshold(self):
        breaker = self._breaker()
        for t in (0.0, 1.0):
            breaker.record_failure(7, t)
            assert breaker.quarantined(t) == frozenset()
        breaker.record_failure(7, 2.0)
        assert breaker.quarantined(2.0) == frozenset({7})
        assert breaker.trips == 1

    def test_window_prunes_old_failures(self):
        breaker = self._breaker(window=5.0)
        breaker.record_failure(7, 0.0)
        breaker.record_failure(7, 1.0)
        # Third failure arrives after the first two expired from the window.
        breaker.record_failure(7, 20.0)
        assert breaker.quarantined(20.0) == frozenset()

    def test_cooldown_then_half_open(self):
        breaker = self._breaker(cooldown=50.0)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(3, t)
        assert breaker.state(3, 10.0) == "open"
        assert 3 in breaker.quarantined(10.0)
        # After cooldown: HALF_OPEN and *not* quarantined (probing allowed).
        assert breaker.state(3, 60.0) == "half_open"
        assert breaker.quarantined(60.0) == frozenset()

    def test_half_open_success_closes(self):
        breaker = self._breaker(cooldown=50.0, half_open_successes=2)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(3, t)
        breaker.record_success(3, 60.0)
        assert breaker.state(3, 60.0) == "half_open"  # one probe not enough
        breaker.record_success(3, 61.0)
        assert breaker.state(3, 61.0) == "closed"

    def test_half_open_failure_reopens(self):
        breaker = self._breaker(cooldown=50.0)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(3, t)
        breaker.record_failure(3, 60.0)  # failed probe
        assert breaker.state(3, 61.0) == "open"
        assert 3 in breaker.quarantined(61.0)
        assert breaker.trips == 2

    def test_success_in_closed_state_is_noop(self):
        breaker = self._breaker()
        breaker.record_success(5, 0.0)
        assert breaker.state(5, 0.0) == "closed"

    def test_success_clears_failure_window(self):
        # Failure streaks trip the breaker, not lifetime failure totals: a
        # success between failures resets the count.
        breaker = self._breaker(failure_threshold=3)
        breaker.record_failure(5, 0.0)
        breaker.record_failure(5, 1.0)
        breaker.record_success(5, 2.0)
        breaker.record_failure(5, 3.0)
        breaker.record_failure(5, 4.0)
        assert breaker.quarantined(4.0) == frozenset()
        breaker.record_failure(5, 5.0)
        assert breaker.quarantined(5.0) == frozenset({5})

    def test_observe_feeds_failures_and_successes(self):
        from repro.core.engine import SearchResult
        from repro.retrieval.topk import TopKTracker

        breaker = self._breaker(failure_threshold=2)
        result = SearchResult(
            query_id="q",
            start_node=0,
            tracker=TopKTracker(1),
            visits=[(0, 0), (1, 4)],
            failed_peers={9: 2},
        )
        breaker.observe(result, 5.0)
        assert 9 in breaker.quarantined(5.0)
        assert breaker.state(4, 5.0) == "closed"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(TypeError):
            BreakerConfig(failure_threshold=2.5)
        with pytest.raises(ValueError):
            BreakerConfig(window=0.0)


# ----------------------------------------------------------------- micro-batch


class TestMicroBatcher:
    def test_size_trigger_flushes_immediately(self):
        queue = EventQueue()
        batches = []
        batcher = MicroBatcher(
            queue, batches.append, MicroBatchConfig(max_batch=3, max_wait=10.0)
        )
        for i in range(3):
            batcher.add(i)
        assert batches == [[0, 1, 2]]
        assert batcher.flushes_by_size == 1
        assert len(queue) == 0  # timer cancelled, nothing pending

    def test_timer_trigger_flushes_partial(self):
        queue = EventQueue()
        batches = []
        batcher = MicroBatcher(
            queue, batches.append, MicroBatchConfig(max_batch=8, max_wait=2.0)
        )
        batcher.add("a")
        batcher.add("b")
        assert batches == []
        queue.run()
        assert batches == [["a", "b"]]
        assert batcher.flushes_by_timer == 1
        assert queue.now == 2.0

    def test_timer_measured_from_first_item(self):
        queue = EventQueue()
        batches = []
        batcher = MicroBatcher(
            queue, batches.append, MicroBatchConfig(max_batch=8, max_wait=2.0)
        )
        queue.schedule(1.0, lambda: batcher.add("late"))
        batcher.add("early")
        queue.run()
        # One flush at t=2 (armed by "early"), containing both.
        assert batches == [["early", "late"]]

    def test_manual_flush(self):
        queue = EventQueue()
        batches = []
        batcher = MicroBatcher(queue, batches.append, MicroBatchConfig())
        batcher.add("x")
        batcher.flush()
        assert batches == [["x"]]
        batcher.flush()  # empty: no-op
        assert batches == [["x"]]

    def test_successive_windows(self):
        queue = EventQueue()
        batches = []
        batcher = MicroBatcher(
            queue, batches.append, MicroBatchConfig(max_batch=2, max_wait=5.0)
        )
        batcher.add(1)
        batcher.add(2)  # size flush
        batcher.add(3)  # opens a new window
        queue.run()
        assert batches == [[1, 2], [3]]
        assert batcher.flushes_by_size == 1
        assert batcher.flushes_by_timer == 1


# ----------------------------------------------------------------- service core


class TestServiceEquivalence:
    def test_infinite_deadline_bit_identical_to_run_queries(self):
        net, vectors, rng = make_network()
        config = ServingConfig(
            walk=WalkConfig(ttl=20),
            batch=MicroBatchConfig(max_batch=8, max_wait=1.0),
        )
        queue = EventQueue()
        service = make_service(net, config=config, queue=queue)
        queries = []
        for i in range(8):
            vec = vectors[f"doc{i % len(vectors)}"]
            start = int(rng.integers(net.n_nodes))
            queries.append((i, vec, start))
            service.submit(QueryRequest(query_id=i, embedding=vec, start_node=start))
        service.drain()

        direct = run_queries(
            net.adjacency,
            net.stores,
            net.default_policy(),
            np.stack([vec for _, vec, _ in queries]),
            [start for _, _, start in queries],
            config.walk,
            query_ids=[i for i, _, _ in queries],
        )
        assert len(service.responses) == 8
        by_id = {r.query_id: r for r in service.responses}
        for want in direct:
            got = by_id[want.query_id]
            assert got.outcome is Outcome.OK
            assert got.result.visits == want.visits
            assert [(d.doc_id, d.score, d.node) for d in got.result.results] == [
                (d.doc_id, d.score, d.node) for d in want.results
            ]

    def test_every_submission_resolves_exactly_once(self):
        net, vectors, rng = make_network()
        queue = EventQueue()
        service = make_service(
            net,
            config=ServingConfig(
                walk=WalkConfig(ttl=10),
                batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
                admission=AdmissionConfig(max_pending=6),
            ),
            queue=queue,
        )
        n = 30
        for i in range(n):
            vec = vectors[f"doc{i % len(vectors)}"]
            req = QueryRequest(
                query_id=i,
                embedding=vec,
                start_node=int(rng.integers(net.n_nodes)),
                deadline=float(i % 5) + 0.5,  # many will miss
            )
            queue.schedule_at(0.1 * i, lambda r=req: service.submit(r))
        service.drain()
        assert len(service.responses) == n
        assert sorted(r.query_id for r in service.responses) == list(range(n))
        m = service.metrics
        assert m.submitted == n
        assert m.ok + m.degraded + m.rejected == n
        assert m.pending == 0

    def test_out_of_range_start_rejected_at_submit(self):
        net, vectors, _ = make_network(n=10)
        service = make_service(net)
        vec = vectors["doc0"]
        nan_vec = vec.copy()
        nan_vec[3] = np.nan
        malformed = [
            (vec, 99, "start_node 99 out of range"),
            (vec[:5], 1, r"shape \(5,\), expected \(8,\)"),
            (np.stack([vec, vec]), 1, r"shape \(2, 8\), expected \(8,\)"),
            (nan_vec, 1, "non-finite"),
        ]
        service.submit(QueryRequest(query_id="a", embedding=vec, start_node=1))
        for embedding, start, message in malformed:
            with pytest.raises(ValueError, match=message):
                service.submit(
                    QueryRequest(query_id="bad", embedding=embedding, start_node=start)
                )
        service.submit(QueryRequest(query_id="b", embedding=vec, start_node=2))
        service.drain()
        assert sorted(r.query_id for r in service.responses) == ["a", "b"]
        assert service.depth == 0
        assert service.metrics.submitted == 2


class TestDeadlines:
    def test_dead_on_arrival_rejected(self):
        net, vectors, _ = make_network()
        service = make_service(net)
        response = service.submit(
            QueryRequest(
                query_id="late", embedding=vectors["doc0"], start_node=0, deadline=0.0
            )
        )
        assert response is not None
        assert response.outcome is Outcome.REJECTED
        assert response.reason == "deadline"

    def test_cannot_start_before_deadline_shed_at_flush(self):
        net, vectors, _ = make_network()
        config = ServingConfig(
            walk=WalkConfig(ttl=10),
            batch=MicroBatchConfig(max_batch=4, max_wait=5.0),
            cost=CostModel(batch_overhead=2.0, per_query=0.0, hop_cost=1.0),
        )
        service = make_service(net, config=config)
        # Flush happens at t=5 (timer), walk_start = 7; deadline 6 can't start.
        service.submit(
            QueryRequest(
                query_id="tight",
                embedding=vectors["doc0"],
                start_node=0,
                deadline=6.0,
            )
        )
        service.drain()
        (response,) = service.responses
        assert response.outcome is Outcome.REJECTED
        assert response.reason == "deadline"

    def test_mid_walk_budget_degrades_with_partials(self):
        net, vectors, _ = make_network()
        config = ServingConfig(
            walk=WalkConfig(ttl=20),
            batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
            cost=CostModel(batch_overhead=0.0, per_query=0.0, hop_cost=1.0),
        )
        service = make_service(net, config=config)
        # Flush at t=1, walk_start=1; deadline 4 → budget 3 hops < ttl 20.
        service.submit(
            QueryRequest(
                query_id="q", embedding=vectors["doc0"], start_node=0, deadline=4.0
            )
        )
        service.drain()
        (response,) = service.responses
        assert response.outcome is Outcome.DEGRADED
        assert response.reason == "deadline"
        assert response.result is not None
        assert response.result.deadline_hit
        assert len(response.result.visits) <= 3
        assert response.completed <= 4.0 + 1e-9

    def test_generous_deadline_is_ok(self):
        net, vectors, _ = make_network()
        service = make_service(
            net,
            config=ServingConfig(
                walk=WalkConfig(ttl=10),
                batch=MicroBatchConfig(max_batch=1, max_wait=1.0),
            ),
        )
        service.submit(
            QueryRequest(
                query_id="q",
                embedding=vectors["doc0"],
                start_node=0,
                deadline=1_000.0,
            )
        )
        service.drain()
        (response,) = service.responses
        assert response.outcome is Outcome.OK
        assert not response.result.deadline_hit


class TestAdmissionInService:
    def test_overload_sheds_with_queue_full(self):
        net, vectors, rng = make_network()
        service = make_service(
            net,
            config=ServingConfig(
                walk=WalkConfig(ttl=10),
                batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
                admission=AdmissionConfig(max_pending=5),
            ),
        )
        for i in range(12):  # all at t=0; depth exceeds 5 quickly
            service.submit(
                QueryRequest(
                    query_id=i,
                    embedding=vectors["doc0"],
                    start_node=int(rng.integers(net.n_nodes)),
                )
            )
        service.drain()
        m = service.metrics
        assert m.rejected > 0
        assert m.rejected_by_reason.get("queue_full", 0) == m.rejected
        assert m.ok + m.degraded + m.rejected == 12


class TestStaleness:
    @pytest.mark.parametrize("method", ["power", "solve", "async"])
    def test_method_that_cannot_patch_rejected(self, method):
        """Every refresh the service makes is a patch through ``method``:
        one that cannot patch would defer forever and count no violation."""
        with pytest.raises(ValueError, match=f"'{method}'"):
            StalenessConfig(method=method, slo=RefreshSLO(staleness_target=1.0))

    def test_incremental_methods_accepted(self):
        assert StalenessConfig(method="sparse").method == "sparse"
        backend = SparseDiffusionBackend(epsilon=0.0)
        assert StalenessConfig(method=backend).method is backend

    def test_small_dirty_set_refreshed_inline(self):
        net, vectors, rng = make_network()
        vec = rng.standard_normal(net.dim)
        net.place_document("new-doc", vec, 5)
        assert net.is_stale
        service = make_service(
            net,
            config=ServingConfig(
                batch=MicroBatchConfig(max_batch=1, max_wait=1.0),
                staleness=StalenessConfig(slo=RefreshSLO(staleness_target=0.0)),
            ),
        )
        service.submit(QueryRequest(query_id="q", embedding=vec, start_node=0))
        service.drain()
        assert not net.is_stale
        assert service.metrics.refreshes == 1
        (response,) = service.responses
        assert not response.stale_served

    def test_large_dirty_set_served_stale(self):
        """Without an SLO the service never refreshes: any dirty set is
        served stale, marked, and counted as a deferral."""
        net, vectors, rng = make_network()
        for d in range(6):
            net.place_document(f"late{d}", rng.standard_normal(net.dim), d)
        service = make_service(
            net,
            config=ServingConfig(batch=MicroBatchConfig(max_batch=1, max_wait=1.0)),
        )
        service.submit(
            QueryRequest(query_id="q", embedding=vectors["doc0"], start_node=0)
        )
        service.drain()
        assert net.is_stale  # refresh deferred
        assert service.metrics.deferred_refreshes == 1
        (response,) = service.responses
        assert response.stale_served
        assert service.metrics.stale_served == 1

    def test_single_dirty_node_served_stale_without_slo(self):
        """No dirty set is small enough to be patched without an SLO: the
        service builds no scheduler, and every batch over a stale network
        is served stale, stamped with the network's bound."""
        net, vectors, rng = make_network()
        net.place_document("new-doc", rng.standard_normal(net.dim), 5)
        assert net.dirty_nodes == frozenset({5})
        bound = net.staleness_bound()
        service = make_service(
            net,
            config=ServingConfig(batch=MicroBatchConfig(max_batch=1, max_wait=1.0)),
        )
        assert service.refresh_scheduler is None
        for i in range(3):
            service.submit(
                QueryRequest(
                    query_id=f"q{i}", embedding=vectors["doc0"], start_node=i
                )
            )
        service.drain()
        assert net.is_stale
        assert net.staleness_bound() == bound
        assert service.metrics.refreshes == 0
        assert service.metrics.deferred_refreshes == 3
        assert len(service.responses) == 3
        for response in service.responses:
            assert response.stale_served
            assert response.staleness_bound == bound

    def test_inline_refresh_patches_the_block_cache(self):
        """The default refresh method is the ``sparse`` backend: an in-line
        refresh patches the block cache incrementally, in place."""
        assert StalenessConfig().method == "sparse"
        net, vectors, rng = make_network()
        warm = net.last_diffusion.embeddings
        assert isinstance(warm, RowBlock)
        net.place_document("new-doc", rng.standard_normal(net.dim), 5)
        service = make_service(
            net,
            config=ServingConfig(
                batch=MicroBatchConfig(max_batch=1, max_wait=1.0),
                staleness=StalenessConfig(slo=RefreshSLO(staleness_target=0.0)),
            ),
        )
        service.submit(
            QueryRequest(query_id="q", embedding=vectors["doc0"], start_node=0)
        )
        service.drain()
        assert service.metrics.refreshes == 1
        assert service.refresh_scheduler.decisions["incremental"] == 1
        patched = net.last_diffusion
        assert patched.incremental and patched.converged
        assert isinstance(patched.embeddings, RowBlock)
        assert patched.embeddings is warm
        assert 5 in set(patched.embeddings.nodes.tolist())

    def test_refresh_cost_charged_to_batch(self):
        net, vectors, rng = make_network()
        net.place_document("new-doc", rng.standard_normal(net.dim), 5)
        cost = CostModel(
            batch_overhead=0.0,
            per_query=0.0,
            hop_cost=1.0,
            refresh_overhead=3.0,
            refresh_per_dirty=1.0,
        )
        service = make_service(
            net,
            config=ServingConfig(
                batch=MicroBatchConfig(max_batch=1, max_wait=1.0),
                cost=cost,
                staleness=StalenessConfig(slo=RefreshSLO(staleness_target=0.0)),
            ),
        )
        service.submit(
            QueryRequest(query_id="q", embedding=vectors["doc0"], start_node=0)
        )
        service.drain()
        (response,) = service.responses
        # max_batch=1 size-flushes at t=0; walk_start = 0 + refresh (3 + 1·1).
        assert response.started == pytest.approx(4.0)


class TestSloServing:
    """SLO-driven refresh scheduling (StalenessConfig.slo, repro.churn)."""

    def slo_config(self, **slo_kwargs):
        slo_kwargs.setdefault("staleness_target", 1e-6)
        return ServingConfig(
            batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
            staleness=StalenessConfig(slo=RefreshSLO(**slo_kwargs)),
        )

    def submit_all(self, service, vectors, n=8):
        for i in range(n):
            service.submit(
                QueryRequest(
                    query_id=f"q{i}",
                    embedding=vectors[f"doc{i % len(vectors)}"],
                    start_node=i % 40,
                )
            )
        service.drain()

    def test_zero_churn_unlimited_budget_identical_to_no_slo(self):
        """Acceptance pin: without churn the SLO path changes nothing.

        Same network state, same seed, infinite budget, no churn: the
        scheduled path must produce bit-identical responses (results,
        timing, staleness stamps) to serving without an SLO.
        """
        def serve(config):
            net, vectors, _ = make_network(seed=5)
            service = make_service(net, config=config, seed=33)
            self.submit_all(service, vectors)
            return service

        unscheduled = serve(
            ServingConfig(batch=MicroBatchConfig(max_batch=4, max_wait=1.0))
        )
        scheduled = serve(self.slo_config())
        assert len(unscheduled.responses) == len(scheduled.responses) == 8
        for a, b in zip(unscheduled.responses, scheduled.responses):
            assert a.query_id == b.query_id
            assert a.outcome == b.outcome
            assert a.stale_served == b.stale_served
            assert a.staleness_bound == b.staleness_bound
            assert a.arrival == b.arrival
            assert a.started == b.started
            assert a.completed == b.completed
            assert a.result.best == b.result.best
            assert a.result.visits == b.result.visits
        assert scheduled.metrics.refreshes == 0
        assert scheduled.metrics.slo_violations == 0

    def test_breach_repaired_incrementally_when_cheap(self):
        net, vectors, rng = make_network(seed=6)
        net.place_document("late", rng.standard_normal(net.dim), 9)
        service = make_service(net, config=self.slo_config(), seed=1)
        assert service.refresh_scheduler is not None
        self.submit_all(service, vectors, n=4)
        assert service.metrics.refreshes == 1
        assert service.metrics.full_refreshes == 0
        assert not net.is_stale
        assert all(not r.stale_served for r in service.responses)
        assert service.refresh_scheduler.decisions["incremental"] == 1

    def test_budget_exhausted_serves_stale_with_stamped_bound(self):
        net, vectors, rng = make_network(seed=7)
        net.place_document("late", rng.standard_normal(net.dim), 9)
        service = make_service(
            net,
            config=self.slo_config(refresh_budget_per_tick=1.0),
            seed=1,
        )
        self.submit_all(service, vectors, n=4)
        assert net.is_stale  # never repaired: one op per tick is nothing
        assert service.metrics.refreshes == 0
        assert service.metrics.slo_violations >= 1
        assert service.metrics.slo_violations == (
            service.refresh_scheduler.slo_violations
        )
        for response in service.responses:
            assert response.stale_served
            assert response.staleness_bound > 1e-6
            assert not math.isinf(response.staleness_bound)

    def test_banked_budget_eventually_affords_repair(self):
        net, vectors, rng = make_network(seed=8)
        net.place_document("late", rng.standard_normal(net.dim), 9)
        # One batch's worth of budget is too small, but the bank accrues
        # across batches until the incremental patch is affordable.
        dirty_cost = None
        probe = make_service(net, config=self.slo_config(), seed=1)
        dirty_cost = probe.refresh_scheduler.cost_model.estimate(
            "incremental", net.dirty_mass
        )
        service = make_service(
            net,
            config=self.slo_config(
                refresh_budget_per_tick=max(1.0, dirty_cost / 3),
                max_banked_ticks=10.0,
            ),
            seed=1,
        )
        batches = 0
        while net.is_stale and batches < 12:
            self.submit_all(service, vectors, n=1)
            batches += 1
        assert not net.is_stale
        assert service.metrics.refreshes == 1
        assert service.metrics.slo_violations >= 1  # degraded while saving up

    @pytest.mark.parametrize("method", ["power", "solve", "async"])
    def test_dense_warmup_is_not_priced_as_free(self, method):
        """A dense warm-up counts no edge operations: the cost model then
        starts from its analytic full-run prior, so neither a full refresh
        nor a patch is priced at 0, while a sparse warm-up keeps seeding
        the fit with the edge operations it counted."""
        sparse_net, _, _ = make_network(seed=10)  # a full sparse run
        sparse = make_service(sparse_net, config=self.slo_config())
        warmup = sparse_net.last_diffusion
        assert not warmup.incremental and warmup.operations > 0
        assert sparse.refresh_scheduler.cost_model.estimate("full") == warmup.operations

        net, _, _ = make_network(seed=10)
        net.diffuse(method=method)
        assert not net.last_diffusion.incremental
        assert net.last_diffusion.operations == 0
        prior = RefreshCostModel(
            nnz=2 * net.adjacency.n_edges,
            alpha=net.alpha,
            tol=StalenessConfig().tol,
        ).estimate("full")
        model = make_service(net, config=self.slo_config()).refresh_scheduler.cost_model
        assert model.estimate("full") == prior > 0
        assert model.estimate("incremental", 1.0) > 0

    def test_within_target_serves_stale_without_violation(self):
        net, vectors, rng = make_network(seed=9)
        net.place_document("late", rng.standard_normal(net.dim), 9)
        loose = ServingConfig(
            batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
            staleness=StalenessConfig(
                slo=RefreshSLO(staleness_target=math.inf)
            ),
        )
        service = make_service(net, config=loose, seed=1)
        self.submit_all(service, vectors, n=4)
        assert net.is_stale  # within target: defer is the correct verdict
        assert service.metrics.refreshes == 0
        assert service.metrics.slo_violations == 0
        for response in service.responses:
            assert response.stale_served  # honest stamp even within SLO
            assert response.staleness_bound > 0

    def test_sparse_churn_is_patched_and_stamped_soundly(self):
        """A full sparse run is priced at its real edge operations, so
        under repeated churn the scheduler patches instead of re-diffusing,
        and every stamp dominates the exact error of the served scores."""
        n, docs = 300, 30
        graph = nx.connected_watts_strogatz_graph(n, 6, 0.2, seed=3)
        net = DiffusionSearchNetwork(graph, dim=8, alpha=0.5)
        rng = np.random.default_rng(3)
        vectors = {f"doc{d}": rng.standard_normal(8) for d in range(docs)}
        for doc_id, vector in vectors.items():
            net.place_document(doc_id, vector, int(rng.integers(n)))
        backend = SparseDiffusionBackend(epsilon=2e-3)
        net.diffuse(method=backend, tol=1e-8)
        assert net.staleness.floor_l1 > 1.0  # the full run's pruning error
        config = ServingConfig(
            batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
            staleness=StalenessConfig(
                method=backend,
                tol=1e-8,
                slo=RefreshSLO(staleness_target=30.0),
            ),
        )
        service = make_service(net, config=config, seed=1)
        operator = transition_matrix(net.adjacency, "column")
        exact_filter = PersonalizedPageRank(0.5, method="solve")
        for _ in range(12):
            for _ in range(2):
                doc_id = f"doc{int(rng.integers(docs))}"
                net.remove_document(doc_id)
                net.place_document(doc_id, vectors[doc_id], int(rng.integers(n)))
            self.submit_all(service, vectors, n=4)
            exact = exact_filter.apply(operator, net.personalization())
            error = float(np.abs(net.embeddings - exact).sum())
            assert service.responses[-1].staleness_bound >= error
        decisions = service.refresh_scheduler.decisions
        assert decisions["incremental"] >= 3
        assert decisions["full"] == 0
        assert service.metrics.full_refreshes == 0

    def test_no_network_means_no_scheduler(self):
        net, vectors, _ = make_network()
        service = QueryService(
            net.adjacency,
            net.stores,
            net.default_policy(),
            config=self.slo_config(),
        )
        assert service.refresh_scheduler is None
        service.submit(
            QueryRequest(query_id="q", embedding=vectors["doc0"], start_node=0)
        )
        service.drain()
        (response,) = service.responses
        assert response.staleness_bound == 0.0

    def test_metrics_summary_includes_slo_keys(self):
        metrics = ServiceMetrics()
        summary = metrics.summary()
        assert summary["full_refreshes"] == 0
        assert summary["slo_violations"] == 0


class _PerQueryService(QueryService):
    """The scalar oracle of the faulted batch path: each batch driven
    through per-query scalar reference walks, the breaker fed in batch
    order."""

    def _execute(self, batch, budgets, walk_start):
        quarantine = self.static_quarantine
        if self.breaker is not None:
            quarantine = quarantine | self.breaker.quarantined(walk_start)
        results = [
            scalar_run_query(
                self.adjacency,
                self.stores,
                self.policy,
                request.embedding,
                request.start_node,
                self.config.walk,
                query_id=request.query_id,
                faults=self.faults,
                resilience=self.config.resilience,
                hop_budget=None if budgets is None else budgets[i],
                quarantine=quarantine or None,
            )
            for i, request in enumerate(batch)
        ]
        if self.breaker is not None:
            for result in results:
                self.breaker.observe(result, walk_start)
        return results


def _response_signature(response):
    walk = response.result
    key = (
        response.query_id,
        response.outcome,
        response.reason,
        response.started,
        response.completed,
    )
    if walk is None:
        return key
    return key + (
        walk.visits,
        walk.messages,
        [(d.doc_id, d.score, d.node) for d in walk.results],
        walk.discovered_at,
        walk.degraded,
        walk.retries,
        walk.rerouted,
        walk.walkers_lost,
        walk.zombie_visits,
        walk.deadline_hit,
        walk.failed_peers,
    )


class TestFaultyService:
    @pytest.mark.parametrize("deadlines", [False, True])
    def test_lockstep_batches_equal_per_query_oracle(self, deadlines):
        """One run_queries call per faulted batch equals the same batches
        driven through per-query scalar reference walks: every response,
        the breaker's trips and quarantine, and the injector's counts."""
        net, vectors, rng = make_network(n=60)
        plan = FaultPlan.generate(
            net.n_nodes,
            crash_fraction=0.2,
            recover_after=6.0,
            drop_probability=0.15,
            zombie_fraction=0.1,
            seed=5,
        )
        starts = rng.integers(net.n_nodes, size=40)
        runs = []
        for service_class in (QueryService, _PerQueryService):
            injector = FaultInjector(plan)
            breaker = PeerCircuitBreaker(
                BreakerConfig(failure_threshold=2, window=100.0, cooldown=30.0)
            )
            service = service_class.from_network(
                net,
                config=ServingConfig(
                    walk=WalkConfig(ttl=12, fanout=2, k=3),
                    batch=MicroBatchConfig(max_batch=5, max_wait=1.0),
                    resilience=ResilienceConfig(
                        max_retries=1, retry_backoff=2, redundancy=3
                    ),
                ),
                faults=injector,
                breaker=breaker,
                static_quarantine=[7],
                seed=11,
            )
            for i, start in enumerate(starts.tolist()):
                request = QueryRequest(
                    query_id=i,
                    embedding=vectors[f"doc{i % len(vectors)}"],
                    start_node=start,
                    deadline=4.0 + i if deadlines else math.inf,
                )
                service.queue.schedule_at(
                    0.5 * i, lambda r=request, s=service: s.submit(r)
                )
            service.drain()
            runs.append(
                (
                    [_response_signature(r) for r in service.responses],
                    breaker.trips,
                    sorted(breaker.quarantined(service.queue.now)),
                    injector.dropped,
                    injector.crash_detections,
                )
            )
        assert runs[0] == runs[1]
        responses = runs[0][0]
        assert len(responses) == 40
        walks = [r for r in responses if len(r) > 5]
        assert sum(r[10] for r in walks) > 0  # retries happened
        assert sum(r[11] for r in walks) > 0  # reroutes happened

    def test_all_queries_resolve_under_faults(self):
        net, vectors, rng = make_network(n=60)
        plan = FaultPlan.generate(
            net.n_nodes, crash_fraction=0.2, drop_probability=0.1, seed=3
        )
        injector = FaultInjector(plan)
        breaker = PeerCircuitBreaker(
            BreakerConfig(failure_threshold=2, window=100.0, cooldown=100.0)
        )
        service = make_service(
            net,
            config=ServingConfig(
                walk=WalkConfig(ttl=15),
                batch=MicroBatchConfig(max_batch=4, max_wait=1.0),
                resilience=ResilienceConfig(max_retries=2),
            ),
            faults=injector,
            breaker=breaker,
            seed=11,
        )
        live = sorted(set(range(net.n_nodes)) - plan.crashed_nodes(0.0))
        n = 24
        for i in range(n):
            service.submit(
                QueryRequest(
                    query_id=i,
                    embedding=vectors[f"doc{i % len(vectors)}"],
                    start_node=int(live[int(rng.integers(len(live)))]),
                )
            )
        service.drain()
        assert len(service.responses) == n
        m = service.metrics
        assert m.ok + m.degraded + m.rejected == n
        # Pins the resilient walk's outcome bit for bit: walks, retries,
        # reroutes, lost walkers, breaker trips and the injector's drops.
        # Captured from the per-query scalar oracle (_PerQueryService)
        # with one drop stream per walk.
        results = [r.result for r in service.responses]
        assert (
            m.ok,
            m.degraded,
            sum(len(r.visits) for r in results),
            sum(r.retries for r in results),
            sum(r.rerouted for r in results),
            sum(r.walkers_lost for r in results),
            breaker.trips,
            injector.dropped,
        ) == (20, 4, 293, 28, 35, 4, 17, 28)

    def test_static_quarantine_routes_around_peers(self):
        net, vectors, rng = make_network()
        service = make_service(
            net,
            config=ServingConfig(
                walk=WalkConfig(ttl=10),
                batch=MicroBatchConfig(max_batch=2, max_wait=1.0),
            ),
            static_quarantine=[1, 2, 3],
        )
        service.submit(
            QueryRequest(query_id="q", embedding=vectors["doc0"], start_node=0)
        )
        service.drain()
        (response,) = service.responses
        visited = {node for _, node in response.result.visits}
        assert visited.isdisjoint({1, 2, 3})

    def test_null_fault_plan_answers_ok(self):
        """A walker that runs out of peers on a plan that injects nothing
        is not lost to faults, so the answer stays OK."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(6))
        service = QueryService(
            adjacency,
            {},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            config=ServingConfig(walk=WalkConfig(ttl=8, fanout=2)),
            faults=FaultInjector(FaultPlan(6)),
        )
        service.submit(QueryRequest(query_id="q", embedding=np.ones(2), start_node=0))
        service.drain()
        (response,) = service.responses
        assert response.outcome is Outcome.OK
        assert response.reason is None
        assert response.result.walkers_lost == 0

    def test_out_of_range_static_quarantine_rejected_at_construction(self):
        net, _, _ = make_network(n=10)
        for peer in (-1, 10):
            with pytest.raises(ValueError, match=f"static_quarantine peer {peer}"):
                make_service(net, static_quarantine=[1, peer])


class TestServiceMetrics:
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_throughput_rejects_non_positive_horizon(self, horizon):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="horizon"):
            metrics.throughput(horizon)
        with pytest.raises(ValueError, match="horizon"):
            metrics.summary(horizon=horizon)

    def test_summary_shape(self):
        metrics = ServiceMetrics()
        summary = metrics.summary(horizon=10.0)
        for key in ("p50", "p95", "p99", "throughput", "shed_rate", "submitted"):
            assert key in summary
        assert math.isnan(summary["p99"])
        assert summary["throughput"] == 0.0

    def test_percentiles_over_completions_only(self):
        from repro.serving.service import QueryResponse

        metrics = ServiceMetrics()
        for latency in (1.0, 2.0, 3.0, 4.0):
            metrics.record_submitted()
            metrics.record_response(
                QueryResponse(
                    query_id=0,
                    outcome=Outcome.OK,
                    reason=None,
                    result=None,
                    arrival=0.0,
                    started=0.0,
                    completed=latency,
                )
            )
        metrics.record_submitted()
        metrics.record_response(
            QueryResponse(
                query_id=9,
                outcome=Outcome.REJECTED,
                reason="queue_full",
                result=None,
                arrival=0.0,
                started=None,
                completed=0.0,
            )
        )
        assert metrics.latency_percentile(50) == pytest.approx(2.5)
        assert metrics.rejected_by_reason == {"queue_full": 1}
        assert metrics.completed == 4
