"""Tests for the churn subsystem (repro.churn).

Pins the load-bearing contracts:

* churn streams are a pure function of (config, seed) and every emitted
  event is feasible at its time;
* staleness tracking coalesces repeated churn per node and its bound
  dominates the true L1 error (validated against exact recomputes);
* the SLO scheduler's decision matrix — defer within target, cheapest
  affordable action over it, explicit budget-exhausted degradation with
  banked amortization of full recomputes;
* the network-level dirty machinery stays O(distinct dirty nodes), not
  O(churn events) — the coalescing regression guard;
* churn streams, fault plans, and query arrivals compose on one
  EventQueue without perturbing each other's sequences.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.churn import (
    CHURN_KINDS,
    ChurnEvent,
    ChurnRates,
    ChurnStream,
    RefreshCostModel,
    RefreshSLO,
    RefreshScheduler,
    SignalChurnState,
    StalenessTracker,
    apply_churn_event,
    check_strategy,
)
from repro.core.search import DiffusionSearchNetwork
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz
from repro.gsp.normalization import transition_matrix
from repro.runtime.events import EventQueue
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.simulation.refresh import SignalRefresher

RATES = ChurnRates(
    doc_add=1.0, doc_move=2.0, doc_delete=0.5, node_leave=0.2, node_join=0.2
)


def make_network(n=30, dim=6, docs=12, seed=0):
    graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    net = DiffusionSearchNetwork(graph, dim=dim, alpha=0.5)
    rng = np.random.default_rng(seed)
    for d in range(docs):
        net.place_document(f"doc{d}", rng.standard_normal(dim), int(rng.integers(n)))
    return net


# ------------------------------------------------------------------ the stream


class TestChurnStream:
    def test_deterministic_by_seed(self):
        a = ChurnStream(20, RATES, seed=7).events(n=100)
        b = ChurnStream(20, RATES, seed=7).events(n=100)
        assert a == b

    def test_different_seeds_differ(self):
        a = ChurnStream(20, RATES, seed=7).events(n=50)
        b = ChurnStream(20, RATES, seed=8).events(n=50)
        assert a != b

    def test_events_method_is_pure(self):
        stream = ChurnStream(20, RATES, seed=3)
        assert stream.events(n=40) == stream.events(n=40)

    def test_horizon_mode_bounds_times(self):
        events = ChurnStream(20, RATES, seed=1).events(horizon=10.0)
        assert events
        assert all(e.time <= 10.0 for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_exactly_one_of_horizon_or_n(self):
        stream = ChurnStream(20, RATES, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            stream.events()
        with pytest.raises(ValueError, match="exactly one"):
            stream.events(horizon=1.0, n=5)

    def test_every_event_feasible(self):
        """Replaying the stream against its own bookkeeping never breaks."""
        events = ChurnStream(10, RATES, seed=5).events(n=500)
        placement: dict[str, int] = {}
        live = set(range(10))
        for event in events:
            if event.kind == "doc_add":
                assert event.doc_id not in placement
                assert event.node in live
                placement[event.doc_id] = event.node
            elif event.kind == "doc_move":
                assert placement[event.doc_id] == event.origin
                assert event.node in live
                placement[event.doc_id] = event.node
            elif event.kind == "doc_delete":
                assert placement.pop(event.doc_id) == event.node
            elif event.kind == "node_leave":
                assert event.node in live and len(live) > 1
                live.discard(event.node)
                for doc in [d for d, v in placement.items() if v == event.node]:
                    del placement[doc]
            else:
                assert event.node not in live
                live.add(event.node)

    def test_initial_placement_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            ChurnStream(5, RATES, initial_placement={"d": 9})

    def test_doc_only_churn_never_touches_nodes(self):
        rates = ChurnRates(doc_add=1.0, doc_move=1.0, doc_delete=1.0)
        events = ChurnStream(8, rates, seed=2).events(n=200)
        assert all(e.kind.startswith("doc_") for e in events)

    def test_delete_only_stream_dries_up(self):
        rates = ChurnRates(doc_delete=1.0)
        stream = ChurnStream(4, rates, initial_placement={"a": 0, "b": 1}, seed=0)
        events = stream.events(n=100)
        assert len(events) == 2  # nothing left to delete afterwards
        assert {e.doc_id for e in events} == {"a", "b"}

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ChurnRates()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown churn kind"):
            ChurnEvent(0.0, "doc_rename")

    def test_kinds_tuple_stable(self):
        assert CHURN_KINDS == (
            "doc_add", "doc_move", "doc_delete", "node_leave", "node_join"
        )


class TestApplyChurnEvent:
    def embedding_of(self, doc_id):
        return np.random.default_rng(abs(hash(doc_id)) % 2**32).standard_normal(6)

    def test_replay_matches_stream_bookkeeping(self):
        net = make_network(docs=0)
        stream = ChurnStream(30, RATES, seed=9)
        for event in stream.events(n=300):
            apply_churn_event(net, event, embedding_of=self.embedding_of)
        # Network placement equals the stream's own final placement.
        replay = ChurnStream(30, RATES, seed=9)
        placement: dict[str, int] = {}
        live = set(range(30))
        for event in replay.events(n=300):
            if event.kind in ("doc_add", "doc_move"):
                placement[event.doc_id] = event.node
            elif event.kind == "doc_delete":
                del placement[event.doc_id]
            elif event.kind == "node_leave":
                live.discard(event.node)
                for doc in [d for d, v in placement.items() if v == event.node]:
                    del placement[doc]
            else:
                live.add(event.node)
        assert placement == {
            d: net.location_of(d) for d in placement
        }
        assert net.n_documents == len(placement)

    def test_doc_add_requires_embedding(self):
        net = make_network()
        with pytest.raises(ValueError, match="embedding_of"):
            apply_churn_event(net, ChurnEvent(0.0, "doc_add", doc_id="x", node=0))

    def test_move_preserves_embedding(self):
        net = make_network(docs=0)
        vec = np.arange(6, dtype=float)
        net.place_document("d", vec, 3)
        apply_churn_event(
            net, ChurnEvent(0.0, "doc_move", doc_id="d", node=7, origin=3)
        )
        assert net.location_of("d") == 7
        np.testing.assert_array_equal(net.stores[7].embedding_of("d"), vec)

    def test_node_leave_drops_documents(self):
        net = make_network(docs=0)
        net.place_document("a", np.ones(6), 2)
        net.place_document("b", np.ones(6), 2)
        net.place_document("c", np.ones(6), 5)
        apply_churn_event(net, ChurnEvent(0.0, "node_leave", node=2))
        assert net.n_documents == 1
        assert net.location_of("c") == 5

    def test_composes_with_fault_injector_on_one_queue(self):
        """Churn + faults + queries interleave deterministically on one clock."""
        def run():
            queue = EventQueue()
            log: list[tuple[float, str]] = []
            stream = ChurnStream(10, RATES, seed=4)
            for event in stream.events(n=30):
                queue.schedule_at(
                    event.time, lambda e=event: log.append((e.time, e.kind))
                )
            # The injector draws from its own seeded generator; consuming
            # fault randomness between churn dispatches must not perturb
            # the churn sequence (independent streams).
            injector = FaultInjector(
                FaultPlan.generate(
                    10, crash_fraction=0.3, drop_probability=0.5, seed=6
                )
            )
            for t in np.linspace(0.1, 5.0, 17):
                queue.schedule_at(
                    float(t),
                    lambda t=t: (injector.deliver(0, 1), log.append((t, "query"))),
                )
            while queue.step():
                pass
            return log, injector.dropped

        first, second = run(), run()
        assert first == second
        log, _ = first
        assert [t for t, _ in log] == sorted(t for t, _ in log)
        assert sum(1 for _, kind in log if kind == "query") == 17
        assert sum(1 for _, kind in log if kind != "query") == 30
        # The interleaved run's churn sequence equals the pure generation.
        pure = [
            (e.time, e.kind) for e in ChurnStream(10, RATES, seed=4).events(n=30)
        ]
        assert [entry for entry in log if entry[1] != "query"] == pure


# ------------------------------------------------------------ staleness bounds


class TestStalenessTracker:
    def test_unknown_baseline_bound_is_inf(self):
        tracker = StalenessTracker()
        assert math.isinf(tracker.bound())
        assert not tracker.baseline_known

    def test_full_refresh_establishes_baseline(self):
        tracker = StalenessTracker()
        tracker.record_refresh(1e-9, full=True)
        assert tracker.baseline_known
        assert tracker.bound() == pytest.approx(1e-9)

    def test_pending_coalesces_per_node(self):
        tracker = StalenessTracker()
        tracker.record_refresh(0.0, full=True)
        for delta in (1.0, 3.0, 0.5):
            tracker.set_pending(4, delta)
        assert tracker.dirty_count == 1
        assert tracker.dirty_mass == pytest.approx(0.5)

    def test_zero_delta_clears_entry(self):
        tracker = StalenessTracker()
        tracker.record_refresh(0.0, full=True)
        tracker.set_pending(4, 1.0)
        tracker.set_pending(4, 0.0)  # churned back to baseline
        assert tracker.dirty_count == 0
        assert tracker.bound() == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            StalenessTracker().set_pending(0, -1.0)

    def test_incremental_residual_accumulates_full_resets(self):
        """A full run sets the floor; patches add to the patch residual
        until the next full run replaces the floor and clears them."""
        tracker = StalenessTracker()
        tracker.record_refresh(1e-3, full=True)
        tracker.record_refresh(1e-3, full=False)
        tracker.record_refresh(1e-3, full=False)
        assert tracker.floor_l1 == pytest.approx(1e-3)
        assert tracker.patch_residual_l1 == pytest.approx(2e-3)
        assert tracker.bound() == pytest.approx(3e-3)
        tracker.record_refresh(1e-6, full=True)
        assert tracker.floor_l1 == pytest.approx(1e-6)
        assert tracker.patch_residual_l1 == 0.0
        assert tracker.bound() == pytest.approx(1e-6)

    def test_refreshable_counts_patch_residual_beyond_floor(self):
        tracker = StalenessTracker()
        tracker.record_refresh(10.0, full=True)
        tracker.set_pending(3, 2.5)
        assert tracker.refreshable() == pytest.approx(2.5)  # floor excluded
        tracker.record_refresh(6.0, full=False)
        tracker.set_pending(3, 2.5)
        assert tracker.refreshable() == pytest.approx(2.5)  # P < F
        tracker.record_refresh(7.0, full=False)
        assert tracker.refreshable() == pytest.approx(3.0)  # P − F = 13 − 10
        assert tracker.bound() == pytest.approx(23.0)
        assert math.isinf(StalenessTracker().refreshable())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_masses_rejected_at_the_call(self, value):
        tracker = StalenessTracker()
        with pytest.raises(ValueError, match="finite"):
            tracker.record_refresh(value, full=True)
        assert not tracker.baseline_known  # the bad run was not committed
        tracker.record_refresh(1.0, full=True)
        with pytest.raises(ValueError, match="finite"):
            tracker.record_refresh(value, full=False)
        with pytest.raises(ValueError, match="finite"):
            tracker.set_pending(0, value)
        assert tracker.bound() == pytest.approx(1.0)

    def test_invalidate_restores_inf(self):
        tracker = StalenessTracker()
        tracker.record_refresh(0.0, full=True)
        tracker.set_pending(1, 2.0)
        tracker.invalidate()
        assert math.isinf(tracker.bound())
        assert tracker.dirty_count == 0


class TestSignalChurnState:
    @pytest.fixture(scope="class")
    def operator(self):
        adjacency = CompressedAdjacency.from_networkx(
            connected_watts_strogatz(50, 4, 0.2, seed=11)
        )
        return transition_matrix(adjacency, "column")

    def test_bound_dominates_true_error(self, operator):
        """The cheap bound must never under-report the served L1 error."""
        refresher = SignalRefresher(operator, 0.5, tol=1e-10)
        stream = ChurnStream(50, RATES, seed=13)
        state = SignalChurnState(50)
        served = refresher.cold_start(state.signal.copy()).scores
        state.commit_refresh(0.0, full=True)
        for i, event in enumerate(stream.events(n=400)):
            state.apply(event)
            if i % 80 == 79:
                exact = refresher.cold_start(state.signal.copy())
                true_error = float(np.abs(served - exact.scores).sum())
                assert state.bound() >= true_error - 1e-9
        assert state.dirty_mass > 0

    def test_signal_tracks_placement_mass(self):
        state = SignalChurnState(10, initial_placement={"a": 0, "b": 0, "c": 3})
        assert state.signal[0] == pytest.approx(2.0)
        state.apply(ChurnEvent(0.0, "doc_move", doc_id="a", node=5, origin=0))
        state.apply(ChurnEvent(0.1, "doc_delete", doc_id="c", node=3))
        assert state.signal[0] == pytest.approx(1.0)
        assert state.signal[5] == pytest.approx(1.0)
        assert state.signal[3] == pytest.approx(0.0)

    def test_node_leave_zeroes_its_mass(self):
        state = SignalChurnState(6, initial_placement={"a": 2, "b": 2, "c": 1})
        state.apply(ChurnEvent(0.0, "node_leave", node=2))
        assert state.signal[2] == pytest.approx(0.0)
        assert state.placement == {"c": 1}

    def test_pending_tracked_only_after_baseline(self):
        state = SignalChurnState(6, initial_placement={"a": 2})
        state.apply(ChurnEvent(0.0, "doc_move", doc_id="a", node=3, origin=2))
        assert state.dirty_mass == 0.0  # no baseline yet
        state.commit_refresh(0.0, full=True)
        state.apply(ChurnEvent(0.1, "doc_move", doc_id="a", node=4, origin=3))
        assert state.dirty_mass == pytest.approx(2.0)  # one off, one on


# ------------------------------------------------------------------- scheduler


def make_model(**observed):
    model = RefreshCostModel(nnz=200, alpha=0.5, tol=1e-8)
    for strategy, (mass, ops) in observed.items():
        model.observe(strategy, mass, ops)
    return model


class TestRefreshCostModel:
    def test_stale_is_free(self):
        assert make_model().estimate("stale", 5.0) == 0.0

    def test_prior_before_observation(self):
        model = make_model()
        assert model.estimate("full") > 0
        assert model.estimate("incremental", 1.0) > 0

    def test_full_estimate_tracks_observations(self):
        model = make_model(full=(0.0, 4000))
        assert model.estimate("full") == pytest.approx(4000.0)

    def test_incremental_rate_scales_with_mass(self):
        model = make_model(incremental=(2.0, 500))  # 250 ops per unit mass
        assert model.estimate("incremental", 4.0) == pytest.approx(1000.0)

    def test_full_observation_seeds_incremental_rate(self):
        model = make_model(full=(10.0, 5000))
        assert model.estimate("incremental", 1.0) == pytest.approx(500.0)

    def test_crossover_not_clamped(self):
        """Large dirty mass must be allowed to price above a full run."""
        model = make_model(full=(0.0, 1000), incremental=(1.0, 400))
        assert model.estimate("incremental", 10.0) > model.estimate("full")

    def test_affine_fit_learns_constant_term(self):
        """Push cost has a large fixed sweep term; the fit must see it.

        Two observations at different masses: a proportional-only model
        would extrapolate ~100 ops/unit from the blend and misprice both
        a tiny delta (far too cheap per-op) and a mid-size one (too
        expensive, flipping the scheduler to full at the wrong point).
        """
        model = make_model(incremental=(10.0, 1000))
        model.observe("incremental", 30.0, 1400)
        # EWMA moments give slope 20, intercept 800.
        assert model.estimate("incremental", 1.0) == pytest.approx(820.0)
        assert model.estimate("incremental", 50.0) == pytest.approx(1800.0)
        # Monotone in mass: the crossover with full stays visible.
        assert model.estimate("incremental", 200.0) > model.estimate(
            "incremental", 50.0
        )

    def test_affine_fit_degenerates_to_rate_on_constant_mass(self):
        model = make_model(incremental=(5.0, 500))
        model.observe("incremental", 5.0, 700)  # same mass, noisier ops
        # No mass variance: through-origin pricing from blended ops.
        assert model.estimate("incremental", 10.0) == pytest.approx(1200.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="refresh strategy"):
            make_model().estimate("lazy")
        with pytest.raises(ValueError, match="refresh strategy"):
            make_model().observe("lazy", 0.0, 1)

    def test_check_strategy_lists_options(self):
        with pytest.raises(ValueError, match="stale.*incremental.*full"):
            check_strategy("nope")


class TestRefreshScheduler:
    def scheduler(self, target=1.0, per_tick=math.inf, banked=10.0, **observed):
        slo = RefreshSLO(
            staleness_target=target,
            refresh_budget_per_tick=per_tick,
            max_banked_ticks=banked,
        )
        return RefreshScheduler(slo, make_model(**observed))

    def test_within_target_defers(self):
        sched = self.scheduler(target=1.0)
        decision = sched.decide(0.5, 0.5)
        assert decision.action == "defer"
        assert decision.reason == "within_slo"
        assert decision.within_slo
        assert sched.slo_violations == 0

    def test_no_baseline_forces_full(self):
        decision = self.scheduler().decide(math.inf, 0.0)
        assert (decision.action, decision.reason) == ("full", "no_baseline")

    def test_residual_only_breach_forces_full(self):
        # Dirty mass zero but bound over target: only a re-baseline helps.
        decision = self.scheduler(target=0.1).decide(0.5, 0.0)
        assert (decision.action, decision.reason) == ("full", "residual_only")

    def test_patch_residual_breach_rebaselines_despite_dirty_mass(self):
        # Patches are far cheaper here, but the carried patch residual
        # beyond the floor (P − F = 4) alone exceeds the target: a patch
        # would only remove the dirty part, so the scheduler re-baselines.
        tracker = StalenessTracker()
        tracker.record_refresh(10.0, full=True)
        tracker.record_refresh(14.0, full=False)
        tracker.set_pending(7, 1.0)
        sched = self.scheduler(
            target=3.0, full=(0.0, 1000), incremental=(1.0, 100)
        )
        decision = sched.decide(tracker.refreshable(), tracker.dirty_mass)
        assert (decision.action, decision.reason) == ("full", "residual_only")
        assert decision.refreshable == pytest.approx(5.0)
        # Below the target the same carried residual lets a patch repair
        # the dirty part.
        loose = self.scheduler(
            target=4.5, full=(0.0, 1000), incremental=(1.0, 100)
        )
        decision = loose.decide(tracker.refreshable(), tracker.dirty_mass)
        assert (decision.action, decision.reason) == ("incremental", "cheapest")

    def test_picks_cheaper_action(self):
        sched = self.scheduler(
            target=0.1, full=(0.0, 1000), incremental=(1.0, 100)
        )
        assert sched.decide(1.0, 1.0).action == "incremental"
        assert sched.decide(1.0, 50.0).action == "full"  # past the crossover

    def test_budget_exhausted_defers_and_counts_violation(self):
        sched = self.scheduler(
            target=0.1, per_tick=10.0, full=(0.0, 1000), incremental=(1.0, 100)
        )
        sched.tick()
        decision = sched.decide(1.0, 1.0)
        assert (decision.action, decision.reason) == ("defer", "budget_exhausted")
        assert not decision.within_slo
        assert sched.slo_violations == 1

    def test_banked_budget_amortizes_full(self):
        sched = self.scheduler(
            target=0.1, per_tick=300.0, banked=5.0, full=(0.0, 1000)
        )
        verdicts = []
        for _ in range(4):
            sched.tick()
            decision = sched.decide(math.inf, 0.0)
            verdicts.append(decision.action)
            if decision.action != "defer":
                sched.commit(decision, 1000)
        # Three deferred ticks bank 900 < 1000; the fourth affords the full.
        assert verdicts == ["defer", "defer", "defer", "full"]

    def test_bank_caps_at_max_ticks(self):
        sched = self.scheduler(per_tick=10.0, banked=3.0)
        for _ in range(50):
            sched.tick()
        assert sched.banked_budget == pytest.approx(30.0)

    def test_commit_spends_observed_cost_and_can_go_negative(self):
        sched = self.scheduler(
            target=0.1, per_tick=100.0, full=(0.0, 50), incremental=(1.0, 10)
        )
        sched.tick()
        decision = sched.decide(1.0, 1.0)
        sched.commit(decision, 180)  # observed overshoots the estimate
        assert sched.banked_budget == pytest.approx(-80.0)

    def test_commit_defer_rejected(self):
        sched = self.scheduler(target=1.0)
        with pytest.raises(ValueError, match="defer"):
            sched.commit(sched.decide(0.0, 0.0), 10)

    def test_summary_shape(self):
        sched = self.scheduler()
        sched.tick()
        sched.decide(0.0, 0.0)
        summary = sched.summary()
        assert summary["ticks"] == 1
        assert summary["decisions"]["defer"] == 1
        assert set(summary) >= {
            "ticks", "decisions", "slo_violations", "total_refresh_operations"
        }

    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError, match="refresh_budget_per_tick"):
            RefreshSLO(staleness_target=1.0, refresh_budget_per_tick=0.0)
        with pytest.raises(ValueError):
            RefreshSLO(staleness_target=-1.0)


# ------------------------------------------------- network dirty-mass machinery


class TestNetworkStaleness:
    def test_bound_inf_before_first_diffusion(self):
        net = make_network()
        assert math.isinf(net.staleness_bound())

    def test_bound_small_after_diffusion(self):
        net = make_network()
        net.diffuse(method="push", tol=1e-9)
        assert net.staleness_bound() < 1e-6
        assert net.dirty_mass == 0.0

    def test_repeated_moves_coalesce(self):
        """Satellite regression guard: cost is O(distinct dirty), not O(events)."""
        def churned(moves):
            net = make_network(seed=3)
            net.diffuse(method="push", tol=1e-9)
            vec = np.array(net.stores[net.location_of("doc0")].embedding_of("doc0"))
            for i in range(moves):
                net.remove_document("doc0")
                # Bounce between two fixed nodes; end on the same node
                # regardless of `moves` so final states are comparable.
                net.place_document("doc0", vec, 21 if i % 2 == 0 else 22)
            if moves % 2 == 0:  # ended on 22's turn count; normalize to 21
                net.remove_document("doc0")
                net.place_document("doc0", vec, 21)
            return net

        once = churned(1)
        many = churned(25)
        # Dirty bookkeeping scales with distinct nodes touched, not events.
        assert many.dirty_nodes == once.dirty_nodes | {22}
        assert many.staleness.dirty_count <= 3
        assert many.dirty_mass == pytest.approx(once.dirty_mass, rel=1e-9)
        ops_once = once.diffuse(method="push", tol=1e-9).operations
        ops_many = many.diffuse(method="push", tol=1e-9).operations
        assert ops_many == ops_once
        np.testing.assert_allclose(once.embeddings, many.embeddings)

    def test_bound_dominates_true_embedding_error(self):
        net = make_network(seed=4)
        net.diffuse(method="push", tol=1e-9)
        served = net.embeddings.copy()
        rng = np.random.default_rng(17)
        for d in range(5):
            doc = f"doc{d}"
            node = net.location_of(doc)
            vec = np.array(net.stores[node].embedding_of(doc), copy=True)
            net.remove_document(doc)
            net.place_document(doc, vec, int(rng.integers(30)))
        bound = net.staleness_bound()
        fresh = make_network(seed=4)
        fresh.clear_documents()
        for doc in list(net._doc_locations):
            node = net.location_of(doc)
            fresh.place_document(
                doc, np.array(net.stores[node].embedding_of(doc)), node
            )
        fresh.diffuse(method="push", tol=1e-9)
        true_error = float(np.abs(served - fresh.embeddings).sum())
        assert bound >= true_error - 1e-9
        assert not math.isinf(bound)

    def test_churn_back_to_baseline_zeroes_mass(self):
        net = make_network(seed=5)
        net.diffuse(method="push", tol=1e-9)
        node = net.location_of("doc0")
        vec = np.array(net.stores[node].embedding_of("doc0"), copy=True)
        net.remove_document("doc0")
        assert net.dirty_mass > 0
        net.place_document("doc0", vec, node)  # exactly undone
        assert net.dirty_mass == pytest.approx(0.0, abs=1e-12)

    def test_clear_documents_counts_full_mass(self):
        net = make_network(seed=6)
        net.diffuse(method="push", tol=1e-9)
        net.clear_documents()
        # Every previously-occupied row is now pending at its full mass.
        assert net.dirty_mass > 0
        assert net.staleness.dirty_count == len(net.dirty_nodes)

    def test_truncated_full_run_invalidates_bound(self):
        net = make_network(seed=7)
        net.diffuse(method="power", max_iterations=1)  # cannot converge
        assert math.isinf(net.staleness_bound())
