"""Fault-injection subsystem: plans, injectors, and the resilient walk.

The equivalence classes pinned here are the fault model's contract: with no
faults injected the walk engine behaves bit-identically to the fault-free
walk, with faults it equals the scalar reference walk field for field, and
it degrades gracefully instead of raising.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.aggregation import MaxChannelPolicy
from repro.core.batch import run_queries
from repro.core.engine import ResilienceConfig, WalkConfig, run_query
from repro.core.forwarding import (
    DegreeBiasedPolicy,
    EmbeddingGuidedPolicy,
    ForwardingPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import coerce_sparse_signal
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    choose_live_starts,
)
from scalar_reference import scalar_run_query


def make_store(dim, **docs):
    store = DocumentStore(dim)
    for doc_id, vector in docs.items():
        store.add(doc_id, np.asarray(vector, dtype=float))
    return store


@pytest.fixture
def path_adjacency():
    return CompressedAdjacency.from_networkx(nx.path_graph(6))


# --------------------------------------------------------------------- plans


class TestCrashWindow:
    def test_covers_half_open_interval(self):
        window = CrashWindow(3, start=2.0, end=5.0)
        assert not window.covers(1.9)
        assert window.covers(2.0)
        assert window.covers(4.999)
        assert not window.covers(5.0)

    def test_permanent_crash_by_default(self):
        assert CrashWindow(0).covers(1e12)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            CrashWindow(0, start=3.0, end=3.0)
        with pytest.raises(ValueError):
            CrashWindow(0, start=3.0, end=1.0)
        with pytest.raises(ValueError):
            CrashWindow(0, start=-1.0)
        # A NaN end compares False both ways: the window would cover no time.
        with pytest.raises(ValueError):
            CrashWindow(1, 0.0, float("nan"))
        with pytest.raises(TypeError):
            CrashWindow(1.5)
        with pytest.raises(TypeError):
            CrashWindow(True)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(4, drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(4, crashes=(CrashWindow(9),))
        with pytest.raises(ValueError):
            FaultPlan(4, zombies=frozenset({4}))
        with pytest.raises(ValueError):
            FaultPlan(4, zombies=frozenset({-1}))
        with pytest.raises(TypeError):
            FaultPlan(4, zombies=frozenset({1.5}))
        # The seed seeds the injector's generators: checked at the plan.
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(10, drop_probability=0.1, seed=-1)
        with pytest.raises(TypeError, match="seed"):
            FaultPlan(10, drop_probability=0.1, seed=1.5)
        with pytest.raises(TypeError, match="seed"):
            FaultPlan(10, drop_probability=0.1, seed=True)

    @staticmethod
    def _assert_index_matches_scan(plan):
        edges = {0.0, 1e9}
        for window in plan.crashes:
            edges |= {window.start, window.end}
        for time in sorted(edges):
            for node in range(plan.n_nodes):
                assert plan.crashed_at(node, time) == any(
                    w.node == node and w.covers(time) for w in plan.crashes
                ), (node, time)

    def test_crashed_at_and_live_nodes(self):
        # Node 1 goes down, comes back up and goes down again.
        plan = FaultPlan(
            5,
            crashes=(
                CrashWindow(1, 0.0, 10.0),
                CrashWindow(3, 5.0),
                CrashWindow(1, 15.0, 25.0),
            ),
        )
        assert plan.crashed_at(1, 0.0)
        assert not plan.crashed_at(1, 10.0)
        assert plan.crashed_at(1, 15.0)
        assert not plan.crashed_at(1, 25.0)
        assert not plan.crashed_at(3, 4.9)
        assert plan.crashed_at(3, 1e9)
        assert plan.crashed_nodes(6.0) == frozenset({1, 3})
        assert plan.live_nodes(6.0) == [0, 2, 4]
        assert plan.live_nodes(12.0) == [0, 1, 2, 4]
        assert plan.live_nodes(20.0) == [0, 2, 4]
        self._assert_index_matches_scan(plan)
        self._assert_index_matches_scan(
            FaultPlan.generate(
                30, crash_fraction=0.3, crash_start=2.0, recover_after=5.0, seed=4
            )
        )

    def test_generate_is_deterministic(self):
        kwargs = dict(
            crash_fraction=0.3,
            drop_probability=0.05,
            zombie_fraction=0.2,
            seed=11,
        )
        assert FaultPlan.generate(100, **kwargs) == FaultPlan.generate(
            100, **kwargs
        )
        other = FaultPlan.generate(100, **{**kwargs, "seed": 12})
        assert other != FaultPlan.generate(100, **kwargs)

    def test_generate_counts_and_disjointness(self):
        plan = FaultPlan.generate(
            200, crash_fraction=0.25, zombie_fraction=0.1, seed=3
        )
        crashed = {w.node for w in plan.crashes}
        assert len(crashed) == 50
        # zombies are sampled from the remaining live nodes
        assert len(plan.zombies) == round(0.1 * 150)
        assert not crashed & plan.zombies

    def test_generate_respects_protect(self):
        plan = FaultPlan.generate(
            50, crash_fraction=0.5, zombie_fraction=0.5, protect=[0, 1], seed=9
        )
        crashed = {w.node for w in plan.crashes}
        assert not {0, 1} & crashed
        assert not {0, 1} & plan.zombies

    def test_generate_recovery_window(self):
        plan = FaultPlan.generate(
            20, crash_fraction=0.5, crash_start=3.0, recover_after=4.0, seed=0
        )
        for window in plan.crashes:
            assert (window.start, window.end) == (3.0, 7.0)
        assert not plan.crashed_nodes(7.0)


# ----------------------------------------------------------------- injectors


class TestFaultInjector:
    def test_trivial_plan_always_delivers(self):
        injector = FaultInjector(FaultPlan(4))
        for _ in range(100):
            assert injector.deliver(0, 1)
        assert injector.dropped == 0

    def test_drop_lottery_counts(self):
        injector = FaultInjector(FaultPlan(4, drop_probability=0.5, seed=0))
        delivered = sum(injector.deliver(0, 1) for _ in range(400))
        assert 120 < delivered < 280
        assert injector.dropped == 400 - delivered

    def test_reset_replays_exactly(self):
        injector = FaultInjector(FaultPlan(4, drop_probability=0.3, seed=7))
        first = [injector.deliver(0, 1) for _ in range(50)]
        injector.reset()
        assert injector.crash_detections == 0
        assert [injector.deliver(0, 1) for _ in range(50)] == first

    def test_walk_streams_numbered_in_start_order(self):
        plan = FaultPlan(4, drop_probability=0.3, seed=7)
        injector = FaultInjector(plan)
        first = injector.walk_streams(2)
        (third,) = injector.walk_streams(1)
        for index, stream in enumerate([*first, third]):
            want = np.random.default_rng([7, index]).random(5)
            assert np.array_equal(stream.random(5), want)
        injector.reset()
        (again,) = injector.walk_streams(1)
        assert again.random() == np.random.default_rng([7, 0]).random()

    def test_walk_drops_count_and_no_stream_without_drops(self):
        injector = FaultInjector(FaultPlan(4, drop_probability=0.5, seed=0))
        (stream,) = injector.walk_streams(1)
        lost = sum(injector.walk_drops(stream) for _ in range(400))
        assert 120 < lost < 280
        assert injector.dropped == lost
        quiet = FaultInjector(FaultPlan(4, seed=0))
        assert quiet.walk_streams(3) is None  # no generator is built
        assert not quiet.walk_drops(None)
        assert quiet.dropped == 0

    def test_down_mask_matches_point_checks(self):
        plan = FaultPlan(
            5,
            crashes=(
                CrashWindow(1, 0.0, 10.0),
                CrashWindow(3, 5.0),
                CrashWindow(1, 15.0, 25.0),
            ),
            zombies=frozenset({4}),
        )
        injector = FaultInjector(plan)
        for time in (0.0, 4.0, 5.0, 10.0, 15.0, 25.0, 1e9):
            mask = injector.down_mask(time)
            assert mask.tolist() == [
                not injector.alive(node, time) for node in range(5)
            ]
            assert injector.down_mask(time) is mask  # cached per time
            assert not mask.flags.writeable
        assert injector.zombie_mask.tolist() == [False] * 4 + [True]

    def test_choose_live_starts(self):
        plan = FaultPlan(6, crashes=(CrashWindow(5),))
        starts = choose_live_starts(plan, 64, np.random.default_rng(2))
        assert starts.shape == (64,)
        assert 5 not in set(starts.tolist())
        dead = FaultPlan(2, crashes=(CrashWindow(0), CrashWindow(1)))
        with pytest.raises(ValueError, match="no live start"):
            choose_live_starts(dead, 4, np.random.default_rng(0))


# -------------------------------------------------- engine: equivalence


def _walk_signature(result):
    return (
        result.visits,
        result.messages,
        [(d.doc_id, d.score, d.node) for d in result.tracker.items()],
        result.discovered_at,
        result.degraded,
    )


class TestEngineEquivalence:
    """Fault-free resilient walk ≡ the pre-resilience protocol, bit for bit."""

    @pytest.mark.parametrize("fanout", [1, 2])
    def test_trivial_injector_matches_plain_walk(
        self, small_world_adjacency, fanout
    ):
        rng = np.random.default_rng(0)
        n = small_world_adjacency.n_nodes
        embeddings = rng.standard_normal((n, 8))
        stores = {
            17: make_store(8, gold=embeddings[17] / np.linalg.norm(embeddings[17]))
        }
        policy = EmbeddingGuidedPolicy(embeddings)
        query = embeddings[17] / np.linalg.norm(embeddings[17])
        config = WalkConfig(ttl=20, fanout=fanout, k=3)
        plain = run_query(
            small_world_adjacency, stores, policy, query, 3, config
        )
        resilient = run_query(
            small_world_adjacency,
            stores,
            policy,
            query,
            3,
            config,
            faults=FaultInjector(FaultPlan(n)),
            resilience=ResilienceConfig(),
        )
        assert _walk_signature(resilient) == _walk_signature(plain)
        assert resilient.retries == 0
        assert resilient.rerouted == 0
        assert resilient.walkers_lost == 0

    def test_resilience_config_without_faults_is_inert(self, path_adjacency):
        scores = np.arange(6, dtype=float)
        plain = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            0,
            WalkConfig(ttl=5),
        )
        with_config = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            0,
            WalkConfig(ttl=5),
            resilience=ResilienceConfig(max_retries=5, retry_backoff=2),
        )
        assert _walk_signature(with_config) == _walk_signature(plain)

    def test_redundancy_without_faults_equals_fanout(self, path_adjacency):
        scores = np.arange(6, dtype=float)
        via_fanout = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            2,
            WalkConfig(ttl=4, fanout=2),
        )
        via_redundancy = run_query(
            path_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            2,
            WalkConfig(ttl=4, fanout=1),
            resilience=ResilienceConfig(redundancy=2),
        )
        assert _walk_signature(via_redundancy) == _walk_signature(via_fanout)


# ------------------------------------- lockstep engine: scalar equivalence


def _all_fields(result):
    return (
        result.query_id,
        result.start_node,
        _walk_signature(result),
        result.retries,
        result.rerouted,
        result.walkers_lost,
        result.zombie_visits,
        result.deadline_hit,
        list(result.failed_peers.items()),
    )


@pytest.fixture
def faulty_setting(small_world_adjacency):
    n = small_world_adjacency.n_nodes
    rng = np.random.default_rng(3)
    stores = {}
    for node in rng.choice(n, size=15, replace=False).tolist():
        stores[node] = make_store(
            6, **{f"d{node}_{d}": rng.standard_normal(6) for d in range(2)}
        )
    generated = FaultPlan.generate(
        n,
        crash_fraction=0.15,
        crash_start=2.0,
        recover_after=6.0,
        drop_probability=0.3,
        zombie_fraction=0.1,
        seed=9,
    )
    # One more peer is down from the start and recovers at hop 3; it also
    # starts a walk, which dies at its source.
    dead = next(
        node for node in range(n)
        if not generated.crashed_at(node, 2.0) and node not in generated.zombies
    )
    plan = FaultPlan(
        n,
        crashes=generated.crashes + (CrashWindow(dead, 0.0, 3.0),),
        drop_probability=generated.drop_probability,
        zombies=generated.zombies,
        seed=generated.seed,
    )
    starts = list(range(1, n, 3)) + [dead]
    return {
        "adjacency": small_world_adjacency,
        "stores": stores,
        "plan": plan,
        "embeddings": rng.standard_normal((n, 6)),
        "queries": rng.standard_normal((len(starts), 6)),
        "starts": starts,
    }


def _lockstep_and_loop(setting, policy, config, **kwargs):
    """(batch results, scalar results, batch injector, scalar injector).

    ``policy`` is one policy or a per-walk list of score tables."""
    plan = setting["plan"]
    walk_policies = policy if isinstance(policy, list) else [policy] * len(setting["starts"])
    budgets = kwargs.pop("hop_budgets", None)
    lockstep = FaultInjector(plan) if kwargs.pop("faults", True) else None
    scalar = FaultInjector(plan) if lockstep is not None else None
    batch = run_queries(
        setting["adjacency"], setting["stores"], policy, setting["queries"],
        setting["starts"], config, query_ids=list(range(len(setting["starts"]))),
        faults=lockstep, hop_budgets=budgets, **kwargs,
    )
    loop = [
        scalar_run_query(
            setting["adjacency"], setting["stores"], walk_policies[i],
            setting["queries"][i], start, config, query_id=i, faults=scalar,
            hop_budget=None if budgets is None else budgets[i], **kwargs,
        )
        for i, start in enumerate(setting["starts"])
    ]
    return batch, loop, lockstep, scalar


def _assert_equal_walks(batch, loop, lockstep=None, scalar=None):
    assert [_all_fields(r) for r in batch] == [_all_fields(r) for r in loop]
    if lockstep is not None:
        assert lockstep.dropped == scalar.dropped
        assert lockstep.crash_detections == scalar.crash_detections


class _LargestIdPolicy(ForwardingPolicy):
    """Deterministic custom policy with only a select_batch (no score
    ranking): the largest ids of each ascending segment first."""

    def select_batch(self, query_embeddings, candidates, offsets, fanouts, rngs):
        chosen = [
            np.arange(hi - 1, lo - 1, -1, dtype=np.int64)[:fanout]
            for lo, hi, fanout in zip(offsets[:-1], offsets[1:], fanouts)
        ]
        counts = [part.shape[0] for part in chosen]
        return np.concatenate(chosen), np.concatenate(([0], np.cumsum(counts)))


class TestLockstepMatchesScalar:
    """run_queries under faults ≡ a loop of the scalar reference walk,
    field for field."""

    @pytest.mark.parametrize("cache", ["dense", "block-float64", "block-float32"])
    @pytest.mark.parametrize(
        "resilience",
        [
            ResilienceConfig(),
            ResilienceConfig(max_retries=0, retry_backoff=0, redundancy=2),
            ResilienceConfig(max_retries=3, retry_backoff=2, redundancy=3),
        ],
    )
    def test_embedding_guided_caches(self, faulty_setting, cache, resilience):
        embeddings = faulty_setting["embeddings"]
        if cache != "dense":
            keep = np.random.default_rng(1).random(embeddings.shape) < 0.5
            dtype = np.float32 if cache == "block-float32" else np.float64
            embeddings, _ = coerce_sparse_signal(
                np.where(keep, embeddings, 0.0), embeddings.shape[0], dtype
            )
        batch, loop, lockstep, scalar = _lockstep_and_loop(
            faulty_setting,
            EmbeddingGuidedPolicy(embeddings),
            WalkConfig(ttl=14, fanout=2, k=3),
            resilience=resilience,
            quarantine=[5, 11],
            hop_budgets=[4 + i % 12 for i in range(len(faulty_setting["starts"]))],
        )
        _assert_equal_walks(batch, loop, lockstep, scalar)
        assert sum(r.retries for r in batch) > 0
        assert sum(r.rerouted for r in batch) > 0
        assert sum(r.zombie_visits for r in batch) > 0
        assert any(r.deadline_hit for r in batch)
        assert any(r.walkers_lost and not r.visits for r in batch)  # dead source

    def test_walker_stuck_behind_dead_peers(self):
        """Every leaf of a star is down: the walker tries each, then has no
        candidate left and dies of faults with TTL and retries to spare."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(3))
        plan = FaultPlan(4, crashes=tuple(CrashWindow(leaf) for leaf in (1, 2, 3)))
        policy = PrecomputedScorePolicy(np.arange(4, dtype=float))
        config = WalkConfig(ttl=8)
        resilience = ResilienceConfig(max_retries=5)
        lockstep, scalar = FaultInjector(plan), FaultInjector(plan)
        (batch,) = run_queries(
            adjacency, {}, policy, np.ones(2), [0], config,
            faults=lockstep, resilience=resilience,
        )
        want = scalar_run_query(
            adjacency, {}, policy, np.ones(2), 0, config,
            faults=scalar, resilience=resilience,
        )
        _assert_equal_walks([batch], [want], lockstep, scalar)
        assert (batch.rerouted, batch.walkers_lost, batch.degraded) == (3, 1, True)

    def test_per_walk_score_tables(self, faulty_setting):
        """Per-walk score tables of three kinds stack into one batch."""
        adjacency = faulty_setting["adjacency"]
        embeddings = faulty_setting["embeddings"]
        cycle = [
            DegreeBiasedPolicy(adjacency),
            PrecomputedScorePolicy(embeddings[:, 2]),
            MaxChannelPolicy(embeddings[:, :3].T),
        ]
        policies = [cycle[i % len(cycle)] for i in range(len(faulty_setting["starts"]))]
        _assert_equal_walks(
            *_lockstep_and_loop(
                faulty_setting, policies, WalkConfig(ttl=12, fanout=2),
                resilience=ResilienceConfig(redundancy=2), quarantine=[5],
            )
        )

    @pytest.mark.parametrize("subclass", ["degree", "max-channel"])
    def test_table_subclass_walks_like_its_table(self, faulty_setting, subclass):
        """A degree-biased or max-channel walk under faults is the walk of
        a plain score table over the same values, field for field."""
        adjacency = faulty_setting["adjacency"]
        if subclass == "degree":
            policy = DegreeBiasedPolicy(adjacency)
        else:
            policy = MaxChannelPolicy(faulty_setting["embeddings"][:, :3].T)
        table = PrecomputedScorePolicy(policy.node_scores.copy())
        kwargs = dict(resilience=ResilienceConfig(redundancy=2), quarantine=[5])
        config = WalkConfig(ttl=12, fanout=2)
        got, loop, lockstep, scalar = _lockstep_and_loop(
            faulty_setting, policy, config, **kwargs
        )
        want = _lockstep_and_loop(faulty_setting, table, config, **kwargs)[0]
        _assert_equal_walks(got, loop, lockstep, scalar)
        _assert_equal_walks(got, want)

    def test_select_batch_only_policy(self, faulty_setting):
        """A deterministic policy that selects itself picks once per
        attempt round and still equals the oracle."""
        _assert_equal_walks(
            *_lockstep_and_loop(
                faulty_setting, _LargestIdPolicy(), WalkConfig(ttl=12, fanout=2),
                resilience=ResilienceConfig(redundancy=2), quarantine=[5],
            )
        )

    @pytest.mark.parametrize("kind", ["crashes", "recovering", "drops", "zombies"])
    def test_one_fault_kind_at_a_time(self, faulty_setting, kind):
        """Each fault kind of the setting's plan on its own: the counters of
        the other kinds stay at zero, and the walks still match."""
        full = faulty_setting["plan"]
        n = full.n_nodes
        plan = {
            "crashes": FaultPlan(n, crashes=tuple(CrashWindow(w.node) for w in full.crashes)),
            "recovering": FaultPlan(n, crashes=full.crashes),
            "drops": FaultPlan(n, drop_probability=full.drop_probability, seed=full.seed),
            "zombies": FaultPlan(n, zombies=full.zombies),
        }[kind]
        batch, loop, lockstep, scalar = _lockstep_and_loop(
            dict(faulty_setting, plan=plan),
            EmbeddingGuidedPolicy(faulty_setting["embeddings"]),
            WalkConfig(ttl=14, fanout=2, k=3),
            resilience=ResilienceConfig(redundancy=2),
        )
        _assert_equal_walks(batch, loop, lockstep, scalar)
        crashes = kind in ("crashes", "recovering")
        assert (lockstep.crash_detections > 0) == crashes
        assert (sum(r.rerouted for r in batch) > 0) == crashes
        assert (lockstep.dropped > 0) == (kind == "drops")
        assert (sum(r.retries for r in batch) > 0) == (kind == "drops")
        assert (sum(r.zombie_visits for r in batch) > 0) == (kind == "zombies")
        if kind == "zombies":
            assert not any(r.degraded for r in batch)

    @pytest.mark.parametrize("quarantine", [None, [2]])
    def test_walks_from_unconnected_peers(self, quarantine):
        """A walk that starts on a peer with no connection evaluates it and
        ends there; with a quarantine in force its walker counts as lost."""
        graph = nx.path_graph(5)
        graph.add_nodes_from([5, 6])
        adjacency = CompressedAdjacency.from_networkx(graph)
        plan = FaultPlan(
            7, crashes=(CrashWindow(3, 2.0),), drop_probability=0.3, seed=1
        )
        stores = {
            5: make_store(2, lonely=[1.0, 0.0]),
            1: make_store(2, near=[0.5, 0.5]),
        }
        policy = PrecomputedScorePolicy(np.arange(7, dtype=float))
        starts = [0, 5, 4, 6, 1]
        queries = np.ones((len(starts), 2))
        config = WalkConfig(ttl=6, k=2)
        resilience = ResilienceConfig(max_retries=3)
        lockstep, scalar = FaultInjector(plan), FaultInjector(plan)
        batch = run_queries(
            adjacency, stores, policy, queries, starts, config,
            faults=lockstep, resilience=resilience, quarantine=quarantine,
        )
        loop = [
            scalar_run_query(
                adjacency, stores, policy, query, start, config,
                faults=scalar, resilience=resilience, quarantine=quarantine,
            )
            for query, start in zip(queries, starts)
        ]
        _assert_equal_walks(batch, loop, lockstep, scalar)
        for result in (batch[1], batch[3]):
            assert result.path == [result.start_node]
            assert result.degraded == (quarantine is not None)
            assert result.walkers_lost == (0 if quarantine is None else 1)
        assert batch[1].found("lonely")

    def test_plan_smaller_than_overlay_rejected(self, path_adjacency):
        faults = FaultInjector(FaultPlan(4, drop_probability=0.1))
        policy = PrecomputedScorePolicy(np.arange(6, dtype=float))
        with pytest.raises(ValueError, match="fault plan covers 4 nodes"):
            run_queries(path_adjacency, {}, policy, np.ones(2), [0, 5], faults=faults)
        with pytest.raises(ValueError, match="fault plan covers 4 nodes"):
            run_query(path_adjacency, {}, policy, np.ones(2), 5, faults=faults)

    def test_degree_biased_policy(self, faulty_setting):
        _assert_equal_walks(
            *_lockstep_and_loop(
                faulty_setting,
                DegreeBiasedPolicy(faulty_setting["adjacency"]),
                WalkConfig(ttl=12),
                resilience=ResilienceConfig(redundancy=2),
            )
        )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cache_entry(self, faulty_setting, bad):
        """A non-finite score selects per attempt round instead."""
        embeddings = faulty_setting["embeddings"].copy()
        embeddings[::4, 0] = bad
        scores = faulty_setting["embeddings"][:, 1].copy()
        scores[::5] = bad
        for policy in (EmbeddingGuidedPolicy(embeddings), PrecomputedScorePolicy(scores)):
            _assert_equal_walks(
                *_lockstep_and_loop(
                    faulty_setting, policy, WalkConfig(ttl=12, fanout=2),
                    resilience=ResilienceConfig(redundancy=2),
                )
            )

    @pytest.mark.parametrize("precomputed", [False, True])
    @pytest.mark.parametrize("fanout", [1, 2])
    def test_quarantine_without_faults(self, faulty_setting, precomputed, fanout):
        embeddings = faulty_setting["embeddings"]
        policy = (
            PrecomputedScorePolicy(embeddings[:, 0])
            if precomputed
            else EmbeddingGuidedPolicy(embeddings)
        )
        batch, loop, _, _ = _lockstep_and_loop(
            faulty_setting,
            policy,
            WalkConfig(ttl=12, fanout=fanout),
            faults=False,
            quarantine=[1, 2, 3, 8, 13],
        )
        _assert_equal_walks(batch, loop)
        assert all(r.walkers_lost == 0 for r in batch)

    def test_resilience_without_faults_widens_source(self, faulty_setting):
        batch, loop, _, _ = _lockstep_and_loop(
            faulty_setting,
            EmbeddingGuidedPolicy(faulty_setting["embeddings"]),
            WalkConfig(ttl=10),
            faults=False,
            resilience=ResilienceConfig(redundancy=3),
        )
        _assert_equal_walks(batch, loop)
        assert max(r.messages for r in batch) > 9  # three source walkers

    def test_chunked_batch_takes_streams_in_order(self, faulty_setting, monkeypatch):
        from repro.core import batch as batch_module

        monkeypatch.setattr(batch_module, "VISITED_BUDGET_BYTES", 1)
        _assert_equal_walks(
            *_lockstep_and_loop(
                faulty_setting,
                EmbeddingGuidedPolicy(faulty_setting["embeddings"]),
                WalkConfig(ttl=12),
            )
        )

    def test_random_walk_under_faults(self, faulty_setting):
        """Stochastic policies: deterministic under the seed, and every hop
        crosses an edge from a previous-hop walker to a node up at that hop."""
        adjacency, plan = faulty_setting["adjacency"], faulty_setting["plan"]
        runs = [
            run_queries(
                adjacency, faulty_setting["stores"], RandomWalkPolicy(),
                faulty_setting["queries"], faulty_setting["starts"],
                WalkConfig(ttl=10, fanout=2), seed=4,
                faults=FaultInjector(plan), resilience=ResilienceConfig(redundancy=2),
            )
            for _ in range(2)
        ]
        assert [_all_fields(r) for r in runs[0]] == [_all_fields(r) for r in runs[1]]
        for result, start in zip(runs[0], faulty_setting["starts"]):
            if plan.crashed_at(start, 0.0):
                assert result.visits == [] and result.degraded
                continue
            assert result.visits[0] == (0, start)
            assert len(result.visits) <= 10 * 2
            walkers = {0: [start]}
            for hop, node in result.visits[1:]:
                assert not plan.crashed_at(node, float(hop))
                assert any(
                    adjacency.has_edge(parent, node)
                    for parent in walkers.get(hop - 1, [])
                )
                walkers.setdefault(hop, []).append(node)
            assert result.messages == len(result.visits) - 1 + result.retries + result.rerouted


# -------------------------------------------------- engine: under faults


class TestResilientWalk:
    @pytest.mark.parametrize("fanout, redundancy", [(2, 1), (1, 2)])
    def test_running_out_of_peers_is_not_a_fault(
        self, path_adjacency, fanout, redundancy
    ):
        """Two walkers leave node 0, which has one neighbour: one is sent
        and the other has no peer left.  Under a plan that injects nothing
        that is the fault-free walk, not a walker lost to faults, in the
        engine and in the scalar oracle alike."""
        policy = PrecomputedScorePolicy(np.arange(6, dtype=float))
        config = WalkConfig(ttl=8, fanout=fanout)
        resilience = ResilienceConfig(redundancy=redundancy)
        query = np.ones(2)
        clean = run_queries(
            path_adjacency, {}, policy, query[None, :], [0], config,
            resilience=resilience,
        )[0]
        engine = run_queries(
            path_adjacency, {}, policy, query[None, :], [0], config,
            faults=FaultInjector(FaultPlan(6)), resilience=resilience,
        )[0]
        oracle = scalar_run_query(
            path_adjacency, {}, policy, query, 0, config,
            faults=FaultInjector(FaultPlan(6)), resilience=resilience,
        )
        for result in (engine, oracle):
            assert not result.degraded
            assert result.walkers_lost == 0
            assert result.visits == clean.visits

    def test_crashed_source_degrades(self, path_adjacency):
        faults = FaultInjector(FaultPlan(6, crashes=(CrashWindow(2),)))
        result = run_query(
            path_adjacency,
            {2: make_store(2, doc=[1.0, 0.0])},
            PrecomputedScorePolicy(np.arange(6, dtype=float)),
            np.array([1.0, 0.0]),
            start_node=2,
            config=WalkConfig(ttl=5),
            faults=faults,
        )
        assert result.degraded
        assert result.visits == []
        assert result.results == []
        assert result.walkers_lost == 1

    def test_reroutes_around_dead_peer(self):
        """On a star, the best-scoring leaf is dead; the walker detects the
        failure and reroutes to the next-best live leaf."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(3))
        scores = np.array([0.0, 5.0, 1.0, 2.0])  # best leaf is 1
        faults = FaultInjector(FaultPlan(4, crashes=(CrashWindow(1),)))
        result = run_query(
            adjacency,
            {3: make_store(2, doc=[1.0, 0.0])},
            PrecomputedScorePolicy(scores),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=4),
            faults=faults,
        )
        # hop 1 goes to 3 (next best after dead 1), not 1
        assert result.visits[1] == (1, 3)
        assert result.rerouted >= 1
        assert faults.crash_detections >= 1
        assert result.found("doc")
        assert not result.degraded

    def test_retry_backoff_burns_ttl(self):
        """Each failed attempt costs retry_backoff TTL, shortening the walk."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(8))
        scores = np.arange(8, dtype=float)
        plan = FaultPlan(8, drop_probability=0.6, seed=5)
        faulty = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            0,
            WalkConfig(ttl=8),
            faults=FaultInjector(plan),
            resilience=ResilienceConfig(max_retries=10, retry_backoff=1),
        )
        clean = run_query(
            adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(2),
            0,
            WalkConfig(ttl=8),
        )
        assert faulty.retries > 0
        assert len(faulty.visits) < len(clean.visits)
        # every attempt (delivered or dropped) is a message on the wire
        assert faulty.messages == (len(faulty.visits) - 1) + faulty.retries

    def test_exhausted_retries_degrade_with_partial_results(self):
        """All neighbors dead: the walker dies but local results survive."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(3))
        faults = FaultInjector(
            FaultPlan(
                4, crashes=(CrashWindow(1), CrashWindow(2), CrashWindow(3))
            )
        )
        result = run_query(
            adjacency,
            {0: make_store(2, local=[0.8, 0.0])},
            PrecomputedScorePolicy(np.arange(4, dtype=float)),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=5),
            faults=faults,
            resilience=ResilienceConfig(max_retries=1),
        )
        assert result.degraded
        assert result.walkers_lost == 1
        assert result.found("local")  # best-so-far, not an exception
        assert result.path == [0]

    def test_zombie_routes_but_does_not_serve(self):
        """A zombie forwards the walk but its stale store yields nothing."""
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(3))
        scores = np.array([0.0, 1.0, 2.0])
        stores = {
            1: make_store(2, stale=[1.0, 0.0]),
            2: make_store(2, fresh=[0.9, 0.0]),
        }
        faults = FaultInjector(FaultPlan(3, zombies=frozenset({1})))
        result = run_query(
            adjacency,
            stores,
            PrecomputedScorePolicy(scores),
            np.array([1.0, 0.0]),
            start_node=0,
            config=WalkConfig(ttl=3, k=2),
            faults=faults,
        )
        assert result.path == [0, 1, 2]  # the walk passes through the zombie
        assert result.zombie_visits == 1
        assert not result.found("stale")
        assert result.found("fresh")

    def test_redundant_walkers_beat_single_under_crashes(
        self, small_world_adjacency
    ):
        """k-redundant walking recovers coverage a lone walker loses."""
        n = small_world_adjacency.n_nodes
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(n)
        plan = FaultPlan.generate(
            n, crash_fraction=0.2, protect=[3], seed=13
        )
        single = run_query(
            small_world_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(4),
            3,
            WalkConfig(ttl=15),
            faults=FaultInjector(plan),
            resilience=ResilienceConfig(redundancy=1),
        )
        redundant = run_query(
            small_world_adjacency,
            {},
            PrecomputedScorePolicy(scores),
            np.ones(4),
            3,
            WalkConfig(ttl=15),
            faults=FaultInjector(plan),
            resilience=ResilienceConfig(redundancy=3),
        )
        assert (
            redundant.unique_nodes_visited >= single.unique_nodes_visited
        )
        crashed = {w.node for w in plan.crashes}
        assert not crashed & {node for _, node in redundant.visits}

    def test_search_facade_threads_faults(self):
        """DiffusionSearchNetwork.search honors injector + resilience."""
        from repro.core.search import DiffusionSearchNetwork

        net = DiffusionSearchNetwork(nx.cycle_graph(8), dim=3, alpha=0.5)
        net.place_document("gold", np.array([1.0, 0.0, 0.0]), node=4)
        net.diffuse()
        query = np.array([1.0, 0.0, 0.0])
        plain = net.search(query, start_node=0, ttl=8)
        trivial = net.search(
            query,
            start_node=0,
            ttl=8,
            faults=FaultInjector(FaultPlan(8)),
            resilience=ResilienceConfig(),
        )
        assert _walk_signature(trivial) == _walk_signature(plain)
        crashed = net.search(
            query,
            start_node=0,
            ttl=8,
            faults=FaultInjector(FaultPlan(8, crashes=(CrashWindow(0),))),
        )
        assert crashed.degraded

    @pytest.mark.parametrize("recovers", [False, True])
    def test_crash_on_path_overlay(self, recovers):
        """Node 4 of a six-node path is down.  Down for good, it cuts the
        overlay and the walk keeps what it found before the cut; back up
        before the walk arrives (hop 4), it is just walked through."""
        from repro.core.search import DiffusionSearchNetwork

        net = DiffusionSearchNetwork(nx.path_graph(6), dim=3, alpha=0.5)
        net.place_document("near", np.array([1.0, 0.0, 0.0]), node=2)
        net.place_document("far", np.array([0.9, 0.1, 0.0]), node=5)
        net.diffuse()
        query = np.array([1.0, 0.0, 0.0])
        plan = FaultPlan(6, crashes=(CrashWindow(4, 0.0, 4.0 if recovers else np.inf),))
        result = net.search(query, 0, ttl=6, k=2, faults=FaultInjector(plan))
        want = scalar_run_query(
            net.adjacency, net.stores, net.default_policy(), query, 0,
            WalkConfig(ttl=6, k=2), faults=FaultInjector(plan),
        )
        assert _all_fields(result) == _all_fields(want)
        assert result.found("near")
        assert result.found("far") == recovers
        assert (4 in result.path) == recovers
        assert result.rerouted == (0 if recovers else 1)

    def test_deterministic_replay(self, small_world_adjacency):
        """Same plan seed, same walk — faults are exactly reproducible."""
        n = small_world_adjacency.n_nodes
        plan = FaultPlan.generate(
            n, crash_fraction=0.15, drop_probability=0.1, protect=[3], seed=2
        )
        runs = []
        for _ in range(2):
            result = run_query(
                small_world_adjacency,
                {},
                PrecomputedScorePolicy(np.arange(n, dtype=float)),
                np.ones(4),
                3,
                WalkConfig(ttl=12),
                faults=FaultInjector(plan),
                resilience=ResilienceConfig(redundancy=2),
            )
            runs.append(
                (_walk_signature(result), result.retries, result.rerouted)
            )
        assert runs[0] == runs[1]


class TestResilienceConfigValidation:
    """Construction-time validation (integer fields, not just float checks)."""

    def test_defaults_valid(self):
        config = ResilienceConfig()
        assert config.max_retries >= 0

    def test_rejects_non_integer_fields(self):
        with pytest.raises(TypeError):
            ResilienceConfig(max_retries=1.5)
        with pytest.raises(TypeError):
            ResilienceConfig(retry_backoff=0.5)
        with pytest.raises(TypeError):
            ResilienceConfig(redundancy=1.5)
        with pytest.raises(TypeError):
            ResilienceConfig(redundancy=True)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(retry_backoff=-2)
        with pytest.raises(ValueError):
            ResilienceConfig(redundancy=0)

    def test_accepts_numpy_ints(self):
        import numpy as np

        config = ResilienceConfig(
            max_retries=np.int64(4), retry_backoff=np.int32(2), redundancy=np.int64(2)
        )
        assert config.max_retries == 4
        assert config.retry_backoff == 2
        assert config.redundancy == 2
