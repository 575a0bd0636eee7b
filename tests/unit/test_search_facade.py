"""Tests for the DiffusionSearchNetwork public facade."""

import networkx as nx
import numpy as np
import pytest

from repro.core.backends import SparseDiffusionBackend, get_backend
from repro.core.search import DiffusionSearchNetwork
from protocol_reference import event_search

# The exact incremental backend: no pruning, so a patch is exact to the push
# tolerance.
EXACT = SparseDiffusionBackend(epsilon=0.0)


@pytest.fixture
def net():
    graph = nx.cycle_graph(8)
    return DiffusionSearchNetwork(graph, dim=3, alpha=0.5)


class TestDocumentManagement:
    def test_place_and_locate(self, net):
        net.place_document("d1", np.array([1.0, 0.0, 0.0]), node=2)
        assert net.location_of("d1") == 2
        assert net.documents_at(2) == ["d1"]
        assert net.n_documents == 1

    def test_duplicate_placement_rejected(self, net):
        net.place_document("d1", np.ones(3), node=0)
        with pytest.raises(ValueError, match="already placed"):
            net.place_document("d1", np.ones(3), node=1)

    def test_out_of_range_node_rejected(self, net):
        with pytest.raises(ValueError):
            net.place_document("d1", np.ones(3), node=50)

    def test_remove_document(self, net):
        net.place_document("d1", np.ones(3), node=2)
        net.remove_document("d1")
        assert net.n_documents == 0
        assert net.documents_at(2) == []

    def test_clear_documents(self, net):
        net.place_document("a", np.ones(3), 0)
        net.place_document("b", np.ones(3), 1)
        net.clear_documents()
        assert net.n_documents == 0

    def test_place_documents_bulk(self, net):
        net.place_documents(
            [("a", np.ones(3), 0), ("b", np.ones(3), 1)]
        )
        assert net.n_documents == 2


class TestDiffusionLifecycle:
    def test_embeddings_before_diffuse_raises(self, net):
        with pytest.raises(RuntimeError, match="diffuse"):
            _ = net.embeddings

    def test_staleness_tracking(self, net):
        net.place_document("a", np.ones(3), 0)
        assert net.is_stale
        net.diffuse()
        assert not net.is_stale
        net.place_document("b", np.ones(3), 1)
        assert net.is_stale

    def test_personalization_matrix_shape(self, net):
        net.place_document("a", np.array([1.0, 2.0, 3.0]), 5)
        e0 = net.personalization()
        assert e0.shape == (8, 3)
        assert np.allclose(e0[5], [1.0, 2.0, 3.0])
        assert np.allclose(e0[0], 0.0)

    def test_diffuse_stores_outcome(self, net):
        net.place_document("a", np.ones(3), 0)
        outcome = net.diffuse()
        assert net.last_diffusion is outcome
        assert net.embeddings.shape == (8, 3)

    def test_async_method_through_facade(self, net):
        net.place_document("a", np.ones(3), 0)
        sync = net.diffuse(method="solve").embeddings
        asyn = net.diffuse(method="async", tol=1e-8, seed=0).embeddings
        assert np.max(np.abs(sync - asyn)) < 1e-5

    def test_weighting_forwarded(self):
        graph = nx.path_graph(3)
        sum_net = DiffusionSearchNetwork(graph, dim=2, weighting="sum")
        mean_net = DiffusionSearchNetwork(graph, dim=2, weighting="mean")
        for network in (sum_net, mean_net):
            network.place_document("a", np.array([2.0, 0.0]), 0)
            network.place_document("b", np.array([0.0, 2.0]), 0)
        assert np.allclose(sum_net.personalization()[0], [2.0, 2.0])
        assert np.allclose(mean_net.personalization()[0], [1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_backend_diffuses_dense_personalization(self, dtype):
        """The baseline is kept as a block, but a dense backend still runs
        on :meth:`personalization`'s values and dtype, bit for bit."""
        graph = nx.connected_watts_strogatz_graph(30, 4, 0.3, seed=2)
        net = DiffusionSearchNetwork(graph, dim=4, alpha=0.5, dtype=dtype)
        rng = np.random.default_rng(2)
        for i in range(7):
            net.place_document(f"d{i}", rng.standard_normal(4), (i * 4) % 30)
        outcome = net.diffuse(method="power", tol=1e-10)
        direct = get_backend("power").diffuse(
            net.adjacency, net.personalization(), alpha=0.5, tol=1e-10
        )
        assert isinstance(outcome.embeddings, np.ndarray)
        assert outcome.embeddings.dtype == direct.embeddings.dtype
        assert np.array_equal(outcome.embeddings, direct.embeddings)
        assert outcome.iterations == direct.iterations

    @pytest.mark.parametrize("method", ["power", EXACT], ids=["power", "exact"])
    def test_diffused_signal_mass_is_baseline_l1(self, net, method):
        """The L1 mass of the diffused personalization, whichever backend
        ran: 0.0 before a diffusion, unchanged by pending churn."""
        assert net.diffused_signal_mass() == 0.0
        rng = np.random.default_rng(5)
        for i in range(4):
            net.place_document(f"d{i}", rng.standard_normal(3), i % 3)
        net.diffuse(method=method, tol=1e-10)
        mass = float(np.abs(net.personalization()).sum())
        assert net.diffused_signal_mass() == pytest.approx(mass, rel=1e-12)
        net.place_document("late", rng.standard_normal(3), 6)
        assert net.diffused_signal_mass() == pytest.approx(mass, rel=1e-12)


class TestIncrementalRefresh:
    def test_dirty_nodes_track_changes(self, net):
        assert net.dirty_nodes == frozenset()
        net.place_document("a", np.ones(3), 2)
        net.place_document("b", np.ones(3), 5)
        assert net.dirty_nodes == frozenset({2, 5})
        net.diffuse()
        assert net.dirty_nodes == frozenset()
        net.remove_document("a")
        assert net.dirty_nodes == frozenset({2})

    def test_clear_documents_marks_occupied_nodes(self, net):
        net.place_document("a", np.ones(3), 2)
        net.diffuse()
        net.clear_documents()
        assert net.dirty_nodes == frozenset({2})

    def test_single_placement_matches_exact_solve(self, net):
        """Acceptance: incremental patch ≡ full solve within 1e-6."""
        rng = np.random.default_rng(0)
        for i in range(6):
            net.place_document(f"d{i}", rng.standard_normal(3), i)
        net.diffuse(method=EXACT, tol=1e-10)
        net.place_document("new", rng.standard_normal(3), 7)
        outcome = net.diffuse(method=EXACT, tol=1e-10)
        assert outcome.incremental
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(outcome.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_removal_matches_exact_solve(self, net):
        rng = np.random.default_rng(1)
        for i in range(6):
            net.place_document(f"d{i}", rng.standard_normal(3), i)
        net.diffuse(method=EXACT, tol=1e-10)
        net.remove_document("d3")
        outcome = net.diffuse(method=EXACT, tol=1e-10)
        assert outcome.incremental
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(outcome.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_first_sparse_diffusion_is_cold_start(self, net):
        net.place_document("a", np.ones(3), 0)
        outcome = net.diffuse(method=EXACT)
        assert not outcome.incremental

    def test_incremental_after_power_base(self, net):
        """A block patch composes with any previously cached diffusion."""
        net.place_document("a", np.ones(3), 0)
        net.diffuse(method="power", tol=1e-12)
        net.place_document("b", np.ones(3), 4)
        outcome = net.diffuse(method=EXACT, tol=1e-10)
        assert outcome.incremental
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(outcome.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_forced_incremental_without_base_rejected(self, net):
        net.place_document("a", np.ones(3), 0)
        with pytest.raises(ValueError, match="previous diffusion"):
            net.diffuse(method=EXACT, incremental=True)

    def test_forced_incremental_on_non_incremental_backend_rejected(self, net):
        net.place_document("a", np.ones(3), 0)
        net.diffuse()
        with pytest.raises(ValueError, match="incremental"):
            net.diffuse(method="power", incremental=True)

    def test_noop_refresh_costs_nothing(self, net):
        net.place_document("a", np.ones(3), 0)
        net.diffuse(method=EXACT)
        outcome = net.diffuse(method=EXACT)
        assert outcome.incremental
        assert outcome.iterations == 0
        assert outcome.operations == 0

    def test_truncated_incremental_patch_not_committed(self, net):
        """A sweep-capped patch must not advance the baseline (the lost
        correction would become permanently invisible), nor write into the
        block cache it patches in place: the block's bytes and the scores
        of a policy over it are unchanged."""
        rng = np.random.default_rng(3)
        net.place_document("a", rng.standard_normal(3), 0)
        net.diffuse(method=EXACT, tol=1e-10)
        before = net.embeddings.copy()
        block_bytes = net.last_diffusion.embeddings.toarray().tobytes()
        query = rng.standard_normal(3)

        def scores():
            return net.default_policy().score_batch(
                query[None, :], np.arange(8), np.array([0, 8])
            )

        scores_before = scores()
        net.place_document("b", 10.0 * np.ones(3), 4)
        truncated = net.diffuse(method=EXACT, tol=1e-12, max_iterations=1)
        assert truncated.incremental and not truncated.converged
        assert net.is_stale
        assert net.dirty_nodes == frozenset({4})
        assert np.array_equal(net.embeddings, before)
        assert net.last_diffusion.embeddings.toarray().tobytes() == block_bytes
        assert scores().tobytes() == scores_before.tobytes()
        # A retry with budget re-diffuses the full delta and is exact.
        retried = net.diffuse(method=EXACT, tol=1e-10)
        assert retried.incremental and retried.converged
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(retried.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_unconverged_cold_start_is_not_a_baseline(self, net):
        """A truncated full run must not seed incremental refreshes — its
        residual would be invisible to every later delta patch."""
        rng = np.random.default_rng(4)
        net.place_document("a", rng.standard_normal(3), 0)
        truncated = net.diffuse(method=EXACT, tol=1e-12, max_iterations=1)
        assert not truncated.converged
        net.place_document("b", rng.standard_normal(3), 4)
        outcome = net.diffuse(method=EXACT, tol=1e-10)
        assert not outcome.incremental  # fell back to a full run
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(outcome.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_out_of_band_store_mutation_corrected_by_full_run(self, net):
        """The incremental delta is assembled from the dirty-marked rows
        only (one coalesced push per refresh window), so mutations that
        bypass the facade API are invisible to it — a full diffusion is the
        documented way to fold them in, and marking the node dirty through
        the facade repairs the incremental path too."""
        net.place_document("a", np.ones(3), 0)
        net.diffuse(method=EXACT, tol=1e-10)
        net.stores[0].add("sneaky", np.array([0.0, 2.0, 0.0]))
        outcome = net.diffuse(method=EXACT, tol=1e-10)
        assert outcome.incremental
        assert outcome.iterations == 0  # no dirty rows -> nothing pushed
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(exact.embeddings - net.embeddings)) < 1e-6
        # A facade-visible change on the same node re-marks it dirty; the
        # next incremental patch then diffuses the store's *current* row,
        # sneaky document included.
        net.place_document("c", np.ones(3), 0)
        patched = net.diffuse(method=EXACT, tol=1e-10)
        assert patched.incremental
        exact = net.diffuse(method="solve", incremental=False)
        assert np.max(np.abs(patched.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_accumulated_residual_tracks_patches(self, net):
        """The tracker's patch residual grows across patches and resets on
        a full run, whose own residual becomes the floor."""
        rng = np.random.default_rng(2)
        net.place_document("a", rng.standard_normal(3), 0)
        first = net.diffuse(method=EXACT, tol=1e-6)
        assert net.staleness.floor_l1 == first.residual_l1
        total = 0.0
        for i in range(3):
            net.place_document(f"b{i}", rng.standard_normal(3), i + 1)
            total += net.diffuse(method=EXACT, tol=1e-6).residual_l1
        assert net.staleness.patch_residual_l1 == pytest.approx(total)
        assert total > 0
        assert net.staleness_bound() == pytest.approx(first.residual_l1 + total)
        net.diffuse(method="solve", incremental=False)
        assert net.staleness.patch_residual_l1 == 0.0
        assert net.staleness_bound() == 0.0

    def test_search_after_incremental_refresh(self, net):
        net.place_document("decoy", np.array([0.0, 1.0, 0.0]), 1)
        net.diffuse(method=EXACT, tol=1e-10)
        net.place_document("gold", np.array([1.0, 0.0, 0.0]), 4)
        net.diffuse(method=EXACT, tol=1e-10)
        result = net.search(np.array([1.0, 0.0, 0.0]), start_node=2, ttl=8)
        assert result.found("gold", top=1)


class TestSearch:
    def test_finds_local_document(self, net):
        net.place_document("gold", np.array([1.0, 0.0, 0.0]), 3)
        net.diffuse()
        result = net.search(np.array([1.0, 0.0, 0.0]), start_node=3, ttl=1)
        assert result.found("gold", top=1)
        assert result.hops_to("gold") == 0

    def test_finds_nearby_document(self, net):
        net.place_document("gold", np.array([1.0, 0.0, 0.0]), 4)
        net.diffuse()
        result = net.search(np.array([1.0, 0.0, 0.0]), start_node=2, ttl=8)
        assert result.found("gold", top=1)
        assert result.hops_to("gold") == 2

    def test_search_requires_diffusion(self, net):
        net.place_document("gold", np.ones(3), 0)
        with pytest.raises(RuntimeError):
            net.search(np.ones(3), start_node=0)

    def test_runtime_matches_engine(self, net):
        """The event-driven protocol walks the exact same path."""
        net.place_document("gold", np.array([1.0, 0.0, 0.0]), 5)
        net.place_document("decoy", np.array([0.0, 1.0, 0.0]), 1)
        net.diffuse()
        query = np.array([1.0, 0.1, 0.0])
        fast = net.search(query, start_node=0, ttl=6)
        slow = event_search(net, query, start_node=0, ttl=6)
        assert fast.path == slow.path
        assert [d.doc_id for d in fast.results] == [d.doc_id for d in slow.results]
        assert fast.hops_to("gold") == slow.hops_to("gold")

    def test_custom_policy_injection(self, net):
        from repro.core.forwarding import RandomWalkPolicy

        net.place_document("gold", np.ones(3), 0)
        net.diffuse()
        result = net.search(
            np.ones(3), start_node=0, ttl=3, policy=RandomWalkPolicy(), seed=1
        )
        assert result.found("gold")

    def test_compressed_adjacency_constructor(self):
        from repro.graphs.adjacency import CompressedAdjacency

        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(4))
        net = DiffusionSearchNetwork(adjacency, dim=2)
        assert net.n_nodes == 4
