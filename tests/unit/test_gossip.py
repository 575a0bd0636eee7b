"""Tests for the asynchronous decentralized PPR diffusion."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import transition_matrix
from repro.runtime.gossip import AsyncPPRDiffusion
from repro.runtime.network import LatencyModel


def closed_form(adjacency, personalization, alpha):
    operator = transition_matrix(adjacency, "column")
    return PersonalizedPageRank(alpha, method="solve").apply(
        operator, personalization
    )


@pytest.fixture(scope="module")
def ring_setup():
    adjacency = CompressedAdjacency.from_networkx(nx.cycle_graph(12))
    rng = np.random.default_rng(5)
    personalization = rng.standard_normal((12, 4))
    return adjacency, personalization


class TestPushModeConvergence:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_converges_to_closed_form(self, ring_setup, alpha):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=alpha, tol=1e-8, seed=1
        )
        outcome = diffusion.run()
        reference = closed_form(adjacency, personalization, alpha)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-5

    def test_quiesces(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-7, seed=2
        )
        outcome = diffusion.run()
        # after quiescence, running again dispatches nothing
        again = diffusion.network.run()
        assert again == 0
        assert outcome.residual < 1e-5

    def test_residual_reported(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-7, seed=3
        )
        outcome = diffusion.run()
        assert outcome.residual < 10 * 1e-7

    def test_latency_jitter_does_not_break_convergence(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency,
            personalization,
            alpha=0.4,
            tol=1e-8,
            latency=LatencyModel(1.0, 2.0),
            seed=4,
        )
        outcome = diffusion.run()
        reference = closed_form(adjacency, personalization, 0.4)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-5

    def test_message_accounting(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-6, seed=5
        )
        outcome = diffusion.run()
        assert outcome.messages > 0
        assert outcome.bytes > outcome.messages  # vectors are > 1 byte each

    def test_star_graph(self):
        """Hub-and-spoke: extreme degree asymmetry still converges."""
        adjacency = CompressedAdjacency.from_networkx(nx.star_graph(8))
        rng = np.random.default_rng(6)
        personalization = rng.standard_normal((9, 3))
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.3, tol=1e-8, seed=6
        )
        outcome = diffusion.run()
        reference = closed_form(adjacency, personalization, 0.3)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-5

    def test_scalar_personalization(self):
        adjacency = CompressedAdjacency.from_networkx(nx.path_graph(6))
        personalization = np.arange(6, dtype=float)
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-9, seed=7
        )
        outcome = diffusion.run()
        reference = closed_form(adjacency, personalization[:, None], 0.5)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-6


class TestPeriodicMode:
    def test_converges_in_distribution(self, ring_setup):
        """Periodic pairwise exchanges approach the closed form by a horizon."""
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency,
            personalization,
            alpha=0.5,
            tol=1e-9,
            mode="periodic",
            period=1.0,
            seed=8,
        )
        outcome = diffusion.run(until=300.0)
        reference = closed_form(adjacency, personalization, 0.5)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-2


class TestChurn:
    def test_personalization_update_rediffuses(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-8, seed=9
        )
        diffusion.run()
        updated = personalization.copy()
        updated[3] = 10.0
        diffusion.update_personalization(3, updated[3])
        outcome = diffusion.run()
        reference = closed_form(adjacency, updated, 0.5)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-4

    def test_join_node(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-8, seed=10
        )
        diffusion.run()
        new_p = np.array([1.0, -1.0, 0.5, 0.0])
        diffusion.join_node(12, neighbors=[0, 6], personalization=new_p)
        outcome = diffusion.run()
        new_adjacency = diffusion.network.to_adjacency()
        full_p = np.vstack([personalization, new_p[None, :]])
        reference = closed_form(new_adjacency, full_p, 0.5)
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-4

    def test_leave_node(self, ring_setup):
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(
            adjacency, personalization, alpha=0.5, tol=1e-8, seed=11
        )
        diffusion.run()
        diffusion.leave_node(4)
        outcome = diffusion.run()
        remaining = [i for i in range(12) if i != 4]
        reference = closed_form(
            diffusion.network.to_adjacency(), personalization[remaining], 0.5
        )
        assert np.max(np.abs(outcome.embeddings - reference)) < 1e-4
        assert outcome.node_ids == remaining


    def test_node_accessor(self, ring_setup):
        """``node(i)`` is the actor holding node i's own state, joins included."""
        adjacency, personalization = ring_setup
        diffusion = AsyncPPRDiffusion(adjacency, personalization, seed=12)
        node = diffusion.node(3)
        assert node.node_id == 3
        assert np.array_equal(node.personalization, personalization[3])
        diffusion.join_node(12, neighbors=[0], personalization=np.ones(4))
        assert np.array_equal(diffusion.node(12).personalization, np.ones(4))
        with pytest.raises(KeyError):
            diffusion.node(13)


class TestValidation:
    def test_row_mismatch_rejected(self, ring_setup):
        adjacency, _ = ring_setup
        with pytest.raises(ValueError, match="rows"):
            AsyncPPRDiffusion(adjacency, np.zeros((5, 2)))

    def test_bad_mode_rejected(self, ring_setup):
        adjacency, personalization = ring_setup
        with pytest.raises(ValueError, match="mode"):
            AsyncPPRDiffusion(adjacency, personalization, mode="flood")
