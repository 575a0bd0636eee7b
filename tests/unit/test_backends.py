"""Tests for the diffusion backend registry and the built-in backends."""

import numpy as np
import pytest

from repro.core.backends import (
    ASYNC_RESIDUAL_SLACK,
    AsyncProtocolBackend,
    DiffusionBackend,
    DiffusionOutcome,
    SparseDiffusionBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core.diffusion import diffuse_embeddings, refresh_embeddings
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz


@pytest.fixture(scope="module")
def adjacency():
    return CompressedAdjacency.from_networkx(
        connected_watts_strogatz(40, 4, 0.2, seed=13)
    )


@pytest.fixture(scope="module")
def personalization(adjacency):
    rng = np.random.default_rng(3)
    return rng.standard_normal((adjacency.n_nodes, 5))


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in ("power", "solve", "async", "sparse"):
            assert name in names
        assert "push" not in names

    def test_get_backend_instantiates(self):
        backend = get_backend("sparse")
        assert isinstance(backend, SparseDiffusionBackend)
        assert backend.supports_incremental

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="method"):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(SparseDiffusionBackend)

    def test_custom_backend_dispatches(self, adjacency, personalization):
        @register_backend
        class EchoBackend(DiffusionBackend):
            """Trivial strategy: no diffusion at all (for plugin testing)."""

            name = "echo-test"

            def diffuse(self, topology, personalization, *, alpha, **kwargs):
                return DiffusionOutcome(
                    embeddings=np.asarray(personalization),
                    method=self.name,
                    alpha=alpha,
                    iterations=0,
                    residual=0.0,
                    converged=True,
                )

        try:
            outcome = diffuse_embeddings(
                adjacency, personalization, method="echo-test"
            )
            assert outcome.method == "echo-test"
            assert np.array_equal(outcome.embeddings, personalization)
        finally:
            unregister_backend("echo-test")
        assert "echo-test" not in available_backends()

    def test_register_requires_name(self):
        class Nameless(DiffusionBackend):
            def diffuse(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="name"):
            register_backend(Nameless)


class TestExactSparseBackend:
    def test_agrees_with_solve(self, adjacency, personalization):
        exact = diffuse_embeddings(
            adjacency,
            personalization,
            alpha=0.4,
            method=SparseDiffusionBackend(epsilon=0.0),
            tol=1e-10,
        )
        solve = diffuse_embeddings(
            adjacency, personalization, alpha=0.4, method="solve"
        )
        assert exact.converged
        assert exact.operations > 0
        assert np.max(np.abs(exact.embeddings.toarray() - solve.embeddings)) < 1e-8

    def test_refresh_embeddings_facade(self, adjacency, personalization):
        backend = SparseDiffusionBackend(epsilon=0.0)
        base = diffuse_embeddings(
            adjacency, personalization, alpha=0.4, method=backend, tol=1e-11
        )
        delta = np.zeros_like(personalization)
        delta[7] = 1.0
        patched = refresh_embeddings(
            adjacency, base.embeddings, delta, alpha=0.4, method=backend, tol=1e-11
        )
        assert patched.incremental
        exact = diffuse_embeddings(
            adjacency, personalization + delta, alpha=0.4, method="solve"
        )
        assert np.max(np.abs(patched.embeddings.toarray() - exact.embeddings)) < 1e-6

    def test_refresh_embeddings_defaults_to_sparse(self, adjacency, personalization):
        """Without ``method`` the patch runs the ``sparse`` backend."""
        base = diffuse_embeddings(
            adjacency, personalization, alpha=0.4, method="sparse", tol=1e-10
        )
        delta = np.zeros_like(personalization)
        delta[7] = 1.0
        default = refresh_embeddings(
            adjacency, base.embeddings, delta, alpha=0.4, tol=1e-10
        )
        named = refresh_embeddings(
            adjacency, base.embeddings, delta, alpha=0.4, method="sparse", tol=1e-10
        )
        assert default.incremental and default.converged
        assert default.operations == named.operations > 0
        assert np.array_equal(default.embeddings.nodes, named.embeddings.nodes)
        assert np.array_equal(default.embeddings.rows, named.embeddings.rows)

    def test_refresh_requires_incremental_backend(self, adjacency):
        with pytest.raises(ValueError, match="incremental"):
            refresh_embeddings(
                adjacency, np.zeros((40, 2)), np.zeros((40, 2)), method="power"
            )

    def test_base_refresh_raises_not_implemented(self, adjacency):
        backend = get_backend("solve")
        with pytest.raises(NotImplementedError, match="incremental"):
            backend.refresh(
                adjacency, np.zeros((40, 2)), np.zeros((40, 2)), alpha=0.5
            )


class TestAsyncConvergenceCriterion:
    """The named threshold replacing the old inline heuristic."""

    def test_boundary(self):
        tol, n_nodes = 1e-8, 100
        threshold = ASYNC_RESIDUAL_SLACK * tol * n_nodes
        assert AsyncProtocolBackend.is_converged(threshold * 0.99, tol, n_nodes)
        assert not AsyncProtocolBackend.is_converged(threshold, tol, n_nodes)
        assert not AsyncProtocolBackend.is_converged(threshold * 1.01, tol, n_nodes)

    def test_empty_network_floor(self):
        # max(1, n_nodes) keeps the criterion meaningful for n_nodes = 0.
        assert AsyncProtocolBackend.is_converged(0.0, 1e-8, 0)
        assert not AsyncProtocolBackend.is_converged(1.0, 1e-8, 0)

    def test_outcome_uses_criterion(self, adjacency, personalization):
        outcome = diffuse_embeddings(
            adjacency, personalization, alpha=0.4, method="async", tol=1e-8, seed=0
        )
        assert outcome.converged == AsyncProtocolBackend.is_converged(
            outcome.residual, 1e-8, adjacency.n_nodes
        )

    @pytest.mark.parametrize("cap", [0.5, 2.5, True, np.float64(3.0)])
    def test_non_integer_iteration_cap_rejected(self, adjacency, personalization, cap):
        # The cap scales the event budget (max_iterations × n_nodes events).
        with pytest.raises(TypeError):
            diffuse_embeddings(
                adjacency, personalization, alpha=0.4, method="async", max_iterations=cap
            )
