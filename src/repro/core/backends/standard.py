"""The seed strategies as backends: power iteration, exact solve, async.

These wrap the pre-existing implementations (:class:`PersonalizedPageRank`
and :class:`AsyncPPRDiffusion`) behind the :class:`DiffusionBackend`
interface; their numerical behaviour is unchanged from the original
``diffuse_embeddings`` branches.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import (
    DiffusionBackend,
    DiffusionOutcome,
    register_backend,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import PersonalizedPageRank
from repro.gsp.normalization import NormalizationKind, transition_matrix
from repro.runtime.gossip import AsyncPPRDiffusion
from repro.runtime.network import LatencyModel
from repro.utils import check_positive_int
from repro.utils.rng import RngLike

#: Slack factor of the async convergence criterion (see
#: :meth:`AsyncProtocolBackend.is_converged`).
ASYNC_RESIDUAL_SLACK = 10.0


class _FilterBackend(DiffusionBackend):
    """Shared plumbing for the strategies backed by the PPR graph filter."""

    def diffuse(
        self,
        topology: CompressedAdjacency,
        personalization: np.ndarray,
        *,
        alpha: float,
        normalization: NormalizationKind = "column",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
        latency: LatencyModel | None = None,
        seed: RngLike = None,
    ) -> DiffusionOutcome:
        operator = transition_matrix(topology, normalization)
        ppr = PersonalizedPageRank(
            alpha, tol=tol, max_iterations=max_iterations, method=self.name
        )
        detail = ppr.apply_detailed(operator, personalization)
        return DiffusionOutcome(
            embeddings=np.asarray(detail.signal),
            method=self.name,
            alpha=alpha,
            iterations=detail.iterations,
            residual=detail.residual,
            converged=detail.converged,
        )


@register_backend
class PowerIterationBackend(_FilterBackend):
    """Synchronous power iteration of eq. (7): the coordinated network."""

    name = "power"


@register_backend
class SparseSolveBackend(_FilterBackend):
    """Exact sparse direct solve of eq. (6): ground truth."""

    name = "solve"


@register_backend
class AsyncProtocolBackend(DiffusionBackend):
    """The decentralized event-driven protocol (what the real P2P runs)."""

    name = "async"

    @staticmethod
    def is_converged(residual: float, tol: float, n_nodes: int) -> bool:
        """Convergence test for the quiesced asynchronous protocol.

        The protocol quiesces when every *node* stops re-broadcasting, i.e.
        each node's estimate moved by less than ``tol`` since its last push.
        The reported ``residual`` is the network-wide fixed-point residual
        summed over nodes, so at quiescence it is bounded by roughly
        ``tol · n_nodes`` (each node may sit up to ``tol`` from its local
        fixed point).  :data:`ASYNC_RESIDUAL_SLACK` absorbs the constant
        factors — in-flight messages and per-node estimates drifting while
        neighbors settle — so the criterion is

            residual < ASYNC_RESIDUAL_SLACK · tol · max(1, n_nodes).
        """
        return residual < ASYNC_RESIDUAL_SLACK * tol * max(1, n_nodes)

    def diffuse(
        self,
        topology: CompressedAdjacency,
        personalization: np.ndarray,
        *,
        alpha: float,
        normalization: NormalizationKind = "column",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
        latency: LatencyModel | None = None,
        seed: RngLike = None,
    ) -> DiffusionOutcome:
        if normalization != "column":
            raise ValueError(
                "the decentralized protocol implements column normalization; "
                f"got {normalization!r}"
            )
        check_positive_int(max_iterations, "max_iterations")
        protocol = AsyncPPRDiffusion(
            topology,
            personalization,
            alpha=alpha,
            tol=tol,
            latency=latency,
            seed=seed,
        )
        outcome = protocol.run(max_events=max_iterations * topology.n_nodes)
        return DiffusionOutcome(
            embeddings=outcome.embeddings,
            method=self.name,
            alpha=alpha,
            iterations=outcome.events,
            residual=outcome.residual,
            converged=self.is_converged(outcome.residual, tol, topology.n_nodes),
            messages=outcome.messages,
            events=outcome.events,
            sim_time=outcome.time,
        )
