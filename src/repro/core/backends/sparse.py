"""Sparse-first backend: pruned row-block diffusion with incremental refresh.

Wraps :class:`repro.gsp.filters.SparsePersonalizedPageRank` (pruned power
iteration on a row-sparse iterate) and the forward-push kernel of
:mod:`repro.gsp.push` behind the :class:`DiffusionBackend` interface.  The
personalization never densifies: the backend takes a
:class:`~repro.gsp.filters.RowBlock` personalization (``accepts_sparse``;
dense and ``scipy.sparse`` input is converted on entry), keeps the iterate
as support rows through every sweep, and returns the embeddings as a
``RowBlock`` — memory and work scale with the diffused mass's support, not
with ``n_nodes × dim``, which is what lets the precompute phase run at
100k+ nodes (see ``benchmarks/test_bench_sparse_scale.py``).

It is the one built-in backend that ``supports_incremental``: after a
sparse personalization change it pushes only the delta, with the same
degree-normalized ε-truncation as the cold start so refresh work stays
local too, and adds the pushed rows into the cache block in place, once
the push has converged: a node the cache holds no row for joins it in
spare capacity, and only a doubling of that capacity copies the cache's
rows (into an uninitialized buffer; each joining row is zeroed before the
add).  Every incremental refresh in the library, the serving path's
included, is this patch.

The pruning threshold ε is a constructor knob; ``method="sparse"`` uses
:data:`~repro.gsp.filters.SPARSE_DEFAULT_EPSILON`, and dispatchers accept a
pre-built instance (``method=SparseDiffusionBackend(epsilon=...)``) for
other settings.  ``epsilon=0.0`` prunes nothing: its full run is the dense
power loop bit for bit, and its patches are exact to the push tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import (
    DiffusionBackend,
    DiffusionOutcome,
    register_backend,
)
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import (
    SPARSE_DEFAULT_EPSILON,
    RowBlock,
    SparsePersonalizedPageRank,
    coerce_sparse_signal,
)
from repro.gsp.normalization import NormalizationKind, transition_matrix
from repro.gsp.push import push_refresh
from repro.runtime.network import LatencyModel
from repro.utils import check_non_negative
from repro.utils.rng import RngLike


@register_backend
class SparseDiffusionBackend(DiffusionBackend):
    """Pruned row-block power iteration; embeddings stay row-sparse end to end."""

    name = "sparse"
    supports_incremental = True
    accepts_sparse = True

    def __init__(
        self,
        epsilon: float = SPARSE_DEFAULT_EPSILON,
        *,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        """``dtype=float32`` halves cache memory at a bounded accuracy cost
        (overlap@100 ≥ 0.98 vs float64 on the benchmark graphs — see the
        ε-sweep section of ``benchmarks/test_bench_sparse_scale.py``).
        """
        check_non_negative(epsilon, "epsilon")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        self.epsilon = float(epsilon)
        self.dtype = dtype

    def diffuse(
        self,
        topology: CompressedAdjacency,
        personalization: np.ndarray | RowBlock,
        *,
        alpha: float,
        normalization: NormalizationKind = "column",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
        latency: LatencyModel | None = None,
        seed: RngLike = None,
    ) -> DiffusionOutcome:
        """Pruned power iteration; the outcome's embeddings are a ``RowBlock``.

        The outcome reports the run's edge operations and a sound
        ``residual_l1`` (see :class:`SparsePersonalizedPageRank`), in the
        same units as an incremental :meth:`refresh`, so a cost model can
        compare the two.  ``latency`` and ``seed`` are accepted for
        interface uniformity; the pruned power iteration is deterministic
        and ignores them.
        """
        operator = transition_matrix(topology, normalization)
        ppr = SparsePersonalizedPageRank(
            alpha,
            epsilon=self.epsilon,
            tol=tol,
            max_iterations=max_iterations,
            dtype=self.dtype,
        )
        detail = ppr.apply_detailed(operator, personalization)
        return DiffusionOutcome(
            embeddings=detail.signal,
            method=self.name,
            alpha=alpha,
            iterations=detail.iterations,
            residual=detail.residual,
            converged=detail.converged,
            operations=detail.edge_operations,
            residual_l1=detail.residual_l1,
        )

    def refresh(
        self,
        topology: CompressedAdjacency,
        embeddings: np.ndarray | RowBlock,
        delta: np.ndarray | RowBlock,
        *,
        alpha: float,
        normalization: NormalizationKind = "column",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
    ) -> DiffusionOutcome:
        operator = transition_matrix(topology, normalization, fmt="csc")
        if not isinstance(embeddings, RowBlock):
            # A dense cache (from a `power` run, say) is patched as a block,
            # the format this backend returns.
            embeddings, _ = coerce_sparse_signal(
                embeddings, topology.n_nodes, self.dtype
            )
        patched, result = push_refresh(
            operator,
            embeddings,
            delta,
            alpha=alpha,
            tol=tol,
            epsilon=self.epsilon,
            max_sweeps=max_iterations,
            dtype=self.dtype,
        )
        return DiffusionOutcome(
            embeddings=patched,
            method=self.name,
            alpha=alpha,
            iterations=result.sweeps,
            residual=result.residual,
            converged=result.converged,
            operations=result.edge_operations,
            residual_l1=result.residual_l1,
            incremental=True,
        )
