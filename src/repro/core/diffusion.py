"""Diffusion facade: one call dispatching over pluggable execution backends.

Built-in strategies (see :mod:`repro.core.backends`):

* ``power`` — synchronous iteration of eq. (7); what a coordinated network
  round-by-round execution would compute.
* ``solve`` — exact sparse solve of eq. (6); ground truth.
* ``async`` — the decentralized event-driven protocol of
  :class:`repro.runtime.gossip.AsyncPPRDiffusion`; what the real P2P network
  runs.
* ``sparse`` — pruned power iteration on row-sparse signals
  (:class:`repro.gsp.filters.SparsePersonalizedPageRank`); personalization
  and embeddings stay :class:`~repro.gsp.filters.RowBlock` rows end to end,
  so precompute memory and work scale with the diffused support instead of
  ``n_nodes × dim``.  It is the one built-in that refreshes incrementally
  (:func:`refresh_embeddings`): the forward-push kernel of
  :mod:`repro.gsp.push` diffuses only the block delta, exactly (to the push
  tolerance) with ``SparseDiffusionBackend(epsilon=0.0)``.

All strategies agree to within tolerance (verified by tests), so experiments
may use the cheapest one without changing semantics.  Additional strategies
register through :func:`repro.core.backends.register_backend` and become
addressable by ``method=`` name here without any call-site change; ``method``
also accepts a pre-built :class:`DiffusionBackend` instance for backends with
constructor knobs (e.g. ``SparseDiffusionBackend(epsilon=1e-5)``).

Sparse inputs: a ``RowBlock`` personalization, delta or cache passes
through untouched to backends that declare ``accepts_sparse`` and is
densified for the others.  A ``scipy.sparse`` matrix is accepted here too:
it becomes a block for ``accepts_sparse`` backends
(:func:`~repro.gsp.filters.coerce_sparse_signal`) and a dense array for the
others.  Callers can always hand over the cheapest representation they
hold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.backends import get_backend
from repro.core.backends.base import DiffusionBackend, DiffusionOutcome
from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock, coerce_signal, coerce_sparse_signal
from repro.gsp.normalization import NormalizationKind
from repro.runtime.network import LatencyModel
from repro.utils.rng import RngLike

__all__ = ["DiffusionOutcome", "diffuse_embeddings", "refresh_embeddings"]


def resolve_backend(method: str | DiffusionBackend) -> DiffusionBackend:
    """Resolve a ``method=`` argument: registry name or pre-built instance."""
    if isinstance(method, DiffusionBackend):
        return method
    return get_backend(method)


def _coerce_for_backend(
    signal: np.ndarray | sp.spmatrix | RowBlock,
    n_nodes: int,
    backend: DiffusionBackend,
) -> np.ndarray | RowBlock:
    """Match the signal representation to what the backend accepts.

    Blocks pass through to ``accepts_sparse`` backends and ``scipy.sparse``
    matrices become blocks for them; both densify for the others.  Dense
    inputs are validated/coerced as before (sparse backends accept dense
    input too and convert internally).
    """
    if sp.issparse(signal):
        signal, _ = coerce_sparse_signal(signal, n_nodes)
    if isinstance(signal, RowBlock):
        if signal.shape[0] != n_nodes:
            raise ValueError(
                f"signal must have {n_nodes} rows, got shape {signal.shape}"
            )
        if backend.accepts_sparse:
            return signal
        return np.asarray(signal.toarray(), dtype=np.float64)
    coerced, _ = coerce_signal(signal, n_nodes)
    return coerced


def diffuse_embeddings(
    topology: CompressedAdjacency,
    personalization: np.ndarray | sp.spmatrix | RowBlock,
    *,
    alpha: float = 0.5,
    method: str | DiffusionBackend = "power",
    normalization: NormalizationKind = "column",
    tol: float = 1e-8,
    max_iterations: int = 10_000,
    latency: LatencyModel | None = None,
    seed: RngLike = None,
) -> DiffusionOutcome:
    """Diffuse node personalization vectors with the PPR filter (eq. 6).

    Parameters mirror the paper's: ``alpha`` is the teleport probability
    (0.1 = heavy, 0.5 = moderate, 0.9 = light diffusion in §V-C).
    ``method`` names a registered :class:`~repro.core.backends.DiffusionBackend`
    (or is one).  ``personalization`` may be a ``RowBlock`` or a
    ``scipy.sparse`` matrix; it reaches ``accepts_sparse`` backends
    (``method="sparse"``) as a block, without ever densifying.
    """
    backend = resolve_backend(method)
    personalization = _coerce_for_backend(
        personalization, topology.n_nodes, backend
    )
    return backend.diffuse(
        topology,
        personalization,
        alpha=alpha,
        normalization=normalization,
        tol=tol,
        max_iterations=max_iterations,
        latency=latency,
        seed=seed,
    )


def refresh_embeddings(
    topology: CompressedAdjacency,
    embeddings: np.ndarray | sp.spmatrix | RowBlock,
    delta: np.ndarray | sp.spmatrix | RowBlock,
    *,
    alpha: float = 0.5,
    method: str | DiffusionBackend = "sparse",
    normalization: NormalizationKind = "column",
    tol: float = 1e-8,
    max_iterations: int = 10_000,
) -> DiffusionOutcome:
    """Patch diffused ``embeddings`` for a sparse personalization change.

    ``delta`` is the row-wise difference between the new and the previously
    diffused personalization matrix (zero outside the changed nodes); by
    linearity the corrected diffusion is ``embeddings + H delta``, computed
    at a cost proportional to the change.  Requires a backend with
    ``supports_incremental`` (built-in: ``sparse``, which returns the
    patched embeddings as a ``RowBlock``; a block cache in its dtype is
    patched in place and returned, so copy it first to keep the old rows).
    """
    backend = resolve_backend(method)
    if not backend.supports_incremental:
        raise ValueError(
            f"diffusion method {backend.name!r} does not support incremental "
            "refresh; use method='sparse' or a custom incremental backend"
        )
    delta = _coerce_for_backend(delta, topology.n_nodes, backend)
    embeddings = _coerce_for_backend(embeddings, topology.n_nodes, backend)
    return backend.refresh(
        topology,
        embeddings,
        delta,
        alpha=alpha,
        normalization=normalization,
        tol=tol,
        max_iterations=max_iterations,
    )
