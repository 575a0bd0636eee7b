"""Pluggable diffusion execution backends.

Importing this package registers the five built-in strategies:

* ``power`` — synchronous power iteration of eq. (7).
* ``solve`` — exact sparse direct solve of eq. (6); ground truth.
* ``async`` — the decentralized event-driven protocol.
* ``push``  — residual Forward Push / Gauss–Southwell with
  ``supports_incremental = True`` (sparse-delta refresh).
* ``sparse`` — pruned power iteration on row-sparse signals
  (``accepts_sparse``): embeddings stay a
  :class:`~repro.gsp.filters.RowBlock` from personalization through
  forwarding, with degree-normalized ε-truncation bounding support; also
  ``supports_incremental`` via the forward-push kernel on block deltas.

New strategies plug in via :func:`register_backend`; see
:mod:`repro.core.backends.base` for the interface contract.
"""

from repro.core.backends.base import (
    DiffusionBackend,
    DiffusionOutcome,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core.backends.standard import (
    ASYNC_RESIDUAL_SLACK,
    AsyncProtocolBackend,
    PowerIterationBackend,
    SparseSolveBackend,
)
from repro.core.backends.push import PushDiffusionBackend
from repro.core.backends.sparse import SparseDiffusionBackend

__all__ = [
    "DiffusionBackend",
    "DiffusionOutcome",
    "available_backends",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "ASYNC_RESIDUAL_SLACK",
    "AsyncProtocolBackend",
    "PowerIterationBackend",
    "SparseSolveBackend",
    "PushDiffusionBackend",
    "SparseDiffusionBackend",
]
