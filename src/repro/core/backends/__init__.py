"""Pluggable diffusion execution backends.

Importing this package registers the four built-in strategies:

* ``power`` — synchronous power iteration of eq. (7).
* ``solve`` — exact sparse direct solve of eq. (6); ground truth.
* ``async`` — the decentralized event-driven protocol.
* ``sparse`` — pruned power iteration on row-sparse signals
  (``accepts_sparse``): embeddings stay a
  :class:`~repro.gsp.filters.RowBlock` from personalization through
  forwarding, with degree-normalized ε-truncation bounding support.  The
  only built-in with ``supports_incremental``: a refresh runs the
  forward-push kernel on the block delta, and
  ``SparseDiffusionBackend(epsilon=0.0)`` patches exactly, to the push
  tolerance.

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
    "SparseDiffusionBackend",
]
