"""Diffusion backend protocol and registry.

A :class:`DiffusionBackend` encapsulates one execution strategy for the PPR
diffusion of eq. (6) — how the warm-up of Fig. 2 (lines 3–6) is actually
computed.  :func:`repro.core.diffusion.diffuse_embeddings` dispatches by
backend name, so experiments (and third-party code) can plug in new
strategies with :func:`register_backend` without touching call sites::

    @register_backend
    class MyBackend(DiffusionBackend):
        name = "mine"
        def diffuse(self, topology, personalization, **kwargs): ...

    diffuse_embeddings(adjacency, e0, method="mine")

Backends that set :attr:`~DiffusionBackend.supports_incremental` additionally
implement :meth:`~DiffusionBackend.refresh`: patching an existing diffusion
from a sparse personalization delta instead of recomputing from scratch
(see :mod:`repro.gsp.push`).  The search facade hands a refresh its delta
as a :class:`~repro.gsp.filters.RowBlock`; the built-in ``sparse`` backend
is the one that patches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Type

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock
from repro.gsp.normalization import NormalizationKind
from repro.runtime.network import LatencyModel
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class DiffusionOutcome:
    """Diffused embeddings plus cost diagnostics.

    ``iterations`` counts power-iteration sweeps (or 1 for the exact solve,
    or events for the async protocol); ``messages``/``events`` are populated
    only by the async strategy; ``operations`` counts edge traversals for
    the ``sparse`` backend (the unit that makes full and incremental runs
    comparable); ``incremental`` marks an outcome produced
    by patching a previous diffusion rather than recomputing it.

    ``embeddings`` is a dense array for the standard backends; backends with
    ``accepts_sparse`` (built-in: ``sparse``) return a
    :class:`~repro.gsp.filters.RowBlock` instead — consumers that need a
    dense view call ``.toarray()`` (the search facade does this lazily), and
    ``.tocsr()`` gives CSR.

    ``residual_l1`` is the L1 norm of the leftover residual for outcomes
    built on the push kernel (a ``sparse`` refresh): since
    ``‖H‖₁ ≤ 1`` for a column-normalized operator, it upper-bounds the L1
    error the outcome leaves behind — the quantity staleness trackers
    accumulate across incremental refreshes.  A ``sparse`` full run reports
    its edge operations and, as ``residual_l1``, a sound a-posteriori
    bound on its pruning error in the same unit (see
    :class:`repro.gsp.filters.SparsePersonalizedPageRank`); the staleness
    tracker keeps it as the floor of its bound.  The ``power``, ``solve``
    and ``async`` backends still report 0 for both.
    """

    embeddings: np.ndarray | RowBlock
    method: str
    alpha: float
    iterations: int
    residual: float
    converged: bool
    messages: int = 0
    events: int = 0
    sim_time: float = 0.0
    operations: int = 0
    incremental: bool = False
    residual_l1: float = 0.0


class DiffusionBackend(ABC):
    """One execution strategy for the PPR diffusion warm-up.

    Subclasses define a unique :attr:`name` (the ``method=`` string) and
    implement :meth:`diffuse`.  Backends able to patch an existing diffusion
    from a sparse personalization change set
    :attr:`supports_incremental = True` and implement :meth:`refresh`.
    """

    #: Registry key; the ``method=`` argument of ``diffuse_embeddings``.
    name: ClassVar[str]

    #: Whether :meth:`refresh` is implemented.
    supports_incremental: ClassVar[bool] = False

    #: Whether :meth:`diffuse`/:meth:`refresh` accept
    #: :class:`~repro.gsp.filters.RowBlock` personalization, delta and
    #: embeddings without densification (and may return a block as
    #: ``DiffusionOutcome.embeddings``).  Dispatchers densify blocks and
    #: ``scipy.sparse`` inputs before handing them to backends that leave
    #: this False.
    accepts_sparse: ClassVar[bool] = False

    @abstractmethod
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
        """Diffuse ``personalization`` from scratch (cold start)."""

    def refresh(
        self,
        topology: CompressedAdjacency,
        embeddings: np.ndarray,
        delta: np.ndarray,
        *,
        alpha: float,
        normalization: NormalizationKind = "column",
        tol: float = 1e-8,
        max_iterations: int = 10_000,
    ) -> DiffusionOutcome:
        """Patch ``embeddings`` for a personalization change of ``delta``.

        ``delta`` is the (mostly zero) row-wise difference between the new
        and the previously diffused personalization matrix; by linearity the
        corrected diffusion is ``embeddings + H delta``.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support incremental refresh"
        )


_REGISTRY: dict[str, Type[DiffusionBackend]] = {}


def register_backend(
    backend_cls: Type[DiffusionBackend], *, overwrite: bool = False
) -> Type[DiffusionBackend]:
    """Register a backend class under its ``name`` (usable as a decorator)."""
    name = getattr(backend_cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"{backend_cls!r} must define a non-empty string 'name' attribute"
        )
    if not overwrite and name in _REGISTRY:
        raise ValueError(
            f"diffusion backend {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[name] = backend_cls
    return backend_cls


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> DiffusionBackend:
    """Instantiate the backend registered under ``name``."""
    backend_cls = _REGISTRY.get(name)
    if backend_cls is None:
        raise ValueError(
            f"unknown diffusion method {name!r}; "
            f"registered backends: {available_backends()}"
        )
    return backend_cls()


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))
