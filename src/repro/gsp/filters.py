"""Graph filters: Personalized PageRank and the heat kernel.

The PPR filter implements eq. (6) of the paper,
``E = a (I − (1−a) A)^{-1} E0``, either by power iteration of eq. (7) (the
synchronous counterpart of the decentralized diffusion) or by a sparse direct
solve (ground truth for tests and small graphs).  The ε-pruned sparse filter
returns a :class:`RowBlock`, the layout the sparse pipeline keeps from the
personalization to the walk scorer.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import exp, inf, lgamma, log
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of a filter application with convergence diagnostics.

    ``signal`` is a dense array, or a :class:`RowBlock` from the ε-pruned
    sparse filter.

    ``diffused_mass_ratio`` is populated by the ε-pruned sparse filter: the
    fraction of the *diffusable* personalization mass (the ``1−α`` share
    that should spread beyond the teleport term) still present in the final
    estimate — 1.0 means nothing measurable was truncated, 0.0 means
    pruning collapsed the diffusion to the bare teleport (see
    :func:`check_pruned_mass`).  ``None`` for filters without pruning.

    ``edge_operations`` and ``residual_l1`` are populated by the sparse
    filter only, in the units of :class:`repro.gsp.push.PushResult`: stored
    operator entries read, and an upper bound on the L1 norm of the residual
    ``R(E)/α`` a forward push would carry at the returned estimate, so the
    estimate's L1 error is at most ``residual_l1`` under a column-normalized
    operator.  Other filters leave both at 0.
    """

    signal: np.ndarray | RowBlock
    iterations: int
    residual: float
    converged: bool
    diffused_mass_ratio: float | None = None
    edge_operations: int = 0
    residual_l1: float = 0.0


class PrunedMassWarning(RuntimeWarning):
    """ε-pruning removed most of the diffusable personalization mass."""


#: Warn when less than this fraction of the diffusable (non-teleport) mass
#: survives ε-pruning and the pruning term of the filter's error bound
#: exceeds this fraction of the mass that did.  The degenerate all-pruned
#: fixed point retains exactly ``α·‖E0‖₁`` (teleport only), i.e. a
#: surviving fraction of 0.
PRUNED_MASS_WARN_FRACTION = 0.5


def check_pruned_mass(
    e0_l1: float,
    estimate_l1: float,
    alpha: float,
    pruned_l1: float,
) -> float:
    """Surviving-diffusable-mass ratio of an ε-pruned diffusion, with guard.

    Under the column-stochastic operator an exact PPR diffusion conserves
    the personalization's ℓ₁ mass (sign cancellation aside): ``α·‖E0‖₁`` of
    it stays as the teleport term and the remaining ``(1−α)·‖E0‖₁`` spreads
    over the graph.  Aggressive ε-pruning truncates that spreading share —
    in the limit the iterate collapses to the bare teleport after one sweep
    and faraway nodes score zero (the failure mode behind the reduced-sweep
    observation that ``ε=0.01`` drops overlap@20 to 0.46).  The returned
    ratio is ``(‖E‖₁ − α‖E0‖₁) / ((1−α)·‖E0‖₁)``, clamped to ``[0, 1]``.
    When the ratio falls below :data:`PRUNED_MASS_WARN_FRACTION` a
    :class:`PrunedMassWarning` is emitted — but only if the filter's own
    sound error bound confirms it.  Sign cancellation in mixed-sign
    embeddings lowers the ratio with no pruning at all (the exact solve of
    ``examples/online_serving.py``'s corpus reads 0.49).  ``pruned_l1`` is
    the L1 mass of the rows the last sweep pruned, and ``pruned_l1/α`` is
    what pruning adds to ``residual_l1``; the guard fires only when that
    term also exceeds the same fraction of the mass the estimate spread,
    ``‖E‖₁ − α‖E0‖₁`` — the error pruning may have left is then comparable
    with the diffusion that survived it.  The bound's other terms (a run
    stopped by its sweep cap, rounding) are not pruning and do not warn.
    """
    diffusable = (1.0 - alpha) * e0_l1
    if diffusable <= 0.0:
        return 1.0
    spread = estimate_l1 - alpha * e0_l1
    ratio = float(min(1.0, max(0.0, spread / diffusable)))
    bound = pruned_l1 / alpha
    if ratio < PRUNED_MASS_WARN_FRACTION and bound > PRUNED_MASS_WARN_FRACTION * spread:
        warnings.warn(
            f"epsilon-pruning removed {1.0 - ratio:.0%} of the diffusable "
            f"personalization mass and left an L1 error bound of {bound:.3g}, "
            f"more than half of the {spread:.3g} it spread beyond the "
            "teleport term — the diffusion has degenerated toward the bare "
            "teleport term and distant nodes will score ~0.  Lower epsilon: "
            "a row is pruned when its largest entry falls under epsilon "
            "times its node's degree, so a safe epsilon scales with the row "
            "magnitude and shrinks with degree and dimension (see "
            "SPARSE_DEFAULT_EPSILON).",
            PrunedMassWarning,
            stacklevel=3,
        )
    return ratio


class RowBlock:
    """A row-sparse ``(n, dim)`` signal: dense rows at some nodes, zero elsewhere.

    The sparse pipeline's one layout, from the personalization through the
    filter and the push's residual and estimate to the embedding cache the
    walk scorer reads (PPRGo keeps its PPR vectors the same way).
    Diffusion mixes whole personalization rows, so a node the mass reaches
    holds a full row and a CSR column index would carry nothing.

    ``nodes`` are distinct node ids in slot order, ``rows`` their
    ``(k, dim)`` values and ``slot_of`` the node → slot map (-1 where the
    block holds no row).  The block keeps the ``rows`` it is built over
    without a copy, and grows in place: :meth:`slots` appends a zero row
    for each node it does not hold, into spare capacity that doubles when
    it runs out, and :meth:`add` and :meth:`put` write rows through it.
    A block built here has no spare capacity.  A patch writes into the
    block it patches, so a policy built over a block scores its latest
    rows.  Node order is slot order; :meth:`tocsr` sorts.
    """

    def __init__(self, nodes: np.ndarray, rows: np.ndarray, n: int) -> None:
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.asarray(rows)
        if rows.ndim != 2 or nodes.shape != (rows.shape[0],):
            raise ValueError(
                f"need one (k, dim) row per node, got {nodes.shape[0]} nodes "
                f"and rows of shape {rows.shape}"
            )
        slot_of = np.full(n, -1, dtype=np.int64)
        if nodes.size:
            if nodes.min() < 0 or nodes.max() >= n:
                raise ValueError(f"nodes must be distinct ids in [0, {n})")
            slot_of[nodes] = np.arange(nodes.shape[0])
            # A repeated node keeps only its last slot.
            if np.any(slot_of[nodes] != np.arange(nodes.shape[0])):
                raise ValueError(f"nodes must be distinct ids in [0, {n})")
        self._nodes = nodes
        self._rows = rows
        self.slot_of = slot_of
        self.size = nodes.shape[0]
        self.shape = (int(n), rows.shape[1])

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes[: self.size]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self.size]

    @property
    def dtype(self) -> np.dtype:
        return self._rows.dtype

    def slots(self, nodes: np.ndarray) -> np.ndarray:
        """Slots of the distinct ``nodes``, appending a zero row for each not held.

        Capacity doubles (capped at ``n`` rows) when the appended rows do not
        fit, so appending ``k`` rows one call at a time copies ``O(k)`` rows.
        """
        slots = self.slot_of[nodes]
        new = slots < 0
        if new.any():
            added = nodes[new]
            end = self.size + added.shape[0]
            capacity = self._rows.shape[0]
            if end > capacity:
                self._grow(min(self.shape[0], max(end, 2 * capacity)))
            slots[new] = np.arange(self.size, end)
            self.slot_of[added] = slots[new]
            self._nodes[self.size:end] = added
            self.size = end
        return slots

    def _grow(self, capacity: int) -> None:
        nodes = np.empty(capacity, dtype=np.int64)
        nodes[: self.size] = self.nodes
        rows = np.zeros((capacity, self.shape[1]), dtype=self.dtype)
        rows[: self.size] = self.rows
        self._nodes, self._rows = nodes, rows

    def add(self, nodes: np.ndarray, rows: np.ndarray) -> None:
        """Add ``rows`` onto the rows of the distinct ``nodes``, in place;
        a node the block holds no row for joins with ``0 + row``."""
        slots = self.slots(nodes)  # before reading the buffer it may grow
        self._rows[slots] += rows

    def put(self, nodes: np.ndarray, rows: np.ndarray) -> None:
        """Write ``rows`` over the rows of the distinct ``nodes``, in place;
        a node the block holds no row for joins."""
        slots = self.slots(nodes)
        self._rows[slots] = rows

    def __getitem__(self, nodes: int | np.ndarray) -> np.ndarray:
        """The rows of ``nodes`` (one id or an id array), zero where none is held."""
        slots = self.slot_of[nodes]
        out = np.zeros(np.shape(slots) + (self.shape[1],), dtype=self.dtype)
        held = slots >= 0
        out[held] = self._rows[slots[held]]
        return out

    def toarray(self) -> np.ndarray:
        """The dense ``(n, dim)`` array."""
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.nodes] = self.rows
        return out

    def tocsr(self) -> sp.csr_matrix:
        """The block as CSR, rows in node order, explicit zeros dropped.

        ``O(k × dim)`` whatever ``n``.  Index arrays are int32 whenever they
        fit.
        """
        n, dim = self.shape
        nodes, rows = self.nodes, self.rows
        if np.any(nodes[1:] < nodes[:-1]):
            order = np.argsort(nodes)
            nodes, rows = nodes[order], rows[order]
        k = nodes.shape[0]
        idx_dtype = (
            np.int32 if max(k * dim, n + 1, dim) < np.iinfo(np.int32).max else np.int64
        )
        counts = np.zeros(n, dtype=idx_dtype)
        counts[nodes] = dim
        indptr = np.concatenate(
            (np.zeros(1, dtype=idx_dtype), np.cumsum(counts, dtype=idx_dtype))
        )
        indices = np.tile(np.arange(dim, dtype=idx_dtype), k)
        # A copy of the values: eliminate_zeros compacts them in place.
        result = sp.csr_matrix((rows.flatten(), indices, indptr), shape=(n, dim))
        result.eliminate_zeros()
        return result


class GraphFilter(ABC):
    """A graph filter maps an input signal to a diffused signal.

    Signals are arrays of shape ``(n_nodes,)`` or ``(n_nodes, dim)``; the
    operator is a normalized adjacency (see
    :func:`repro.gsp.normalization.transition_matrix`).
    """

    @abstractmethod
    def apply_detailed(
        self, operator: sp.spmatrix, signal: np.ndarray
    ) -> DiffusionResult:
        """Apply the filter, returning diagnostics alongside the signal."""

    def apply(self, operator: sp.spmatrix, signal: np.ndarray) -> np.ndarray:
        """Apply the filter and return only the diffused signal."""
        return self.apply_detailed(operator, signal).signal

    def weights_dense(self, operator: sp.spmatrix) -> np.ndarray:
        """The dense impulse-response matrix ``H`` (test/debug; small graphs).

        Column ``v`` of ``H`` is the diffusion of a one-hot signal at ``v``,
        i.e. the per-origin weights ``h_uv`` of eq. (4).
        """
        n = operator.shape[0]
        return self.apply(operator, np.eye(n))


def coerce_signal(
    signal: np.ndarray, n: int, dtype: np.dtype | type = np.float64
) -> tuple[np.ndarray, bool]:
    """Coerce a graph signal to a ``(n, dim)`` float matrix (float64 default).

    Returns the matrix plus whether the input was a bare vector (so callers
    can restore the shape on output).  Shared by every filter and kernel in
    the package — keep validation changes here.  ``dtype`` enables the
    end-to-end float32 pipeline; the default keeps every existing caller
    bit-identical.
    """
    signal = np.asarray(signal, dtype=dtype)
    was_vector = signal.ndim == 1
    if was_vector:
        signal = signal[:, None]
    if signal.ndim != 2 or signal.shape[0] != n:
        raise ValueError(
            f"signal must have {n} rows, got shape {signal.shape}"
        )
    return signal, was_vector


def coerce_sparse_signal(
    signal: np.ndarray | sp.spmatrix | RowBlock,
    n: int,
    dtype: np.dtype | type = np.float64,
) -> tuple[RowBlock, bool]:
    """Coerce a graph signal to a :class:`RowBlock` in ``dtype`` (float64 default).

    The one conversion into the sparse pipeline's layout: a dense vector or
    matrix, a ``scipy.sparse`` matrix or a block comes back as a block of
    exactly its rows with a nonzero entry, in ascending node order — the
    rows a CSR copy stores, so the filter and the push seed the same rows
    whatever format the signal arrives in.  A block that already holds
    only such rows, ascending, in ``dtype``, is returned as is.  Returns
    the block plus whether the input was a bare vector (dense 1-D); other
    inputs are never vectors.
    """
    was_vector = False
    as_is = isinstance(signal, RowBlock)
    if as_is:
        shape, nodes, rows = signal.shape, signal.nodes, signal.rows
        if np.any(nodes[1:] < nodes[:-1]):
            order = np.argsort(nodes)
            nodes, rows = nodes[order], rows[order]
            as_is = False
    elif sp.issparse(signal):
        matrix = signal.tocsr().astype(dtype)
        shape = matrix.shape
        nodes = np.flatnonzero(np.diff(matrix.indptr))
        rows = matrix[nodes].toarray()
    else:
        rows, was_vector = coerce_signal(signal, n, dtype)
        shape = rows.shape
        nodes = np.arange(n)
    if len(shape) != 2 or shape[0] != n:
        raise ValueError(f"signal must have {n} rows, got shape {shape}")
    as_is = as_is and rows.dtype == dtype
    rows = rows.astype(dtype, copy=False)
    keep = np.any(rows != 0, axis=1)
    if as_is and keep.all():
        return signal, False
    return RowBlock(nodes[keep], rows[keep], n), was_vector


def effective_tolerance(tol: float, dtype: np.dtype | type) -> float:
    """Floor a convergence tolerance at what ``dtype`` can resolve.

    A float32 iterate carries ~7 decimal digits (eps ≈ 1.19e-7); asking its
    power iteration for ``residual < 1e-8`` makes the residual plateau at
    rounding noise above the tolerance and the loop spin to the iteration
    cap without ever converging.  The floor is ``32 · eps(dtype)``
    (≈ 3.8e-6 for float32) — comfortably above the plateau for unit-scale
    signals, far below any ranking-relevant score gap.

    float64 requests are returned **unchanged** (the float64 floor,
    ~7.1e-15, sits below every tolerance the library accepts), so the
    default pipeline's convergence behaviour — and its bit-identity
    guarantees — are untouched.
    """
    dtype = np.dtype(dtype)
    if dtype == np.dtype(np.float64):
        return float(tol)
    return max(float(tol), float(32 * np.finfo(dtype).eps))


def operator_out_degrees(operator: sp.spmatrix) -> np.ndarray:
    """Per-node out-degree of a normalized operator (column nnz), memoized.

    For the column-stochastic operator this is the number of neighbors a
    node's mass spreads over — the quantity the degree-normalized pruning
    thresholds of :class:`SparsePersonalizedPageRank` and
    :func:`repro.gsp.push.forward_push` scale with.  Cached on the operator
    object (operators are immutable and shared, see
    ``CompressedAdjacency._operator_cache``).
    """
    cached = getattr(operator, "_out_degree_cache", None)
    if cached is None:
        if sp.issparse(operator) and operator.format == "csc":
            cached = np.diff(operator.indptr).astype(np.int64)
        else:
            csr = operator.tocsr()
            cached = np.bincount(
                csr.indices, minlength=operator.shape[0]
            ).astype(np.int64)
        try:
            operator._out_degree_cache = cached
        except AttributeError:  # pragma: no cover - exotic matrix types
            pass
    return cached


def operator_l1_norm(operator: sp.spmatrix) -> float:
    """Induced L1 norm of an operator (its largest absolute column sum), memoized.

    1 for the column-stochastic operator: the most one sweep can grow the
    L1 norm of a signal, which bounds the residual of the sparse filter's
    final iterate.  Cached on the operator object like
    :func:`operator_out_degrees`.
    """
    cached = getattr(operator, "_l1_norm_cache", None)
    if cached is None:
        csr = operator.tocsr()
        sums = np.bincount(
            csr.indices, weights=np.abs(csr.data), minlength=operator.shape[1]
        )
        cached = float(sums.max()) if sums.size else 0.0
        try:
            operator._l1_norm_cache = cached
        except AttributeError:  # pragma: no cover - exotic matrix types
            pass
    return cached


class PersonalizedPageRank(GraphFilter):
    """The PPR filter ``a (I − (1−a) A)^{-1}`` (paper eq. 5–6).

    Parameters
    ----------
    alpha:
        Teleport probability ``a`` ∈ (0, 1].  Small alpha ⇒ heavy diffusion
        (long walks, average length ``1/alpha``); large alpha ⇒ light
        diffusion concentrated near the origin.  Passing a *sequence* of
        alphas turns the filter into a multi-column variant: the signal must
        then have one column per alpha, and all columns diffuse through a
        shared sweep over the operator (one sparse matmul per iteration
        instead of one per alpha).  Each column stops at its own convergence
        criterion, so column ``c`` is bit-identical to a scalar filter run
        with ``alpha[c]``.
    tol:
        Power-iteration stopping threshold on the max absolute update.
    max_iterations:
        Iteration cap; with teleport ``alpha`` the error contracts by
        ``(1 − alpha)`` per step, so convergence is geometric.
    method:
        ``"power"`` (default) iterates eq. (7); ``"solve"`` factorizes
        ``I − (1−a) A`` once (exact, used as ground truth in tests).
    """

    def __init__(
        self,
        alpha: float | Sequence[float] = 0.5,
        *,
        tol: float = 1e-9,
        max_iterations: int = 10_000,
        method: str = "power",
    ) -> None:
        if np.ndim(alpha) == 0:
            alphas = (float(alpha),)
            self.alpha: float | tuple[float, ...] = float(alpha)
        else:
            alphas = tuple(float(a) for a in np.asarray(alpha, dtype=np.float64))
            if not alphas:
                raise ValueError("alpha sequence must be non-empty")
            self.alpha = alphas
        for a in alphas:
            check_probability(a, "alpha")
            if a == 0.0:
                raise ValueError("alpha must be positive (alpha=0 never teleports)")
        check_positive(tol, "tol")
        check_positive_int(max_iterations, "max_iterations")
        if method not in ("power", "solve"):
            raise ValueError(f"method must be 'power' or 'solve', got {method!r}")
        self._alphas = np.asarray(alphas, dtype=np.float64)
        self._multi = isinstance(self.alpha, tuple)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.method = method

    @staticmethod
    def _solver_for(operator: sp.spmatrix, alpha: float) -> spla.SuperLU:
        """Sparse LU of ``I − (1−a) A``, memoized on the operator itself.

        The factorization depends only on (operator, alpha), and operators
        are immutable and cached per graph (see
        ``CompressedAdjacency._operator_cache``), so the solver cache rides
        on the operator object: every filter instance — and every experiment
        iteration — reuses one factorization per alpha.
        """
        cache: dict[float, spla.SuperLU] | None = getattr(
            operator, "_ppr_lu_cache", None
        )
        if cache is None:
            cache = {}
            try:
                operator._ppr_lu_cache = cache
            except AttributeError:  # pragma: no cover - exotic matrix types
                pass
        solver = cache.get(alpha)
        if solver is None:
            n = operator.shape[0]
            system = sp.eye(n, format="csc") - (1.0 - alpha) * operator.tocsc()
            solver = cache[alpha] = spla.splu(system.tocsc())
        return solver

    def apply_detailed(
        self, operator: sp.spmatrix, signal: np.ndarray
    ) -> DiffusionResult:
        n = operator.shape[0]
        signal, was_vector = coerce_signal(signal, n)
        if self._multi:
            if signal.shape[1] != self._alphas.shape[0]:
                raise ValueError(
                    f"multi-alpha filter with {self._alphas.shape[0]} alphas "
                    f"needs one signal column per alpha, got {signal.shape[1]}"
                )
            result = self._apply_multi(operator, signal)
            if was_vector:
                result = DiffusionResult(
                    result.signal[:, 0],
                    result.iterations,
                    result.residual,
                    result.converged,
                )
            return result
        alpha = float(self._alphas[0])
        if self.method == "solve":
            result = alpha * self._solver_for(operator, alpha).solve(signal)
            out = result[:, 0] if was_vector else result
            return DiffusionResult(out, iterations=1, residual=0.0, converged=True)

        teleport = alpha * signal
        current = teleport.copy()  # E(0) after one teleport step
        damping = 1.0 - alpha
        residual = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            updated = damping * (operator @ current) + teleport
            residual = float(np.max(np.abs(updated - current))) if updated.size else 0.0
            current = updated
            if residual < self.tol:
                break
        out = current[:, 0] if was_vector else current
        return DiffusionResult(
            out,
            iterations=iterations,
            residual=residual,
            converged=residual < self.tol,
        )

    def _apply_multi(
        self, operator: sp.spmatrix, signal: np.ndarray
    ) -> DiffusionResult:
        """Per-column-alpha diffusion sharing one operator sweep per step.

        Every active column advances through the same ``operator @ current``
        product; a column freezes at its first sub-``tol`` iterate, exactly
        where the scalar power loop would have stopped for that alpha, so the
        shared sweep changes cost but not a single output bit.
        """
        alphas = self._alphas
        if self.method == "solve":
            result = np.empty_like(signal)
            for a in np.unique(alphas):
                columns = np.flatnonzero(alphas == a)
                solver = self._solver_for(operator, float(a))
                result[:, columns] = float(a) * solver.solve(signal[:, columns])
            return DiffusionResult(result, iterations=1, residual=0.0, converged=True)

        teleport = signal * alphas[None, :]
        current = teleport.copy()
        damping = 1.0 - alphas
        active = np.ones(alphas.shape[0], dtype=bool)
        residuals = np.full(alphas.shape[0], np.inf)
        iterations = np.zeros(alphas.shape[0], dtype=np.int64)
        step = 0
        while np.any(active) and step < self.max_iterations:
            step += 1
            if active.all():
                # No frozen columns yet: sweep the full matrix without the
                # fancy-index copies of the partial path (same values, since
                # slicing by *all* columns is an identity).
                updated = (operator @ current) * damping[None, :]
                updated += teleport
                if updated.size:
                    residual = np.max(np.abs(updated - current), axis=0)
                else:
                    residual = np.zeros(alphas.shape[0])
                current = updated
                residuals[:] = residual
                iterations[:] = step
                active[:] = residual >= self.tol
                continue
            columns = np.flatnonzero(active)
            subset = current[:, columns]
            updated = (operator @ subset) * damping[columns][None, :]
            updated += teleport[:, columns]
            if updated.size:
                residual = np.max(np.abs(updated - subset), axis=0)
            else:
                residual = np.zeros(columns.shape[0])
            current[:, columns] = updated
            residuals[columns] = residual
            iterations[columns] = step
            active[columns] = residual >= self.tol
        return DiffusionResult(
            current,
            iterations=int(iterations.max(initial=0)),
            residual=float(residuals.max(initial=0.0)),
            converged=not bool(np.any(active)),
        )

    def expected_walk_length(self) -> float:
        """Mean number of steps before teleport: ``(1 − a) / a``.

        The paper describes the diffusion radius as "a short walk of average
        length 1/a"; the geometric walk's exact mean is ``(1−a)/a`` — both
        capture the same scaling in ``1/a``.  For a multi-alpha filter this
        reports the mean over the heaviest diffusion (smallest alpha).
        """
        smallest = float(self._alphas.min())
        return (1.0 - smallest) / smallest

    def __repr__(self) -> str:  # pragma: no cover
        return f"PersonalizedPageRank(alpha={self.alpha}, method={self.method!r})"


#: Default pruning threshold of :class:`SparsePersonalizedPageRank`.  On
#: the sparse-scale benchmark's overlays the diffused top-k node rankings
#: overlap the dense filter's by > 0.99 at this setting (see
#: ``benchmarks/test_bench_sparse_scale.py`` for the measured ε sweep) while
#: keeping the iterate support — and therefore memory and per-sweep work —
#: a small fraction of ``n_nodes × dim``.  It is not calibrated for any row
#: scale: the threshold is *absolute*, ``ε · d(u)`` against each row's raw
#: peak, so the right ε grows with the personalization magnitude and
#: shrinks with node degree and with dimension (a unit row's peak falls as
#: its dimension grows).  Unit 64-d rows on the degree-10 overlay of
#: ``examples/sparse_scaling.py`` lose 94% of the diffusable mass at 1e-3
#: and need about 5e-5; perfbench's serving corpus runs 1e-4.  When pruning
#: removes most of the mass the filter emits a :class:`PrunedMassWarning`.
SPARSE_DEFAULT_EPSILON = 1e-3

#: Row-chunk size of the sparse filter's propagate-and-prune sweep: bounds
#: the transient pre-truncation frontier to ``chunk × dim`` floats so peak
#: memory tracks the *surviving* support, not the touched one.  2048 rows
#: run as fast as 8192 on the serving corpus, with a lower peak at 100k
#: nodes.
_SPARSE_CHUNK_ROWS = 2048


def _row_chunks(n_rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of consecutive ``_SPARSE_CHUNK_ROWS``-row blocks."""
    return [
        (lo, min(lo + _SPARSE_CHUNK_ROWS, n_rows))
        for lo in range(0, n_rows, _SPARSE_CHUNK_ROWS)
    ]


class _OperatorSlice:
    """The operator entries that read the sparse filter's iterate.

    Columns are iterate rows (through the node → row map ``position``).  Rows
    are the nodes those entries reach: ``inside`` holds the iterate's own
    rows in iterate order, ``boundary`` the rows outside it, ascending, as
    ``(node ids, rows)`` chunks of ``_SPARSE_CHUNK_ROWS``.  Each row keeps
    the operator's entry order (which need not be sorted), so a product
    sums its terms in the dense power loop's sequence and the skipped terms
    are exact zeros: that is what keeps ε = 0 bit-identical.

    A slice stays valid for as long as the support does, and the support
    only grows.  A sweep keeps the rows it reaches that are in the
    allow-set; the rows it reaches grow with the support, and the allow-set
    only grows.  The allow-set *is* the support: a row enters it in the
    sweep that first keeps it.  So every support row is kept whatever its
    peak, and only boundary rows face the pruning test.
    """

    def __init__(
        self,
        csr_op: sp.csr_matrix,
        op_data: np.ndarray,
        op_entry_rows: np.ndarray,
        position: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        n = csr_op.shape[0]
        in_support = position >= 0
        # Entry ids, not a boolean mask: three gathers by index cost less
        # than three compresses over every stored entry.
        keep = np.flatnonzero(in_support[csr_op.indices])
        counts = np.bincount(op_entry_rows[keep], minlength=n)
        by_node = sp.csr_matrix(
            (
                op_data[keep],
                position[csr_op.indices[keep]],
                np.concatenate(([0], np.cumsum(counts))),
            ),
            shape=(n, rows.shape[0]),
        )
        self.nnz = int(by_node.nnz)
        self.max_row_entries = int(counts.max(initial=0))
        self.inside = by_node[rows]
        in_support |= counts == 0
        boundary = np.flatnonzero(~in_support)
        self.boundary = [
            (boundary[lo:hi], by_node[boundary[lo:hi]])
            for lo, hi in _row_chunks(boundary.shape[0])
        ]

    def propagate(
        self,
        block: np.ndarray,
        damping: float,
        thresholds: np.ndarray | None,
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """One sweep's ``damping · A · block`` over the slice.

        Returns the support rows' values, in iterate order, and the boundary
        rows that join with their values.  A boundary row joins when its
        peak reaches its threshold (every row when ``thresholds`` is None):
        the forward-push activation rule, applied to each chunk as it is
        computed, so the transient frontier of sub-threshold rows never
        materializes as one big array.  Rounding is monotone, so
        ``max|d·x| = d·max|x|`` exactly, and only joining rows are damped.
        """
        head = self.inside @ block
        head *= damping
        joined_rows: list[np.ndarray] = []
        joined_values: list[np.ndarray] = []
        for rows, part in self.boundary:
            values = part @ block
            if thresholds is not None:
                peaks = np.max(np.abs(values), axis=1)
                peaks *= damping
                joins = np.flatnonzero(peaks >= thresholds[rows])
                if not joins.size:
                    continue
                if joins.size < values.shape[0]:
                    values, rows = values[joins], rows[joins]
            values *= damping
            joined_rows.append(rows)
            joined_values.append(values)
        return head, joined_rows, joined_values

    def pruned_l1(self, position: np.ndarray, block: np.ndarray) -> float:
        """L1 norm of ``A · block`` on the boundary rows still off the support.

        One product over those rows in ascending order, so the sum rounds
        as it always has.
        """
        if not self.boundary:
            return 0.0
        pruned = sp.vstack(
            [part[np.flatnonzero(position[rows] < 0)] for rows, part in self.boundary],
            format="csr",
        )
        values = pruned @ block
        return float(np.abs(values, out=values).sum())


class SparsePersonalizedPageRank(GraphFilter):
    """PPR power iteration on sparse signals with degree-normalized ε-pruning.

    Iterates eq. (7) exactly like :class:`PersonalizedPageRank` with
    ``method="power"``, but the iterate lives in *row-sparse* form — its
    support rows, a node → row map and a dense ``(k, dim)`` block — and
    every sweep truncates the rows too small to matter downstream: row ``u``
    is dropped when ``max_c |E_k[u, c]| < ε · d(u)`` where ``d(u)`` is
    ``u``'s out-degree under the operator.  This is exactly the forward-push
    activation rule of :func:`repro.gsp.push.forward_push` applied as
    truncation — a node whose row peak is below ``ε · d(u)`` would spread
    less than ``ε`` to each neighbor, so dropping it perturbs any downstream
    entry by at most ``O(ε)`` per sweep (the same locality lever PowerWalk
    uses to scale PPR to million-node graphs).  Row-sparse is the right
    decomposition because diffusion mixes whole personalization rows: any
    node reached by mass holds a fully dense embedding row, so sparsity
    lives at row, not entry, granularity — and the per-sweep product is a
    sliced-operator × dense-block matmul running at dense-kernel speed over
    only the active ``O(active edges × dim)`` work.

    Density/accuracy trade-off
    --------------------------
    ``epsilon`` buys memory and speed with accuracy, smoothly:

    * ``epsilon = 0`` — no pruning.  The active set grows to the full
      reachable set and every value is **bit-identical** to the dense power
      loop (the sliced matmul accumulates the same products in the same
      order; the skipped terms are exact zeros), so the sparse filter is a
      pure storage-layout change.
    * small ``epsilon`` (the :data:`SPARSE_DEFAULT_EPSILON` regime) — the
      iterate keeps only the mass concentrated around personalization
      holders; the active set is roughly the union of their ``O(1/a)``-hop
      neighborhoods.  Per-entry error is bounded by ``~ε·d_max/a`` in the
      worst case and is orders of magnitude smaller in practice; top-k
      rankings by diffused score are essentially unchanged.
    * large ``epsilon`` — aggressive truncation: memory stays near the
      personalization's own footprint, but faraway nodes lose their (tiny)
      scores entirely, degrading ranking tails first.  Past the point where
      ``ε · d(u)`` exceeds the typical one-hop value ``~(1−a)·|E0|/d`` the
      collapse is total: every neighbor row is pruned on the first sweep
      and the "diffusion" degenerates to the bare teleport ``a·E0`` (the
      reduced benchmark sweep measures overlap@20 = 0.46 at ``ε = 0.01``).
      Where that point lies depends on the rows' scale, the degrees and
      the dimension, so no ε is safe for unit-scale rows in general: the
      committed sweep holds top-k overlap ≥ 0.99 at 1e-3 and ≥ 0.96 at
      3e-3 on its overlays, while unit 64-d rows on a degree-10 overlay
      lose 94% of the diffusable mass at 1e-3 (see
      :data:`SPARSE_DEFAULT_EPSILON`).  The filter guards the footgun at
      run time — see :func:`check_pruned_mass`, which emits a
      :class:`PrunedMassWarning` when more than half of the diffusable
      mass was truncated and the run's error bound confirms it.

    Pruning is applied with *hysteresis*: a row that has ever exceeded its
    threshold (or carried initial personalization mass) joins a monotone
    allow-set and is never truncated again, even while it dips under the
    threshold.  Without this, neighboring boundary rows can feed each other
    into a pruned/unpruned limit cycle that never converges; with it the
    allow-set — monotone and bounded — freezes after finitely many sweeps,
    the iteration becomes a linear contraction composed with a fixed
    support projection, and the usual ``residual < tol`` criterion
    terminates.  Because rows never leave the support, a sweep re-slices
    the operator only when rows join it, builds the next iterate by
    appending them, and measures its change without aligning two supports
    (see ``_OperatorSlice``).

    Work and error accounting
    -------------------------
    The result reports ``edge_operations`` in the push kernel's unit (each
    sweep reads the stored operator entries of its active rows, so the
    count is their out-degrees summed over sweeps) and a sound a-posteriori
    ``residual_l1``.  The residual ``R(E) = αE0 + (1−α)AE − E`` of any
    estimate satisfies ``(I − (1−α)A)(E* − E) = R(E)``, so under a
    column-normalized operator ``‖E* − E‖₁ ≤ ‖R(E)‖₁/α``.  For the final
    iterate ``R`` is the last sweep's pruned rows plus ``(1−α)A`` times the
    last change, whose largest entry the convergence test already measured:
    bounding it after the loop costs one product over the pruned rows (about
    1% of a run), not another sweep over the whole iterate.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        *,
        epsilon: float = SPARSE_DEFAULT_EPSILON,
        tol: float = 1e-9,
        max_iterations: int = 10_000,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        check_probability(alpha, "alpha")
        if alpha == 0.0:
            raise ValueError("alpha must be positive (alpha=0 never teleports)")
        check_non_negative(epsilon, "epsilon")
        check_positive(tol, "tol")
        check_positive_int(max_iterations, "max_iterations")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        #: Iterate/output dtype.  float64 (default) is bit-identical to the
        #: dense power loop at ε=0; float32 halves cache memory and keeps
        #: top-k rankings within the tolerance quantified in the committed
        #: ε-sweep benchmark (overlap@100 ≥ 0.98 vs float64).
        self.dtype = dtype

    def apply_detailed(
        self, operator: sp.spmatrix, signal: np.ndarray | sp.spmatrix | RowBlock
    ) -> DiffusionResult:
        """Diffuse ``signal``; the result's ``.signal`` is a :class:`RowBlock`.

        Accepts a dense array, a ``scipy.sparse`` matrix or a block (see
        :func:`coerce_sparse_signal`); the output block has shape
        ``(n, dim)`` (a dense vector input yields an ``(n, 1)`` column) and
        holds the support rows, ascending.  Use ``.toarray()`` for a dense
        view, ``.tocsr()`` for CSR.
        """
        n = operator.shape[0]
        signal, _ = coerce_sparse_signal(signal, n, self.dtype)
        dim = signal.shape[1]
        alpha = self.alpha
        damping = 1.0 - alpha
        csr_op = (
            operator
            if sp.issparse(operator) and operator.format == "csr"
            else operator.tocsr()
        )
        # In float32 mode the sliced matmuls must not promote back to
        # float64; for float64 astype(copy=False) is a no-op on the cache.
        op_data = csr_op.data.astype(self.dtype, copy=False)
        # Row id of every stored operator entry (reused by each re-slice);
        # int32 halves the footprint and node counts stay far below 2^31.
        index_dtype = np.int32 if n < np.iinfo(np.int32).max else np.int64
        op_entry_rows = np.repeat(
            np.arange(n, dtype=index_dtype), np.diff(csr_op.indptr)
        )

        # The iterate: its rows in the order they joined the support (the
        # teleport rows first, so the teleport term always sits in the
        # block's head), its dense (k, dim) block, and the node -> row map
        # `position` (-1 off the support).  Rows never leave: see
        # `_OperatorSlice`.
        rows = signal.nodes
        teleport = signal.rows * alpha
        block = teleport.copy()
        position = np.full(n, -1, dtype=index_dtype)
        position[rows] = np.arange(rows.shape[0])

        thresholds = None
        if self.epsilon > 0.0 and dim:
            thresholds = self.epsilon * operator_out_degrees(operator).astype(
                np.float64
            )

        sliced: _OperatorSlice | None = None
        edge_operations = 0
        # float32 iterates cannot resolve tolerances below rounding noise;
        # floor the criterion at the dtype's resolution (float64: unchanged).
        tol = effective_tolerance(self.tol, self.dtype)
        for iterations in range(1, self.max_iterations + 1):
            if sliced is None:
                sliced = _OperatorSlice(
                    csr_op, op_data, op_entry_rows, position, rows
                )
            edge_operations += sliced.nnz
            new_block, joined_rows, joined_values = sliced.propagate(
                block, damping, thresholds
            )
            new_block[: teleport.shape[0]] += teleport
            # The support only grows, so the change is new − old on the old
            # rows and the whole new value on the rows that join.
            changes = []
            if dim:
                changes = [
                    np.max(np.abs(new_block[lo:hi] - block[lo:hi]))
                    for lo, hi in _row_chunks(block.shape[0])
                ]
                changes += [np.max(np.abs(values)) for values in joined_values]
            residual = float(np.max(changes)) if changes else 0.0
            converged = residual < tol
            if joined_rows:
                joined = np.concatenate(joined_rows)
                position[joined] = np.arange(
                    rows.shape[0], rows.shape[0] + joined.shape[0]
                )
                rows = np.concatenate((rows, joined))
                new_block = np.concatenate([new_block, *joined_values])
            if converged or iterations == self.max_iterations:
                # The error bound after the loop reads the last two iterates
                # and the last slice; earlier ones are dropped as the loop goes.
                prev_block = block
                block = new_block
                break
            block = new_block
            if joined_rows:
                sliced = None
        # The last sweep's pruned rows below are the run's largest array.
        del op_entry_rows

        # Summed over the nonzero entries in row order, as over a CSR copy.
        e0_l1 = float(np.abs(signal.rows[signal.rows != 0]).sum())
        pruned_l1 = damping * sliced.pruned_l1(position, prev_block)
        order = np.argsort(rows)
        rows = rows[order]
        block = block[order]
        estimate_l1 = float(np.abs(block).sum())
        mass_ratio = None
        if self.epsilon > 0.0:
            mass_ratio = check_pruned_mass(e0_l1, estimate_l1, alpha, pruned_l1)
        # The last change has at most this many nonzero entries, each at
        # most `residual` in magnitude.
        change_entries = dim * (prev_block.shape[0] + block.shape[0])
        residual_l1 = self._residual_l1_bound(
            operator,
            pruned_l1=pruned_l1,
            change_l1=residual * change_entries,
            estimate_l1=estimate_l1,
            e0_l1=e0_l1,
            max_row_entries=sliced.max_row_entries,
        )
        return DiffusionResult(
            signal=RowBlock(rows, block, n),
            iterations=iterations,
            residual=residual,
            converged=converged,
            diffused_mass_ratio=mass_ratio,
            edge_operations=edge_operations,
            residual_l1=residual_l1,
        )

    def _residual_l1_bound(
        self,
        operator: sp.spmatrix,
        *,
        pruned_l1: float,
        change_l1: float,
        estimate_l1: float,
        e0_l1: float,
        max_row_entries: int,
    ) -> float:
        """Upper bound on ``‖R(E_k)‖₁/α`` for the final iterate ``E_k``.

        The last sweep computed ``E_k = αE0 + (1−α)A·E_{k−1} − D`` with
        ``D`` the rows it pruned, so
        ``R(E_k) = D + (1−α)A(E_k − E_{k−1}) + ρ``, where ``ρ`` is that
        sweep's rounding.  The terms are bounded by the pruned rows' L1
        mass, by ``(1−α)‖A‖₁`` times the last change, and by the standard
        error bound of an ``m``-term dot product, ``γ_m = m·u/(1 − m·u)``,
        over the products the sweep summed (``‖E_{k−1}‖₁`` is at most
        ``‖E_k‖₁`` plus the change); ``u`` is taken as the dtype's machine
        epsilon (twice the unit roundoff), which also covers casting ``α``,
        ``1−α``, the personalization and the computed change to float32.
        """
        alpha = self.alpha
        damping = 1.0 - alpha
        norm = operator_l1_norm(operator)
        eps = float(np.finfo(self.dtype).eps)
        terms = (max_row_entries + 3) * eps
        if terms >= 1.0:
            return inf
        gamma = terms / (1.0 - terms)
        change_l1 *= 1.0 + eps
        rounding = gamma * (
            damping * norm * (estimate_l1 + change_l1) + 2.0 * alpha * e0_l1
        )
        return (pruned_l1 + damping * norm * change_l1 + rounding) / alpha

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SparsePersonalizedPageRank(alpha={self.alpha}, "
            f"epsilon={self.epsilon})"
        )


class HeatKernel(GraphFilter):
    """Heat-kernel filter ``exp(−t (I − A)) = e^{−t} exp(t A)``.

    Implemented as a truncated Taylor series in the operator; the truncation
    order is chosen so the neglected Poisson tail mass is below ``tol``.
    """

    def __init__(self, t: float = 3.0, *, tol: float = 1e-9, max_order: int = 200) -> None:
        check_positive(t, "t")
        check_positive(tol, "tol")
        self.max_order = check_positive_int(max_order, "max_order")
        self.t = float(t)
        self.tol = float(tol)

    def coefficients(self) -> np.ndarray:
        """Poisson weights ``e^{−t} t^k / k!`` truncated at tail mass < tol."""
        coeffs = []
        cumulative = 0.0
        for k in range(self.max_order + 1):
            log_coeff = -self.t + k * log(self.t) - lgamma(k + 1)
            coeff = exp(log_coeff)
            coeffs.append(coeff)
            cumulative += coeff
            if 1.0 - cumulative < self.tol and k >= self.t:
                break
        return np.asarray(coeffs, dtype=np.float64)

    def apply_detailed(
        self, operator: sp.spmatrix, signal: np.ndarray
    ) -> DiffusionResult:
        n = operator.shape[0]
        signal, was_vector = coerce_signal(signal, n)
        weights = self.coefficients()
        current = signal
        total = weights[0] * current
        for weight in weights[1:]:
            current = operator @ current
            total = total + weight * current
        out = total[:, 0] if was_vector else total
        tail = float(1.0 - weights.sum())
        return DiffusionResult(
            out, iterations=len(weights), residual=tail, converged=tail < self.tol
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"HeatKernel(t={self.t})"
