"""Graph filters: Personalized PageRank, heat kernel, arbitrary polynomials.

The PPR filter implements eq. (6) of the paper,
``E = a (I − (1−a) A)^{-1} E0``, either by power iteration of eq. (7) (the
synchronous counterpart of the decentralized diffusion) or by a sparse direct
solve (ground truth for tests and small graphs).
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

from repro.utils import check_non_negative, check_positive, check_probability


@dataclass(frozen=True)
class DiffusionResult:
    """Outcome of a filter application with convergence diagnostics.

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

    signal: np.ndarray
    iterations: int
    residual: float
    converged: bool
    diffused_mass_ratio: float | None = None
    edge_operations: int = 0
    residual_l1: float = 0.0


class PrunedMassWarning(RuntimeWarning):
    """ε-pruning removed most of the diffusable personalization mass."""


#: Warn when less than this fraction of the diffusable (non-teleport) mass
#: survives ε-pruning.  The degenerate all-pruned fixed point retains
#: exactly ``α·‖E0‖₁`` (teleport only), i.e. a surviving fraction of 0.
PRUNED_MASS_WARN_FRACTION = 0.5


def check_pruned_mass(
    e0_l1: float,
    estimate_l1: float,
    alpha: float,
    epsilon: float,
) -> float:
    """Surviving-diffusable-mass ratio of an ε-pruned diffusion, with guard.

    Under the column-stochastic operator an exact PPR diffusion conserves
    the personalization's ℓ₁ mass (sign cancellation aside): ``α·‖E0‖₁`` of
    it stays as the teleport term and the remaining ``(1−α)·‖E0‖₁`` spreads
    over the graph.  Aggressive ε-pruning truncates that spreading share —
    in the limit the iterate collapses to the bare teleport after one sweep
    and faraway nodes score zero (the failure mode behind the reduced-sweep
    observation that ``ε=0.01`` drops overlap@20 to 0.46).  The returned
    ratio is ``(‖E‖₁ − α‖E0‖₁) / ((1−α)·‖E0‖₁)``, clamped to ``[0, 1]``;
    when it falls below :data:`PRUNED_MASS_WARN_FRACTION` a
    :class:`PrunedMassWarning` is emitted.  Sign cancellation in mixed-sign
    embeddings also lowers the ratio a little (≈0.7–0.75 for unpruned
    unit-scale Gaussian rows on the benchmark overlays), so the guard is
    deliberately conservative: it fires on collapse, not on the healthy
    regime (≳0.5 at the default ε).
    """
    diffusable = (1.0 - alpha) * e0_l1
    if diffusable <= 0.0:
        return 1.0
    ratio = (estimate_l1 - alpha * e0_l1) / diffusable
    ratio = float(min(1.0, max(0.0, ratio)))
    if ratio < PRUNED_MASS_WARN_FRACTION:
        warnings.warn(
            f"epsilon-pruning (epsilon={epsilon:g}) removed "
            f"{1.0 - ratio:.0%} of the diffusable personalization mass — "
            "the diffusion has degenerated toward the bare teleport term "
            "and distant nodes will score ~0.  Lower epsilon (safe range "
            "for unit-scale embeddings: <= ~3e-3, see "
            "SPARSE_DEFAULT_EPSILON) or rescale it with the "
            "personalization magnitude.",
            PrunedMassWarning,
            stacklevel=3,
        )
    return ratio


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
    signal: np.ndarray | sp.spmatrix, n: int, dtype: np.dtype | type = np.float64
) -> tuple[sp.csr_matrix, bool]:
    """Coerce a graph signal to a float CSR ``(n, dim)`` matrix (float64 default).

    The sparse counterpart of :func:`coerce_signal`: dense inputs (vectors or
    matrices) are converted to CSR, sparse inputs are reformatted/canonicalized
    without densifying.  Returns the matrix plus whether the input was a bare
    vector (dense 1-D); sparse inputs are never vectors.
    """
    if sp.issparse(signal):
        matrix = signal.tocsr().astype(dtype)
        if matrix is signal:  # tocsr/astype may return the input itself
            matrix = matrix.copy()
        if matrix.ndim != 2 or matrix.shape[0] != n:
            raise ValueError(
                f"signal must have {n} rows, got shape {matrix.shape}"
            )
        matrix.sum_duplicates()
        matrix.sort_indices()
        return matrix, False
    dense, was_vector = coerce_signal(signal, n, dtype)
    return sp.csr_matrix(dense), was_vector


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
        check_positive(max_iterations, "max_iterations")
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


#: Default pruning threshold of :class:`SparsePersonalizedPageRank`.  At this
#: setting the diffused top-k node rankings overlap the dense filter's by
#: > 0.99 on the benchmark workloads (see
#: ``benchmarks/test_bench_sparse_scale.py`` for the measured ε sweep) while
#: keeping the iterate support — and therefore memory and per-sweep work —
#: a small fraction of ``n_nodes × dim``.  The threshold is *absolute*
#: (``ε · d(u)`` against raw signal values), calibrated for unit-scale
#: document embeddings; rescale ε with the personalization magnitude.  Safe
#: range for unit-scale rows: up to ~3e-3; by ε = 1e-2 the diffusion
#: collapses to the teleport term (overlap@20 = 0.46 in the reduced sweep)
#: and the filter emits a :class:`PrunedMassWarning`.
SPARSE_DEFAULT_EPSILON = 1e-3

#: Row-chunk size of the sparse filter's propagate-and-prune sweep: bounds
#: the transient pre-truncation frontier to ``chunk × dim`` floats so peak
#: memory tracks the *surviving* support, not the touched one.
_SPARSE_CHUNK_ROWS = 8192


class SparsePersonalizedPageRank(GraphFilter):
    """PPR power iteration on sparse signals with degree-normalized ε-pruning.

    Iterates eq. (7) exactly like :class:`PersonalizedPageRank` with
    ``method="power"``, but the iterate lives in *row-sparse* form — an
    active-row index array plus a dense ``(k, dim)`` block — and after every
    sweep, rows too small to matter downstream are truncated: row ``u`` is
    dropped when ``max_c |E_k[u, c]| < ε · d(u)`` where ``d(u)`` is ``u``'s
    out-degree under the operator.  This is exactly the forward-push
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
      **Safe range for unit-scale personalization rows: ε ≲ 3e-3** (the
      committed sweep holds top-k overlap ≥ 0.99 at 1e-3 and ≥ 0.96 at
      3e-3); the filter guards the footgun at run time — see
      :func:`check_pruned_mass`, which emits a :class:`PrunedMassWarning`
      when more than half of the diffusable mass was truncated.

    Pruning is applied with *hysteresis*: a row that has ever exceeded its
    threshold (or carried initial personalization mass) joins a monotone
    allow-set and is never truncated again, even while it dips under the
    threshold.  Without this, neighboring boundary rows can feed each other
    into a pruned/unpruned limit cycle that never converges; with it the
    allow-set — monotone and bounded — freezes after finitely many sweeps,
    the iteration becomes a linear contraction composed with a fixed
    support projection, and the usual ``residual < tol`` criterion
    terminates.

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
        check_positive(max_iterations, "max_iterations")
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
        self, operator: sp.spmatrix, signal: np.ndarray | sp.spmatrix
    ) -> DiffusionResult:
        """Diffuse ``signal``; the result's ``.signal`` is a CSR matrix.

        Accepts dense or sparse input; the output is always CSR of shape
        ``(n, dim)`` (a dense vector input yields an ``(n, 1)`` column).
        Use ``.toarray()`` for a dense view.
        """
        n = operator.shape[0]
        matrix, _ = coerce_sparse_signal(signal, n, self.dtype)
        dim = matrix.shape[1]
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
        row_dtype = np.int32 if n < np.iinfo(np.int32).max else np.int64
        op_entry_rows = np.repeat(
            np.arange(n, dtype=row_dtype), np.diff(csr_op.indptr)
        )

        # Row-sparse state: sorted active-row ids + dense (k, dim) block.
        teleport_rows = np.flatnonzero(np.diff(matrix.indptr)).astype(np.int64)
        teleport_block = matrix[teleport_rows].toarray() * alpha
        cur_rows = teleport_rows
        cur_block = teleport_block.copy()

        if self.epsilon > 0.0:
            thresholds = self.epsilon * operator_out_degrees(operator).astype(
                np.float64
            )
            allowed = np.zeros(n, dtype=bool)
            allowed[teleport_rows] = True
        else:
            thresholds = None
            allowed = None

        # The column-masked slice of the operator is re-usable as long as
        # the active-row set doesn't change (it freezes after a few sweeps).
        sliced_rows: np.ndarray | None = None
        sliced: sp.csr_matrix | None = None
        touched: np.ndarray | None = None
        active_mask = np.zeros(n, dtype=bool)

        residual = np.inf
        converged = False
        iterations = 0
        edge_operations = 0
        # float32 iterates cannot resolve tolerances below rounding noise;
        # floor the criterion at the dtype's resolution (float64: unchanged).
        tol = effective_tolerance(self.tol, self.dtype)
        for iterations in range(1, self.max_iterations + 1):
            if sliced_rows is None or not np.array_equal(sliced_rows, cur_rows):
                # Mask the operator's stored entries to the active columns,
                # compacted to the rows they actually touch.  Entry order
                # within each row is the operator's own storage order, so
                # the sliced matmul accumulates the surviving products in
                # exactly the dense loop's sequence (the skipped terms are
                # exact zeros) — this is what keeps ε=0 bit-identical.
                active_mask[:] = False
                active_mask[cur_rows] = True
                keep_entry = active_mask[csr_op.indices]
                counts = np.bincount(op_entry_rows[keep_entry], minlength=n)
                touched = np.flatnonzero(counts).astype(np.int64)
                sliced = sp.csr_matrix(
                    (
                        op_data[keep_entry],
                        np.searchsorted(cur_rows, csr_op.indices[keep_entry]),
                        np.concatenate(([0], np.cumsum(counts[touched]))),
                    ),
                    shape=(touched.shape[0], cur_rows.shape[0]),
                )
                sliced_rows = cur_rows
            edge_operations += sliced.nnz
            # Dense-kernel matmuls over the active edges only, in row
            # chunks: each chunk is pruned the moment it is computed
            # (degree-normalized truncation — the forward-push activation
            # rule — with the monotone allow-set hysteresis described in
            # the class docstring), so the transient frontier of
            # sub-threshold rows never materializes as one big array.
            kept_rows_parts: list[np.ndarray] = []
            kept_value_parts: list[np.ndarray] = []
            for lo in range(0, touched.shape[0], _SPARSE_CHUNK_ROWS):
                hi = min(lo + _SPARSE_CHUNK_ROWS, touched.shape[0])
                chunk_rows = touched[lo:hi]
                chunk = sliced[lo:hi] @ cur_block
                chunk *= damping
                if thresholds is not None and dim:
                    peaks = np.max(np.abs(chunk), axis=1)
                    above = peaks >= thresholds[chunk_rows]
                    allowed[chunk_rows[above]] = True
                    keep = above | allowed[chunk_rows]
                    if not keep.all():
                        chunk_rows = chunk_rows[keep]
                        chunk = chunk[keep]
                kept_rows_parts.append(chunk_rows)
                kept_value_parts.append(chunk)
            kept_rows = (
                np.concatenate(kept_rows_parts)
                if kept_rows_parts
                else np.empty(0, dtype=np.int64)
            )
            new_rows = np.union1d(kept_rows, teleport_rows)
            block = np.zeros((new_rows.shape[0], dim), dtype=self.dtype)
            if kept_rows.shape[0]:
                block[np.searchsorted(new_rows, kept_rows)] = np.concatenate(
                    kept_value_parts
                )
            block[np.searchsorted(new_rows, teleport_rows)] += teleport_block
            # Residual over the union of old and new supports (a vanished
            # row's change is its full old value).
            if np.array_equal(new_rows, cur_rows):
                residual = (
                    float(np.max(np.abs(block - cur_block)))
                    if block.size
                    else 0.0
                )
            else:
                union = np.union1d(new_rows, cur_rows)
                change = np.zeros((union.shape[0], dim), dtype=self.dtype)
                change[np.searchsorted(union, new_rows)] = block
                change[np.searchsorted(union, cur_rows)] -= cur_block
                residual = (
                    float(np.max(np.abs(change))) if change.size else 0.0
                )
            converged = residual < tol
            if converged or iterations == self.max_iterations:
                # The error bound after the loop needs the last two iterates;
                # earlier ones are dropped as the loop goes.
                prev_rows, prev_block = cur_rows, cur_block
            cur_rows, cur_block = new_rows, block
            if converged:
                break

        e0_l1 = float(np.abs(matrix.data).sum())
        estimate_l1 = float(np.abs(cur_block).sum())
        mass_ratio = None
        if thresholds is not None:
            mass_ratio = check_pruned_mass(
                e0_l1, estimate_l1, alpha, self.epsilon
            )
        residual_l1 = inf  # no sweep ran (max_iterations < 1): no bound
        if touched is not None:
            # The last sweep's pruned rows: touched, but not in the iterate.
            active_mask[:] = False
            active_mask[cur_rows] = True
            pruned = np.flatnonzero(~active_mask[touched])
            pruned_values = sliced[pruned] @ prev_block
            pruned_l1 = damping * float(
                np.abs(pruned_values, out=pruned_values).sum()
            )
            # The last change has at most this many nonzero entries, each at
            # most `residual` in magnitude.
            change_entries = dim * (prev_rows.shape[0] + cur_rows.shape[0])
            residual_l1 = self._residual_l1_bound(
                operator,
                pruned_l1=pruned_l1,
                change_l1=residual * change_entries,
                estimate_l1=estimate_l1,
                e0_l1=e0_l1,
                max_row_entries=int(np.diff(sliced.indptr).max(initial=0)),
            )
        return DiffusionResult(
            signal=self._to_csr(cur_rows, cur_block, n, dim),
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

    @staticmethod
    def _to_csr(
        rows: np.ndarray, block: np.ndarray, n: int, dim: int
    ) -> sp.csr_matrix:
        """Assemble the row-sparse state into a canonical CSR matrix."""
        nnz = rows.shape[0] * dim
        idx_dtype = (
            np.int32
            if max(nnz, n + 1, dim) < np.iinfo(np.int32).max
            else np.int64
        )
        counts = np.zeros(n, dtype=idx_dtype)
        counts[rows] = dim
        indptr = np.concatenate(
            (np.zeros(1, dtype=idx_dtype), np.cumsum(counts, dtype=idx_dtype))
        )
        indices = np.tile(np.arange(dim, dtype=idx_dtype), rows.shape[0])
        result = sp.csr_matrix(
            (block.ravel(), indices, indptr), shape=(n, dim)
        )
        result.eliminate_zeros()
        return result

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
        check_positive(max_order, "max_order")
        self.t = float(t)
        self.tol = float(tol)
        self.max_order = int(max_order)

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


class PolynomialFilter(GraphFilter):
    """Arbitrary polynomial filter ``sum_k coeffs[k] A^k``."""

    def __init__(self, coefficients: np.ndarray) -> None:
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim != 1 or coefficients.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        self.coefficients_array = coefficients

    def apply_detailed(
        self, operator: sp.spmatrix, signal: np.ndarray
    ) -> DiffusionResult:
        n = operator.shape[0]
        signal, was_vector = coerce_signal(signal, n)
        weights = self.coefficients_array
        current = signal
        total = weights[0] * current
        for weight in weights[1:]:
            current = operator @ current
            total = total + weight * current
        out = total[:, 0] if was_vector else total
        return DiffusionResult(
            out, iterations=len(weights), residual=0.0, converged=True
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolynomialFilter(order={self.coefficients_array.size - 1})"
