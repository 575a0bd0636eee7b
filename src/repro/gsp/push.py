"""Residual-based Forward Push (Gauss–Southwell) for the PPR filter.

Local alternative to power iteration for ``E = a (I − (1−a) A)^{-1} E0``
(paper eq. 6).  The kernel maintains an *estimate* ``p`` and a *residual*
``r`` satisfying the invariant

    p + H r = H r0 ,      H = a (I − (1−a) A)^{-1} ,

starting from ``p = 0, r = r0``.  Each sweep pushes every node whose
residual row still exceeds the threshold: the node absorbs ``a·r_u`` into
its estimate and forwards ``(1−a)·r_u`` to its neighbors through the
operator column ``A[:, u]``.  Work is therefore proportional to the mass
still in the residual — *not* to the size of the graph — which makes the
kernel suitable both for cold-start diffusion and, crucially, for patching
an existing diffusion after a **sparse change** to the personalization:
diffusing the delta ``r0 = E0' − E0`` yields exactly the correction
``H E0' − H E0`` by linearity.

The batched sweep is a Gauss–Southwell relaxation: instead of one node at a
time, every above-threshold node is relaxed per sweep (the vertex-centric
decomposition used by systems like PowerWalk), which vectorizes cleanly.

Two kernels implement it: dense :func:`forward_push` and CSR
:func:`sparse_forward_push`.  They run the same sweeps and edge operations,
but on the dense signals the ``push`` backend and the simulation's
``SignalRefresher`` pass, the dense kernel is several times faster (README,
"Raw speed", has the measured table), so both stay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.gsp.filters import (
    coerce_signal,
    coerce_sparse_signal,
    effective_tolerance,
    operator_out_degrees,
)
from repro.kernels import dispatch as kernels
from repro.utils import check_non_negative, check_positive, check_probability

#: Use the row-local scatter path when the pushed columns' nonzeros are
#: below ``n / _SPARSE_SWEEP_DIVISOR`` — below it, updating only touched
#: rows beats the dense matmul whose add/argmax cost is Θ(n · dim).
_SPARSE_SWEEP_DIVISOR = 4


@dataclass(frozen=True)
class PushResult:
    """Outcome of a forward-push run with work accounting.

    Attributes
    ----------
    estimate:
        The diffused signal ``≈ H r0`` with shape ``(n_nodes, dim)``.
    residual:
        Final max-abs entry of the residual matrix (the convergence metric).
    residual_l1:
        Final L1 norm of the residual matrix (``Σ|r|`` over every entry).
        For a column-normalized operator ``‖H‖₁ ≤ 1``, so the un-applied
        correction ``H r`` satisfies ``‖H r‖₁ ≤ residual_l1`` — the quantity
        staleness trackers accumulate as the *error bound* left behind by a
        truncated or tolerance-converged push (see
        :class:`repro.churn.StalenessTracker`).
    sweeps:
        Number of batched Gauss–Southwell sweeps performed.
    pushes:
        Total node-push operations (rows relaxed, summed over sweeps).
    edge_operations:
        Total edge traversals (sum of pushed nodes' degrees) — the
        graph-work unit comparable across full and incremental runs.
    converged:
        True when every residual entry fell below the threshold.
    """

    estimate: np.ndarray
    residual: float
    sweeps: int
    pushes: int
    edge_operations: int
    converged: bool
    residual_l1: float = 0.0


def forward_push(
    operator: sp.spmatrix,
    signal: np.ndarray,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
) -> PushResult:
    """Diffuse ``signal`` with the PPR filter by residual forward push.

    Parameters
    ----------
    operator:
        Normalized adjacency (any kind from
        :func:`repro.gsp.normalization.transition_matrix`); spectral radius
        must be ≤ 1 for the ``(1−alpha)``-contraction to hold.
    signal:
        Initial residual ``r0`` of shape ``(n,)`` or ``(n, dim)``.  Pass the
        personalization matrix for a cold start, or a (mostly zero) delta
        matrix to compute the correction to an existing diffusion.
    tol:
        Push threshold on the max-abs residual entry of a row.  The returned
        estimate deviates from the exact filter output by at most
        ``‖H‖∞ · tol`` element-wise.
    max_sweeps:
        Cap on batched sweeps (each sweep relaxes all active rows at once).
    """
    check_probability(alpha, "alpha")
    if alpha == 0.0:
        raise ValueError("alpha must be positive (alpha=0 never teleports)")
    check_positive(tol, "tol")
    check_positive(max_sweeps, "max_sweeps")

    n = operator.shape[0]
    residual, was_vector = coerce_signal(signal, n)
    residual = residual.copy()
    estimate = np.zeros_like(residual)

    # Column view: pushing node u scatters along column u of the operator.
    columns = operator.tocsc()
    col_degrees = np.diff(columns.indptr)

    damping = 1.0 - alpha
    sweeps = 0
    pushes = 0
    edge_operations = 0
    row_peak = np.max(np.abs(residual), axis=1) if residual.size else np.zeros(n)

    n_nodes = residual.shape[0]
    for sweeps in range(1, max_sweeps + 1):
        active = np.flatnonzero(row_peak > tol)
        if active.size == 0:
            sweeps -= 1
            break
        nnz_active = int(col_degrees[active].sum())
        if active.size == n_nodes:
            # Everyone is active (typical cold-start sweeps): push the whole
            # residual through the operator without slicing a copy of it.
            estimate += alpha * residual
            residual = np.asarray(columns @ (damping * residual))
            row_peak = np.max(np.abs(residual), axis=1)
            pushes += int(active.size)
            edge_operations += nnz_active
            continue
        pushed = residual[active]
        estimate[active] += alpha * pushed
        # Scatter (1−a)·r_u along operator column u for every active u, then
        # clear the pushed rows — one sparse slice keeps the cost O(Σ deg u).
        sub = columns[:, active]
        residual[active] = 0.0
        if nnz_active < n_nodes // _SPARSE_SWEEP_DIVISOR:
            # Localized delta: touch only the scatter's support rows so a
            # small change never pays Θ(n · dim) per sweep.
            coo = sub.tocoo()
            kernels.scatter_add_weighted_rows(
                residual, coo.row, coo.col, coo.data, pushed, damping
            )
            touched = np.unique(np.concatenate((active, coo.row)))
            row_peak[touched] = np.max(np.abs(residual[touched]), axis=1)
        else:
            residual += np.asarray(sub @ (damping * pushed))
            row_peak = np.max(np.abs(residual), axis=1)
        pushes += int(active.size)
        edge_operations += nnz_active

    final_residual = float(row_peak.max()) if row_peak.size else 0.0
    out = estimate[:, 0] if was_vector else estimate
    return PushResult(
        estimate=out,
        residual=final_residual,
        sweeps=sweeps,
        pushes=pushes,
        edge_operations=edge_operations,
        converged=final_residual <= tol,
        residual_l1=float(np.abs(residual).sum()),
    )


def sparse_forward_push(
    operator: sp.spmatrix,
    signal: np.ndarray | sp.spmatrix,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    epsilon: float = 0.0,
    max_sweeps: int = 10_000,
    dtype: np.dtype | type = np.float64,
) -> PushResult:
    """Multi-column Forward Push keeping estimate and residual in CSR form.

    The sparse counterpart of :func:`forward_push`: the same
    ``p + H r = H r0`` residual bookkeeping and batched Gauss–Southwell
    sweeps, but estimate and residual are ``scipy.sparse`` CSR matrices, so
    memory and per-sweep work scale with the mass actually in flight rather
    than with ``n_nodes × dim``.  The returned ``estimate`` is a CSR matrix.

    ``epsilon`` adds the degree-normalized truncation of
    :class:`repro.gsp.filters.SparsePersonalizedPageRank`: a row is pushed
    only while its peak exceeds ``max(tol, ε · d(u))`` (a node below that
    would spread less than ``ε`` to each neighbor); the sub-threshold
    residual is abandoned, trading bounded accuracy for locality.  With
    ``epsilon=0`` the kernel converges to the same ``tol`` criterion as the
    dense :func:`forward_push`.

    ``dtype=float32`` runs residual, estimate, and operator values in single
    precision.  Each sweep finds its active rows with
    :func:`repro.kernels.dispatch.csr_row_peaks` and scatters them with one
    scipy sparse product, so its cost is the edge traversals counted in
    ``edge_operations``.
    """
    check_probability(alpha, "alpha")
    if alpha == 0.0:
        raise ValueError("alpha must be positive (alpha=0 never teleports)")
    check_positive(tol, "tol")
    check_non_negative(epsilon, "epsilon")
    check_positive(max_sweeps, "max_sweeps")
    dtype = np.dtype(dtype)
    # float32 residuals bottom out at rounding noise; floor the push
    # threshold at the dtype's resolution (float64 passes through).
    tol = effective_tolerance(tol, dtype)

    n = operator.shape[0]
    residual, _ = coerce_sparse_signal(signal, n, dtype)
    dim = residual.shape[1]
    # Per-sweep (rows, cols, values) contributions to the estimate; summed
    # into one CSR matrix after the loop (nothing reads the estimate
    # mid-loop, and rebuilding it per sweep would cost O(sweeps x nnz)).
    estimate_rows: list[np.ndarray] = []
    estimate_cols: list[np.ndarray] = []
    estimate_values: list[np.ndarray] = []

    columns = operator.tocsc()
    col_degrees = operator_out_degrees(columns)
    if columns.data.dtype != dtype:
        columns = columns.astype(dtype)
    thresholds = np.maximum(tol, epsilon * col_degrees.astype(np.float64))

    damping = 1.0 - alpha
    sweeps = 0
    pushes = 0
    edge_operations = 0
    for sweeps in range(1, max_sweeps + 1):
        rows, peaks = kernels.csr_row_peaks(residual.data, residual.indptr)
        active = rows[peaks > thresholds[rows]]
        if active.size == 0:
            sweeps -= 1
            break
        pushed = residual[active]
        estimate_rows.append(active.repeat(np.diff(pushed.indptr)))
        estimate_cols.append(pushed.indices.astype(np.int64, copy=False))
        estimate_values.append(alpha * pushed.data)
        # Clear the pushed rows, then scatter (1−a)·r_u along operator
        # column u for every active u.  The scatter is a CSR product (the
        # active columns converted to CSR rows, times the pushed rows), so
        # the sum adds two CSR matrices without converting the
        # (touched rows × dim) result to another format every sweep.
        lens = np.diff(residual.indptr)
        keep_row = np.ones(n, dtype=bool)
        keep_row[active] = False
        keep_entry = np.repeat(keep_row, lens)
        kept_indptr = np.concatenate(
            ([0], np.cumsum(np.where(keep_row, lens, 0)))
        )
        remaining = sp.csr_matrix(
            (residual.data[keep_entry], residual.indices[keep_entry], kept_indptr),
            shape=(n, dim),
        )
        scattered = columns[:, active].tocsr() @ pushed.multiply(damping)
        residual = remaining + scattered
        pushes += int(active.size)
        edge_operations += int(col_degrees[active].sum())

    rows, peaks = kernels.csr_row_peaks(residual.data, residual.indptr)
    final_residual = float(peaks.max()) if peaks.size else 0.0
    converged = bool(np.all(peaks <= thresholds[rows])) if rows.size else True
    if estimate_rows:
        estimate = sp.csr_matrix(
            (
                np.concatenate(estimate_values),
                (np.concatenate(estimate_rows), np.concatenate(estimate_cols)),
            ),
            shape=(n, dim),
        )  # the COO constructor sums duplicate (row, col) contributions
    else:
        estimate = sp.csr_matrix((n, dim), dtype=dtype)
    estimate.sort_indices()
    return PushResult(
        estimate=estimate,
        residual=final_residual,
        sweeps=sweeps,
        pushes=pushes,
        edge_operations=edge_operations,
        converged=converged,
        residual_l1=float(np.abs(residual.data).sum()) if residual.nnz else 0.0,
    )


def sparse_push_refresh(
    operator: sp.spmatrix,
    embeddings: np.ndarray | sp.spmatrix,
    delta: np.ndarray | sp.spmatrix,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    epsilon: float = 0.0,
    max_sweeps: int = 10_000,
    dtype: np.dtype | type = np.float64,
) -> tuple[sp.csr_matrix, PushResult]:
    """Patch a CSR diffusion cache after a sparse personalization change.

    The sparse counterpart of :func:`push_refresh`: given CSR (or dense)
    ``embeddings ≈ H E0`` and a mostly-zero ``delta = E0' − E0``, returns
    ``(embeddings + H delta, push_result)`` with everything kept in CSR form
    — the patched cache never densifies.  ``dtype`` is forwarded to
    :func:`sparse_forward_push`.
    """
    n = operator.shape[0]
    dtype = np.dtype(dtype)
    base, _ = coerce_sparse_signal(embeddings, n, dtype)
    delta_matrix, _ = coerce_sparse_signal(delta, n, dtype)
    if base.shape != delta_matrix.shape:
        raise ValueError(
            f"embeddings shape {base.shape} does not match "
            f"delta shape {delta_matrix.shape}"
        )
    result = sparse_forward_push(
        operator,
        delta_matrix,
        alpha=alpha,
        tol=tol,
        epsilon=epsilon,
        max_sweeps=max_sweeps,
        dtype=dtype,
    )
    patched = (base + result.estimate).tocsr()
    patched.sort_indices()
    return patched, result


def push_refresh(
    operator: sp.spmatrix,
    embeddings: np.ndarray,
    delta: np.ndarray,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
) -> tuple[np.ndarray, PushResult]:
    """Patch an existing diffusion after a sparse personalization change.

    Given ``embeddings ≈ H E0`` and ``delta = E0' − E0`` (zero outside the
    changed rows), returns ``(embeddings + H delta, push_result)`` — the
    diffusion of the *new* personalization — at a cost proportional to the
    magnitude of the change rather than the size of the network.
    """
    n = operator.shape[0]
    base, base_was_vector = coerce_signal(embeddings, n)
    delta_matrix, _ = coerce_signal(delta, n)
    if base.shape != delta_matrix.shape:
        raise ValueError(
            f"embeddings shape {base.shape} does not match "
            f"delta shape {delta_matrix.shape}"
        )
    result = forward_push(
        operator, delta_matrix, alpha=alpha, tol=tol, max_sweeps=max_sweeps
    )
    patched = base + result.estimate  # delta was coerced 2-D, so this is too
    return (patched[:, 0] if base_was_vector else patched), result
