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

One kernel serves dense signals and :class:`~repro.gsp.filters.RowBlock`
signals.  Residual and estimate are each a growable ``RowBlock``: a node →
slot map plus a dense ``slots × dim`` array.  A dense signal is the block
that holds every row (slot = node), so a sweep that pushes every row or a
wide share of the edges is one sparse × dense product over the whole
block.  A ``RowBlock`` signal's residual starts from its rows with a
nonzero entry, ascending, and appends rows as pushes reach them; its
estimate holds only the rows of the nodes it pushes, appended as each is
first pushed.  Every other sweep scatters with one CSR product over the
rows it touches, in bounded row chunks, and updates only those rows'
peaks.  The result keeps the input's format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.gsp.filters import (
    RowBlock,
    coerce_signal,
    coerce_sparse_signal,
    effective_tolerance,
    operator_out_degrees,
)
from repro.utils import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

#: A whole-block sweep of a dense signal is taken once the pushed columns
#: hold at least ``n / _WIDE_SWEEP_DIVISOR`` operator entries: beyond that,
#: one product over every row beats gathering and scattering the touched
#: ones.
_WIDE_SWEEP_DIVISOR = 4

#: Rows per scatter product of a localized sweep: bounds the transient
#: product to ``chunk × dim`` floats.
_SCATTER_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class PushResult:
    """Outcome of a forward-push run with work accounting.

    Attributes
    ----------
    estimate:
        The diffused signal ``≈ H r0``, in the input's format: a dense
        ``(n_nodes,)`` or ``(n_nodes, dim)`` array, or a
        :class:`~repro.gsp.filters.RowBlock` of the rows of the nodes the
        push pushed, in the order each was first pushed (every other row of
        the estimate is zero).
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
        True when every residual row fell to its push threshold.
    """

    estimate: np.ndarray | RowBlock
    residual: float
    sweeps: int
    pushes: int
    edge_operations: int
    converged: bool
    residual_l1: float = 0.0


def _row_peaks(rows: np.ndarray) -> np.ndarray:
    return np.abs(rows).max(axis=1, initial=0.0)


class _Push:
    """A push's state: its residual rows and its pushed nodes' estimate
    rows, each a :class:`~repro.gsp.filters.RowBlock`, and each residual
    row's peak, indexed by node.

    The residual starts from the signal's rows and appends a row for each
    node a scatter first reaches; the estimate appends a row for each node
    when it is first pushed.  A ``full`` push starts both from every node
    at slot = node.
    """

    def __init__(self, residual: RowBlock, *, full: bool) -> None:
        n, dim = residual.shape
        self.full = full
        self.residual = residual
        if full:
            self.estimate = RowBlock(
                residual.nodes, np.zeros_like(residual.rows), n
            )
        else:
            self.estimate = RowBlock(
                residual.nodes[:0], np.zeros((0, dim), dtype=residual.dtype), n
            )
        self.peak = np.zeros(n, dtype=residual.dtype)
        self.peak[residual.nodes] = _row_peaks(residual.rows)
        # Scratch for finding a scatter's touched rows in O(entries).
        self._marked = np.zeros(n, dtype=bool)
        self._position = np.zeros(n, dtype=np.int64)

    def active(self, thresholds: np.ndarray) -> np.ndarray:
        """Slots of the residual rows above their node's threshold, in slot order."""
        if self.full:  # slot = node: no gather
            return np.flatnonzero(self.peak > thresholds)
        held = self.residual.nodes
        return np.flatnonzero(self.peak[held] > thresholds[held])

    def scatter(self, sub: sp.csc_matrix, pushed: np.ndarray) -> None:
        """Add ``sub @ pushed`` (nodes × pushed rows) onto the rows it touches.

        The product runs over the touched rows only, at most
        ``_SCATTER_CHUNK_ROWS`` of them at a time.
        """
        self._marked[sub.indices] = True
        touched = np.flatnonzero(self._marked)
        self._marked[touched] = False
        self._position[touched] = np.arange(touched.shape[0])
        compact = sp.csc_matrix(
            (sub.data, self._position[sub.indices], sub.indptr),
            shape=(touched.shape[0], sub.shape[1]),
        )
        slots = self.residual.slots(touched)
        if touched.shape[0] <= _SCATTER_CHUNK_ROWS:
            # One chunk: the CSC product needs no conversion to CSR.
            parts = [(0, compact @ pushed)]
        else:
            compact = compact.tocsr()
            parts = (
                (lo, compact[lo:lo + _SCATTER_CHUNK_ROWS] @ pushed)
                for lo in range(0, touched.shape[0], _SCATTER_CHUNK_ROWS)
            )
        residual = self.residual.rows
        for lo, part in parts:
            hi = lo + part.shape[0]
            rows = residual[slots[lo:hi]] + part
            residual[slots[lo:hi]] = rows
            self.peak[touched[lo:hi]] = _row_peaks(rows)


def forward_push(
    operator: sp.spmatrix,
    signal: np.ndarray | RowBlock,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    epsilon: float = 0.0,
    max_sweeps: int = 10_000,
    dtype: np.dtype | type = np.float64,
) -> PushResult:
    """Diffuse ``signal`` with the PPR filter by residual forward push.

    Parameters
    ----------
    operator:
        Normalized adjacency (any kind from
        :func:`repro.gsp.normalization.transition_matrix`); spectral radius
        must be ≤ 1 for the ``(1−alpha)``-contraction to hold.
    signal:
        Initial residual ``r0``: a dense ``(n,)`` or ``(n, dim)`` array or a
        :class:`~repro.gsp.filters.RowBlock`.  Pass the personalization
        matrix for a cold start, or a (mostly zero) delta to compute the
        correction to an existing diffusion.  The estimate comes back in the
        same format.
    tol:
        Push threshold on the max-abs residual entry of a row.  The returned
        estimate deviates from the exact filter output by at most
        ``‖H‖∞ · tol`` element-wise.
    epsilon:
        Degree-normalized truncation, as in
        :class:`repro.gsp.filters.SparsePersonalizedPageRank`: a row is
        pushed only while its peak exceeds ``max(tol, ε · d(u))`` (a node
        below that would spread less than ``ε`` to each neighbor); the
        sub-threshold residual is abandoned, trading bounded accuracy for
        locality.
    max_sweeps:
        Cap on batched sweeps (each sweep relaxes all active rows at once).
    dtype:
        Precision of residual, estimate and operator values.  ``float32``
        floors ``tol`` at the dtype's resolution (float64 passes through).
    """
    check_probability(alpha, "alpha")
    if alpha == 0.0:
        raise ValueError("alpha must be positive (alpha=0 never teleports)")
    check_positive(tol, "tol")
    check_non_negative(epsilon, "epsilon")
    check_positive_int(max_sweeps, "max_sweeps")
    dtype = np.dtype(dtype)
    tol = effective_tolerance(tol, dtype)

    n = operator.shape[0]
    # Column view: pushing node u scatters along column u of the operator.
    columns = operator.tocsc()
    col_degrees = operator_out_degrees(columns)
    if columns.data.dtype != dtype:
        columns = columns.astype(dtype)
    thresholds = np.maximum(tol, epsilon * col_degrees.astype(np.float64))

    rows_input = isinstance(signal, RowBlock)
    if rows_input:
        signal, was_vector = coerce_sparse_signal(signal, n, dtype)
        state = _Push(RowBlock(signal.nodes, signal.rows.copy(), n), full=False)
    else:
        residual, was_vector = coerce_signal(signal, n, dtype)
        state = _Push(RowBlock(np.arange(n), residual.copy(), n), full=True)

    damping = 1.0 - alpha
    sweeps = 0
    pushes = 0
    edge_operations = 0
    for sweeps in range(1, max_sweeps + 1):
        active = state.active(thresholds)
        if active.size == 0:
            sweeps -= 1
            break
        active_nodes = state.residual.nodes[active]
        nnz_active = int(col_degrees[active_nodes].sum())
        pushes += int(active.size)
        edge_operations += nnz_active
        residual = state.residual.rows
        if state.full and active.size == n:
            # Everyone is active (typical cold-start sweeps): push the whole
            # residual through the operator without slicing a copy of it.
            estimate = state.estimate.rows
            estimate += alpha * residual
            residual *= damping
            residual[...] = columns @ residual
            state.peak = _row_peaks(residual)
            continue
        pushed = residual[active]
        state.estimate.add(active_nodes, alpha * pushed)
        residual[active] = 0.0
        state.peak[active_nodes] = 0.0
        sub = columns[:, active_nodes]
        if state.full and nnz_active >= n // _WIDE_SWEEP_DIVISOR:
            residual += np.asarray(sub @ (damping * pushed))
            state.peak = _row_peaks(residual)
        else:
            state.scatter(sub, damping * pushed)

    held = state.residual.nodes
    peaks = state.peak[held]
    if rows_input:
        estimate = state.estimate
    else:
        estimate = state.estimate.rows
        estimate = estimate[:, 0] if was_vector else estimate
    return PushResult(
        estimate=estimate,
        residual=float(peaks.max()) if held.size else 0.0,
        sweeps=sweeps,
        pushes=pushes,
        edge_operations=edge_operations,
        converged=bool(np.all(peaks <= thresholds[held])),
        residual_l1=float(np.abs(state.residual.rows).sum()),
    )


def push_refresh(
    operator: sp.spmatrix,
    embeddings: np.ndarray | RowBlock,
    delta: np.ndarray | RowBlock,
    *,
    alpha: float = 0.5,
    tol: float = 1e-8,
    epsilon: float = 0.0,
    max_sweeps: int = 10_000,
    dtype: np.dtype | type = np.float64,
) -> tuple[np.ndarray | RowBlock, PushResult]:
    """Patch an existing diffusion after a sparse personalization change.

    Given ``embeddings ≈ H E0`` and ``delta = E0' − E0`` (zero outside the
    changed rows), returns ``(embeddings + H delta, push_result)`` — the
    diffusion of the *new* personalization — at a cost proportional to the
    magnitude of the change rather than the size of the network.  The
    patched cache keeps the format of ``embeddings`` whatever format
    ``delta`` arrives in; the other parameters go to :func:`forward_push`.

    A block cache is patched in place once the push has converged: the
    pushed nodes' estimate rows are added into its rows, and joining nodes
    take spare capacity; only a doubling of that capacity copies the other
    rows.  An unconverged push returns the cache untouched.  A cache in another
    dtype is converted to a new block first; a dense cache comes back as a
    new array (a vector stays a vector), converged or not.
    """
    n = operator.shape[0]
    if isinstance(embeddings, RowBlock):
        base, base_was_vector = embeddings, False
        if base.dtype != dtype:
            base = RowBlock(base.nodes, base.rows.astype(dtype), n)
    else:
        base, base_was_vector = coerce_signal(embeddings, n, dtype)
    delta_shape = (
        delta.shape if isinstance(delta, RowBlock) else coerce_signal(delta, n)[0].shape
    )
    if base.shape != delta_shape:
        raise ValueError(
            f"embeddings shape {base.shape} does not match "
            f"delta shape {delta_shape}"
        )
    result = forward_push(
        operator,
        delta,
        alpha=alpha,
        tol=tol,
        epsilon=epsilon,
        max_sweeps=max_sweeps,
        dtype=dtype,
    )
    estimate = result.estimate
    if isinstance(base, RowBlock):
        if result.converged:
            if not isinstance(estimate, RowBlock):
                estimate, _ = coerce_sparse_signal(estimate, n, dtype)
            # A row whose pushes cancelled to zero would join the cache for
            # nothing.
            keep = np.any(estimate.rows != 0, axis=1)
            base.add(estimate.nodes[keep], estimate.rows[keep])
        return base, result
    if isinstance(estimate, RowBlock):
        estimate = estimate.toarray()
    patched = base + estimate.reshape(base.shape)
    return (patched[:, 0] if base_was_vector else patched), result
