"""The numpy hot-loop kernels of the walk path, and two uncalled ones.

``masked_segment_argmax`` and ``sparse_key_lookup`` are inner loops of
``repro.core.batch`` and ``repro.core.forwarding``.  Callers import this
*module* and call through its attributes
(``from repro.kernels import dispatch as kernels``), so a profiler can wrap
a kernel by rebinding one module attribute (``perfbench/layers.py`` does,
for its ``kernels.*`` metrics).

``csr_row_peaks`` and ``scatter_add_weighted_rows`` were the push kernels'
inner loops; the one row-block push in ``repro.gsp.push`` calls neither.
They stay defined only because ``perfbench/layers.py`` patches all four
names and its tracer reads each one with ``vars(dispatch)[name]``, so
deleting one fails the traced benchmark; they go when the benchmark stops
patching them.

Do not "optimize" these in ways that change a single output bit: the walk
engine's equivalence contract with the scalar reference walk in
``tests/scalar_reference.py``, and the sparse scoring paths' equivalence
with their densified counterparts, are proven through these exact
operations.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "csr_row_peaks",
    "kernel_info",
    "masked_segment_argmax",
    "scatter_add_weighted_rows",
    "sparse_key_lookup",
]


def kernel_info() -> dict[str, Any]:
    """Which kernel implementation is live (for reports and benchmarks)."""
    return {"backend": "numpy"}


def masked_segment_argmax(
    scores: np.ndarray,
    unseen: np.ndarray,
    seg_starts: np.ndarray,
    segments: np.ndarray,
    iota: np.ndarray,
) -> np.ndarray:
    """Per-segment argmax of ``scores`` restricted to unseen candidates.

    The fused per-hop selection of the batch walk engine: ``scores`` holds
    one concatenated candidate segment per walk (``seg_starts`` are the
    segment starts, ``segments`` the flat→segment map, ``iota`` an int64
    arange scratch at least as long as ``scores``).  A segment with at least
    one unseen candidate selects only among its unseen ones; a segment whose
    candidates were all visited falls back to the full pool (the paper's
    footnote-9 reset).  Ties break toward the first position — exactly
    ``top_k_indices(scores, 1)`` per segment.  Returns one flat index into
    ``scores`` per segment.  Segments must be non-empty and scores finite
    (``-inf`` is the masking sentinel).
    """
    if unseen.all():
        pool = scores
    else:
        # add.reduceat counts per segment; > 0 is a segment "any".
        has_unseen = np.add.reduceat(unseen, seg_starts) > 0
        allowed = unseen | ~has_unseen[segments]
        pool = np.where(allowed, scores, -np.inf)
    best = np.maximum.reduceat(pool, seg_starts)
    at_best = pool == best[segments]
    size = pool.shape[0]
    positions = np.where(at_best, iota[:size], size)
    return np.minimum.reduceat(positions, seg_starts)


def sparse_key_lookup(
    keys: np.ndarray, values: np.ndarray, wanted: np.ndarray
) -> np.ndarray:
    """Gather ``values`` of sorted ``keys`` at ``wanted``; absent keys → 0.0.

    The CSR-lookup kernel of the sparse scoring paths
    (:meth:`repro.core.forwarding.PrecomputedScorePolicy.candidate_scores`
    and the batch engine's stacked sparse score table): one
    ``searchsorted`` over the whole query array, with misses scoring
    *exactly* ``0.0`` — the value a densified copy would hold.  The output
    dtype follows ``values`` (float32 score tables stay float32).
    """
    if keys.shape[0] == 0:
        return np.zeros(wanted.shape[0], dtype=values.dtype)
    positions = np.searchsorted(keys, wanted)
    clipped = np.minimum(positions, keys.shape[0] - 1)
    found = keys[clipped] == wanted
    return np.where(found, values[clipped], 0.0)


def csr_row_peaks(
    data: np.ndarray, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Max-abs entry per non-empty CSR row: ``(row_ids, peaks)``.

    ``data``/``indptr`` are a CSR matrix's arrays; rows with no stored
    entries are skipped entirely.  No production caller (see the module
    docstring).
    """
    lens = np.diff(indptr)
    rows = np.flatnonzero(lens)
    if rows.size == 0:
        return rows, np.empty(0, dtype=data.dtype)
    peaks = np.maximum.reduceat(np.abs(data), indptr[rows])
    return rows, peaks


def scatter_add_weighted_rows(
    residual: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    pushed: np.ndarray,
    damping: float,
) -> None:
    """In-place ``residual[rows] += damping * data[:, None] * pushed[cols]``.

    One COO entry ``(rows[k], cols[k], data[k])`` forwards
    ``damping · data[k] · pushed[cols[k]]`` onto residual row ``rows[k]``;
    ``np.add.at`` handles duplicate target rows (unbuffered accumulation).
    No production caller (see the module docstring).
    """
    np.add.at(residual, rows, (damping * data)[:, None] * pushed[cols])
