"""Convergence diagnostics for the asynchronous diffusion.

The diffusion's fixed point satisfies ``E = (1−a) A E + a E0`` (paper eq. 7 at
convergence); the residual of that equation is therefore a decentralized
protocol's natural convergence certificate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def fixed_point_residual(
    operator: sp.spmatrix,
    embeddings: np.ndarray,
    personalization: np.ndarray,
    alpha: float,
) -> float:
    """Max-norm residual of the PPR fixed-point equation."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    personalization = np.asarray(personalization, dtype=np.float64)
    expected = (1.0 - alpha) * (operator @ embeddings) + alpha * personalization
    if embeddings.size == 0:
        return 0.0
    return float(np.max(np.abs(embeddings - expected)))

