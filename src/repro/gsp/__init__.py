"""Graph signal processing substrate (paper §II-C, §IV-B).

Node values (scalars or embedding vectors) are graph signals; graph filters
aggregate multi-hop propagations of those signals.  The paper's diffusion is
the Personalized PageRank filter ``H = a (I − (1−a) A)^{-1}`` applied to the
matrix of personalization vectors.
"""

from repro.gsp.normalization import (
    adjacency_matrix,
    transition_matrix,
    NormalizationKind,
)
from repro.gsp.push import (
    PushResult,
    forward_push,
    push_refresh,
    sparse_forward_push,
    sparse_push_refresh,
)
from repro.gsp.filters import (
    SPARSE_DEFAULT_EPSILON,
    DiffusionResult,
    GraphFilter,
    HeatKernel,
    PersonalizedPageRank,
    PolynomialFilter,
    SparsePersonalizedPageRank,
)
from repro.gsp.spectral import (
    SpectralDecomposition,
    empirical_frequency_response,
    heat_frequency_response,
    is_low_pass,
    ppr_frequency_response,
    smoothness,
)

__all__ = [
    "adjacency_matrix",
    "transition_matrix",
    "NormalizationKind",
    "PushResult",
    "forward_push",
    "push_refresh",
    "sparse_forward_push",
    "sparse_push_refresh",
    "SPARSE_DEFAULT_EPSILON",
    "DiffusionResult",
    "GraphFilter",
    "HeatKernel",
    "PersonalizedPageRank",
    "PolynomialFilter",
    "SparsePersonalizedPageRank",
    "SpectralDecomposition",
    "empirical_frequency_response",
    "heat_frequency_response",
    "is_low_pass",
    "ppr_frequency_response",
    "smoothness",
]
