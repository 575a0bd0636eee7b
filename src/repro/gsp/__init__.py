"""Graph signal processing substrate (paper §II-C, §IV-B).

Node values (scalars or embedding vectors) are graph signals; graph filters
aggregate multi-hop propagations of those signals.  The paper's diffusion is
the Personalized PageRank filter ``H = a (I − (1−a) A)^{-1}`` applied to the
matrix of personalization vectors.  The sparse pipeline keeps its
personalization, deltas and embedding cache as :class:`RowBlock` signals:
the rows of some nodes, zero elsewhere.
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
)
from repro.gsp.filters import (
    SPARSE_DEFAULT_EPSILON,
    DiffusionResult,
    GraphFilter,
    HeatKernel,
    PersonalizedPageRank,
    RowBlock,
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
    "SPARSE_DEFAULT_EPSILON",
    "DiffusionResult",
    "GraphFilter",
    "HeatKernel",
    "PersonalizedPageRank",
    "RowBlock",
    "SparsePersonalizedPageRank",
    "SpectralDecomposition",
    "empirical_frequency_response",
    "heat_frequency_response",
    "is_low_pass",
    "ppr_frequency_response",
    "smoothness",
]
