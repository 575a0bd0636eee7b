"""The paper's primary contribution: diffusion-based decentralized search.

Pipeline (paper §IV): nodes summarize their local documents into
personalization vectors (:mod:`repro.core.personalization`), diffuse them over
the P2P graph with a PPR graph filter (:mod:`repro.core.diffusion`), and use
the diffused neighbor embeddings to forward queries as biased random walks
(:mod:`repro.core.forwarding`; the walk engine is :mod:`repro.core.batch`,
and :mod:`repro.core.engine` holds its types and one-walk call).

:class:`repro.core.search.DiffusionSearchNetwork` is the high-level entry
point tying the stages together.
"""

from repro.core.personalization import (
    PersonalizationWeighting,
    personalization_vector,
    personalization_matrix,
)
from repro.core.backends import (
    DiffusionBackend,
    SparseDiffusionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.diffusion import (
    DiffusionOutcome,
    diffuse_embeddings,
    refresh_embeddings,
)
from repro.core.forwarding import (
    DegreeBiasedPolicy,
    EmbeddingGuidedPolicy,
    ForwardingPolicy,
    PrecomputedScorePolicy,
    RandomWalkPolicy,
)
from repro.core.engine import (
    ResilienceConfig,
    SearchResult,
    WalkConfig,
    run_query,
)
from repro.core.batch import run_queries
from repro.core.aggregation import (
    ChannelHasher,
    MaxChannelPolicy,
    channel_personalization,
    channel_relevance_signals,
)
from repro.core.search import DiffusionSearchNetwork

__all__ = [
    "PersonalizationWeighting",
    "personalization_vector",
    "personalization_matrix",
    "DiffusionOutcome",
    "diffuse_embeddings",
    "refresh_embeddings",
    "DiffusionBackend",
    "SparseDiffusionBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "ForwardingPolicy",
    "EmbeddingGuidedPolicy",
    "PrecomputedScorePolicy",
    "RandomWalkPolicy",
    "DegreeBiasedPolicy",
    "WalkConfig",
    "ResilienceConfig",
    "SearchResult",
    "run_query",
    "run_queries",
    "ChannelHasher",
    "MaxChannelPolicy",
    "channel_personalization",
    "channel_relevance_signals",
    "DiffusionSearchNetwork",
]
