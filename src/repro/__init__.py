"""repro — decentralized content search via Personalized-PageRank diffusion.

Reproduction of Giatsoglou, Krasanakis, Papadopoulos & Kompatsiaris,
"A Graph Diffusion Scheme for Decentralized Content Search based on
Personalized PageRank" (ICDCS 2022 workshops, arXiv:2204.12902).

Quickstart::

    import numpy as np
    from repro import DiffusionSearchNetwork, facebook_like_graph
    from repro.embeddings import synthetic_word_embeddings

    graph = facebook_like_graph(seed=0)
    model = synthetic_word_embeddings(seed=0)
    net = DiffusionSearchNetwork(graph, dim=model.dim, alpha=0.5)
    net.place_document("doc", model.vector("word00001"), node=7)
    net.diffuse()
    hit = net.search(model.vector("word00001"), start_node=2000, ttl=50)

See README.md: its "Module map" section inventories the system, and its
"Tests and benchmarks" section lists the drivers that reproduce the
paper's tables and figures (results recorded under ``benchmarks/results/``).
"""

from repro.core.search import DiffusionSearchNetwork
from repro.core.engine import (
    ResilienceConfig,
    SearchResult,
    WalkConfig,
    run_query,
)
from repro.core.batch import run_queries
from repro.core.backends import (
    DiffusionBackend,
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
from repro.core.personalization import personalization_matrix, personalization_vector
from repro.embeddings.model import WordEmbeddingModel
from repro.embeddings.synthetic import SyntheticCorpusConfig, synthetic_word_embeddings
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.gsp.filters import (
    HeatKernel,
    PersonalizedPageRank,
    SparsePersonalizedPageRank,
)
from repro.retrieval.topk import ScoredDocument, TopKTracker
from repro.retrieval.vector_store import DocumentStore
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.gossip import AsyncPPRDiffusion
from repro.serving import (
    AdmissionConfig,
    BreakerConfig,
    Outcome,
    PeerCircuitBreaker,
    QueryRequest,
    QueryResponse,
    QueryService,
    ServingConfig,
)
from repro.simulation.scenario import AccuracyScenario, HopCountScenario
from repro.simulation.workload import (
    RetrievalWorkload,
    build_workload,
    poisson_arrival_times,
)
from repro.simulation.runner import (
    run_accuracy_experiment,
    run_hop_count_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "DiffusionSearchNetwork",
    "SearchResult",
    "WalkConfig",
    "ResilienceConfig",
    "run_query",
    "FaultPlan",
    "FaultInjector",
    "run_queries",
    "DiffusionOutcome",
    "diffuse_embeddings",
    "refresh_embeddings",
    "DiffusionBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "ForwardingPolicy",
    "EmbeddingGuidedPolicy",
    "PrecomputedScorePolicy",
    "RandomWalkPolicy",
    "DegreeBiasedPolicy",
    "personalization_vector",
    "personalization_matrix",
    "WordEmbeddingModel",
    "SyntheticCorpusConfig",
    "synthetic_word_embeddings",
    "CompressedAdjacency",
    "FacebookLikeConfig",
    "facebook_like_graph",
    "PersonalizedPageRank",
    "SparsePersonalizedPageRank",
    "HeatKernel",
    "ScoredDocument",
    "TopKTracker",
    "DocumentStore",
    "AsyncPPRDiffusion",
    "AccuracyScenario",
    "HopCountScenario",
    "RetrievalWorkload",
    "build_workload",
    "poisson_arrival_times",
    "QueryService",
    "ServingConfig",
    "QueryRequest",
    "QueryResponse",
    "Outcome",
    "AdmissionConfig",
    "BreakerConfig",
    "PeerCircuitBreaker",
    "run_accuracy_experiment",
    "run_hop_count_experiment",
    "__version__",
]
