"""Shared experiment setup: graph, embedding model, workload.

The environment is cached per (full, placement needs) so the benchmark suite
builds the graph and workload once and reuses them across benches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from repro.embeddings.model import WordEmbeddingModel
from repro.embeddings.synthetic import SyntheticCorpusConfig, synthetic_word_embeddings
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.simulation.workload import RetrievalWorkload, build_workload

ENV_FULL = "REPRO_FULL"

#: Paper parameters (§V): Facebook graph, 300-d vectors, 1000 queries, cos>0.6
FULL_GRAPH = FacebookLikeConfig(n_nodes=4039, target_edges=88234, n_egos=10)
FULL_EMBEDDINGS = SyntheticCorpusConfig(
    n_words=30_000, dim=300, n_clusters=2_000, intra_cluster_cosine=0.72
)
FULL_QUERIES = 1000

#: Scaled configuration: same shape, minutes instead of hours.
SCALED_GRAPH = FacebookLikeConfig(n_nodes=1200, target_edges=26000, n_egos=10)
SCALED_EMBEDDINGS = SyntheticCorpusConfig(
    n_words=18_000, dim=300, n_clusters=1_200, intra_cluster_cosine=0.72
)
SCALED_QUERIES = 300

GOLD_THRESHOLD = 0.6  # paper §V-B
SETUP_SEED = 20220427  # arXiv submission date of the paper


def full_requested() -> bool:
    """True when the paper-scale configuration was requested via env var."""
    return os.environ.get(ENV_FULL, "").strip() in ("1", "true", "yes")


@dataclass(frozen=True)
class ExperimentEnvironment:
    """Everything an experiment driver needs, built once."""

    label: str
    graph: nx.Graph
    adjacency: CompressedAdjacency
    model: WordEmbeddingModel
    workload: RetrievalWorkload

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n_nodes


@lru_cache(maxsize=4)
def get_environment(full: bool = False) -> ExperimentEnvironment:
    """Build (or fetch the cached) experiment environment.

    ``full=True`` reproduces the paper-scale setup; the default is the scaled
    configuration (:data:`SCALED_GRAPH`, :data:`SCALED_EMBEDDINGS`,
    :data:`SCALED_QUERIES`).
    """
    if full:
        graph_config, emb_config, n_queries = FULL_GRAPH, FULL_EMBEDDINGS, FULL_QUERIES
        label = "full (paper-scale)"
    else:
        graph_config, emb_config, n_queries = (
            SCALED_GRAPH,
            SCALED_EMBEDDINGS,
            SCALED_QUERIES,
        )
        label = "scaled"
    graph = facebook_like_graph(graph_config, seed=SETUP_SEED)
    adjacency = CompressedAdjacency.from_networkx(graph)
    model = synthetic_word_embeddings(emb_config, seed=SETUP_SEED + 1)
    workload = build_workload(
        model,
        n_queries=n_queries,
        threshold=GOLD_THRESHOLD,
        seed=SETUP_SEED + 2,
    )
    return ExperimentEnvironment(
        label=label,
        graph=graph,
        adjacency=adjacency,
        model=model,
        workload=workload,
    )


def resolve_full(flag: bool | None) -> bool:
    """Combine an explicit CLI flag with the environment variable."""
    if flag is None:
        return full_requested()
    return flag or full_requested()
