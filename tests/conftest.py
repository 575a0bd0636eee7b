"""Shared fixtures: small deterministic graphs, embedding models, workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.model import WordEmbeddingModel
from repro.embeddings.synthetic import SyntheticCorpusConfig, synthetic_word_embeddings
from repro.graphs.adjacency import CompressedAdjacency
from repro.graphs.generators import connected_watts_strogatz, grid_graph
from repro.graphs.social import FacebookLikeConfig, facebook_like_graph
from repro.simulation.workload import RetrievalWorkload, build_workload


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds rather than milliseconds"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_world_adjacency() -> CompressedAdjacency:
    """A 60-node small-world overlay (deterministic)."""
    return CompressedAdjacency.from_networkx(
        connected_watts_strogatz(60, 6, 0.15, seed=7)
    )


@pytest.fixture(scope="session")
def grid_adjacency() -> CompressedAdjacency:
    """A 7x7 grid: deterministic topology with long hop distances."""
    return CompressedAdjacency.from_networkx(grid_graph(7, 7))


@pytest.fixture(scope="session")
def social_adjacency() -> CompressedAdjacency:
    """A small Facebook-like graph with communities and hubs."""
    graph = facebook_like_graph(
        FacebookLikeConfig(n_nodes=300, target_edges=3600, n_egos=6), seed=3
    )
    return CompressedAdjacency.from_networkx(graph)


@pytest.fixture(scope="session")
def tiny_model() -> WordEmbeddingModel:
    """A small clustered embedding model (2,000 words, 64 dims)."""
    return synthetic_word_embeddings(
        SyntheticCorpusConfig(
            n_words=2000, dim=64, n_clusters=150, intra_cluster_cosine=0.75
        ),
        seed=21,
    )


@pytest.fixture(scope="session")
def tiny_workload(tiny_model: WordEmbeddingModel) -> RetrievalWorkload:
    """A retrieval workload over the tiny model (threshold 0.6, as in §V-B)."""
    return build_workload(tiny_model, n_queries=40, threshold=0.6, seed=22)
