"""Synthetic GloVe substitute for the paper's pretrained word vectors.

The paper's retrieval workload only relies on three geometric properties of
the GloVe space:

1. a query word has a handful of *gold* neighbors with cosine similarity above
   a threshold (0.6 in the paper),
2. unrelated words are nearly orthogonal in high dimension, so summing many of
   them produces noise rather than spurious matches, and
3. relevance is linear in the embeddings (dot product), which personalization
   vectors exploit (eq. 3).

A mixture of spherical clusters on the unit sphere reproduces exactly these
properties with controllable parameters: words in the same semantic cluster
have expected pairwise cosine ``intra_cluster_cosine``, while words from
different clusters concentrate around cosine 0 as the dimension grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embeddings.model import WordEmbeddingModel
from repro.embeddings.similarity import l2_normalize
from repro.utils import check_positive, check_probability, ensure_rng
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Parameters of the synthetic word-embedding space.

    Attributes
    ----------
    n_words:
        Vocabulary size.  The paper's experiments need at least
        ``M + n_queries`` distinct words (documents are words, §V-B).
    dim:
        Embedding dimensionality; 300 matches the GloVe vectors the paper uses.
    n_clusters:
        Number of semantic clusters.  Cluster sizes follow a Zipf law so a few
        "topics" are large and most are small, mimicking natural vocabulary.
    intra_cluster_cosine:
        Expected cosine similarity between two words of the same cluster.  The
        paper's gold threshold is 0.6, so the default 0.72 leaves most
        same-cluster pairs above the threshold without making them identical.
    singleton_fraction:
        Fraction of words drawn uniformly on the sphere, belonging to no
        cluster — these can only appear as irrelevant documents.
    zipf_exponent:
        Exponent of the Zipf law for word occurrence frequencies (stored in
        the model metadata and used by the corpus generator).
    cluster_zipf_exponent:
        Exponent of the (milder) Zipf law for cluster sizes.  Kept small so
        gold sets stay a realistic handful of neighbors: real GloVe words
        rarely have more than a few neighbors above cosine 0.6.
    """

    n_words: int = 10_000
    dim: int = 300
    n_clusters: int = 500
    intra_cluster_cosine: float = 0.72
    singleton_fraction: float = 0.2
    zipf_exponent: float = 1.1
    cluster_zipf_exponent: float = 0.3
    word_prefix: str = "word"

    def __post_init__(self) -> None:
        check_positive(self.n_words, "n_words")
        check_positive(self.dim, "dim")
        check_positive(self.n_clusters, "n_clusters")
        check_probability(self.intra_cluster_cosine, "intra_cluster_cosine", inclusive=False)
        check_probability(self.singleton_fraction, "singleton_fraction")
        check_positive(self.zipf_exponent, "zipf_exponent")
        check_positive(self.cluster_zipf_exponent, "cluster_zipf_exponent")


def noise_scale_for_cosine(target_cosine: float, dim: int) -> float:
    """Gaussian noise scale sigma so that two perturbed copies of a unit
    vector have expected cosine ``target_cosine``.

    For ``v_i = normalize(c + sigma * g_i)`` with ``g_i ~ N(0, I_dim)`` and
    unit ``c``, the expected dot product is approximately
    ``1 / (1 + sigma^2 * dim)``; solving for sigma gives the formula below.
    """
    check_probability(target_cosine, "target_cosine", inclusive=False)
    check_positive(dim, "dim")
    return float(np.sqrt((1.0 / target_cosine - 1.0) / dim))


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Normalized Zipf probabilities ``p_k ∝ 1 / k^exponent`` for k = 1..count."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def synthetic_word_embeddings(
    config: SyntheticCorpusConfig | None = None,
    *,
    seed: RngLike = None,
) -> WordEmbeddingModel:
    """Generate a :class:`WordEmbeddingModel` per ``config``.

    The returned model's ``metadata`` records the generator parameters plus:

    * ``cluster_of`` — per-word cluster id (−1 for singletons),
    * ``frequencies`` — Zipf occurrence probabilities aligned with the vocab,
    * ``cluster_centers`` — the ``(n_clusters, dim)`` center matrix.
    """
    config = config or SyntheticCorpusConfig()
    rng = ensure_rng(seed)

    centers = l2_normalize(rng.standard_normal((config.n_clusters, config.dim)))
    sigma = noise_scale_for_cosine(config.intra_cluster_cosine, config.dim)

    n_singletons = int(round(config.n_words * config.singleton_fraction))
    n_clustered = config.n_words - n_singletons

    cluster_probs = zipf_weights(config.n_clusters, config.cluster_zipf_exponent)
    cluster_of = np.full(config.n_words, -1, dtype=np.int64)
    cluster_of[:n_clustered] = rng.choice(
        config.n_clusters, size=n_clustered, p=cluster_probs
    )
    # Shuffle so cluster membership is not correlated with vocabulary rank
    # (rank determines the Zipf frequency below).
    rng.shuffle(cluster_of)

    vectors = np.empty((config.n_words, config.dim), dtype=np.float64)
    singleton_mask = cluster_of < 0
    n_actual_singletons = int(singleton_mask.sum())
    if n_actual_singletons:
        vectors[singleton_mask] = rng.standard_normal(
            (n_actual_singletons, config.dim)
        )
    clustered_idx = np.flatnonzero(~singleton_mask)
    if clustered_idx.size:
        noise = sigma * rng.standard_normal((clustered_idx.size, config.dim))
        vectors[clustered_idx] = centers[cluster_of[clustered_idx]] + noise
    vectors = l2_normalize(vectors)

    width = max(5, len(str(config.n_words - 1)))
    words = [f"{config.word_prefix}{i:0{width}d}" for i in range(config.n_words)]
    frequencies = zipf_weights(config.n_words, config.zipf_exponent)

    metadata = {
        "generator": "synthetic_word_embeddings",
        "config": config,
        "cluster_of": cluster_of,
        "frequencies": frequencies,
        "cluster_centers": centers,
        "noise_sigma": sigma,
    }
    return WordEmbeddingModel(words, vectors, metadata)
