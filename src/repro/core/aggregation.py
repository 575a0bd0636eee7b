"""Multi-channel personalization: the paper's future-work aggregation.

The paper attributes its accuracy collapse at high document counts to "the
loss of information for individual documents when many embeddings are
summed" and names "more sophisticated aggregation methods that encode more
information about the grouped documents" as its research direction (§VI).

This module implements one such method that stays fully decentralized:
**sketch-partitioned personalization**.  All nodes share a public random
projection (a seed suffices — no coordination).  Each node hashes every
local document to one of ``C = 2^n_bits`` channels by the sign pattern of
the projection, and maintains one personalization vector *per channel*
(the sum of that channel's document embeddings).  The diffusion runs
independently per channel — it is still the linear PPR filter, so the
decentralized protocol of §IV-B applies unchanged, at C× the bandwidth.

At query time a node scores a neighbor by the **maximum channel score**
rather than the total.  Since random-hyperplane buckets group directionally
similar documents, each channel sums fewer, more-aligned embeddings: the
gold document's channel is polluted by less cross-topic noise, which is
exactly the failure mode the flat sum suffers at M = 10,000.
"""

from __future__ import annotations

import numpy as np

from repro.core.forwarding import PrecomputedScorePolicy
from repro.utils import check_non_negative, check_positive, ensure_rng
from repro.utils.rng import RngLike


class ChannelHasher:
    """Public random-hyperplane hash mapping embeddings to channels.

    Every node constructs the identical hasher from the shared ``seed``, so
    the partition is globally consistent without any coordination protocol.
    ``n_bits = 0`` degenerates to a single channel — the paper's flat sum.
    """

    def __init__(self, dim: int, n_bits: int, *, seed: RngLike = 0) -> None:
        check_positive(dim, "dim")
        check_non_negative(n_bits, "n_bits")
        if n_bits > 16:
            raise ValueError(f"n_bits must be <= 16 (got {n_bits})")
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        rng = ensure_rng(seed)
        self._planes = rng.standard_normal((self.n_bits, self.dim))
        self._powers = (2 ** np.arange(self.n_bits)).astype(np.int64)

    @property
    def n_channels(self) -> int:
        return 1 << self.n_bits

    def channel_of(self, vectors: np.ndarray) -> np.ndarray:
        """Channel index of each row vector (vector input → scalar array)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        single = vectors.ndim == 1
        if single:
            vectors = vectors[None, :]
        if self.n_bits == 0:
            out = np.zeros(vectors.shape[0], dtype=np.int64)
        else:
            bits = (vectors @ self._planes.T) > 0
            out = bits.astype(np.int64) @ self._powers
        return out[0] if single else out


def channel_personalization(
    doc_embeddings: np.ndarray,
    doc_nodes: np.ndarray,
    n_nodes: int,
    hasher: ChannelHasher,
) -> np.ndarray:
    """Per-channel personalization tensor of shape ``(C, n_nodes, dim)``.

    Channel ``c`` of node ``u`` is the sum of u's documents hashing to ``c``
    — the §IV-A sum restricted to one bucket.  Summing over channels
    recovers the paper's flat personalization exactly.
    """
    doc_embeddings = np.asarray(doc_embeddings, dtype=np.float64)
    doc_nodes = np.asarray(doc_nodes, dtype=np.int64)
    if doc_embeddings.shape[0] != doc_nodes.shape[0]:
        raise ValueError("doc_embeddings and doc_nodes must be aligned")
    channels = hasher.channel_of(doc_embeddings)
    tensor = np.zeros(
        (hasher.n_channels, n_nodes, doc_embeddings.shape[1]), dtype=np.float64
    )
    for channel in range(hasher.n_channels):
        mask = channels == channel
        if mask.any():
            np.add.at(tensor[channel], doc_nodes[mask], doc_embeddings[mask])
    return tensor


def channel_relevance_signals(
    doc_embeddings: np.ndarray,
    doc_nodes: np.ndarray,
    n_nodes: int,
    query_embedding: np.ndarray,
    hasher: ChannelHasher,
) -> np.ndarray:
    """Scalar per-channel signals ``x0[c, u] = e0_u^{(c)} · e_q``.

    The linearity fast path of the experiment harness, one channel at a
    time: diffusing these C scalar signals gives exactly the per-channel
    scores that diffusing the full ``(C, n, dim)`` tensor would.
    """
    doc_embeddings = np.asarray(doc_embeddings, dtype=np.float64)
    doc_nodes = np.asarray(doc_nodes, dtype=np.int64)
    channels = hasher.channel_of(doc_embeddings)
    doc_scores = doc_embeddings @ np.asarray(query_embedding, dtype=np.float64)
    signals = np.zeros((hasher.n_channels, n_nodes), dtype=np.float64)
    for channel in range(hasher.n_channels):
        mask = channels == channel
        if mask.any():
            signals[channel] = np.bincount(
                doc_nodes[mask], weights=doc_scores[mask], minlength=n_nodes
            )
    return signals


class MaxChannelPolicy(PrecomputedScorePolicy):
    """Forward toward the highest *maximum-channel* diffused relevance.

    ``channel_scores`` has shape ``(C, n_nodes)``: the C independently
    diffused scalar relevance signals.  A candidate's score is its best
    channel — the aggregation that keeps the gold document's signal from
    being averaged away by unrelated local content — so the policy is the
    score table of per-node channel maxima.
    """

    def __init__(self, channel_scores: np.ndarray) -> None:
        channel_scores = np.asarray(channel_scores, dtype=np.float64)
        if channel_scores.ndim != 2:
            raise ValueError(
                f"channel_scores must be 2-D (C, n_nodes), got {channel_scores.shape}"
            )
        self.channel_scores = channel_scores
        super().__init__(channel_scores.max(axis=0))

    def describe(self) -> str:
        return f"max-channel(C={self.channel_scores.shape[0]})"
