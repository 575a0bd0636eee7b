"""Forwarding policies: the next-hop decision of paper §IV-C.

A policy ranks a query's candidate next hops.  The paper's policy matches the
query embedding against the stored *diffused* embeddings of the candidate
neighbors by dot product and picks the best; blind policies (uniform random,
degree-biased) implement the unstructured-search baselines of §II-A behind
the same interface, so the walk engine runs them all identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock
from repro.retrieval.scoring import top_k_indices
from repro.utils import check_positive


def _segment_top_k(
    keys: np.ndarray,
    offsets: np.ndarray,
    fanouts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment top-k over a flat key array (descending, ties by position).

    ``keys`` concatenates one score segment per walk; ``offsets`` are the
    ``(S+1,)`` segment boundaries.  Returns flat indices into ``keys`` of each
    segment's best ``fanouts[s]`` entries (best first within a segment,
    segments in order) plus the ``(S+1,)`` boundaries of the selection.  The
    ordering matches :func:`repro.retrieval.scoring.top_k_indices` applied
    per segment, which keeps batch walks bit-identical to scalar ones.
    """
    total = keys.shape[0]
    lens = np.diff(offsets)
    segments = np.repeat(np.arange(lens.shape[0]), lens)
    order = np.lexsort((np.arange(total), -keys, segments))
    counts = np.minimum(np.asarray(fanouts, dtype=np.int64), lens)
    rank = np.arange(total) - np.repeat(offsets[:-1], lens)
    chosen = order[rank < np.repeat(counts, lens)]
    chosen_offsets = np.concatenate(([0], np.cumsum(counts)))
    return chosen, chosen_offsets


class ForwardingPolicy(ABC):
    """Selects ``fanout`` next hops among candidate neighbor ids."""

    @abstractmethod
    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return up to ``fanout`` node ids drawn from ``candidates``."""

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Select next hops for ``S`` walks at once (batch engine hook).

        ``candidates`` concatenates one candidate segment per walk (node ids,
        ascending within a segment); segment ``s`` spans
        ``candidates[offsets[s]:offsets[s + 1]]`` and is scored against
        ``query_embeddings[s]`` with per-walk generator ``rngs[s]``.  Returns
        ``(chosen, chosen_offsets)`` where ``chosen`` holds flat indices into
        ``candidates`` (selection order within each segment) and
        ``chosen_offsets`` the per-segment boundaries of ``chosen``.

        The base implementation falls back to one :meth:`select` call per
        segment, so custom scalar policies work in the batch engine
        unchanged; built-in policies override it with array-level selection.
        """
        chosen_parts: list[np.ndarray] = []
        counts = np.zeros(len(rngs), dtype=np.int64)
        for s, rng in enumerate(rngs):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi == lo:
                continue
            segment = candidates[lo:hi]
            picked = np.asarray(
                self.select(query_embeddings[s], segment, int(fanouts[s]), rng),
                dtype=np.int64,
            )
            if picked.size == 0:
                continue
            positions = np.searchsorted(segment, picked)
            in_range = positions < segment.shape[0]
            if not (
                np.all(in_range)
                and np.array_equal(segment[positions[in_range]], picked[in_range])
            ):
                raise ValueError(
                    f"policy {self.describe()!r} selected nodes outside its "
                    "candidate set; select() must return a subset of candidates"
                )
            chosen_parts.append(lo + positions)
            counts[s] = positions.shape[0]
        chosen = (
            np.concatenate(chosen_parts)
            if chosen_parts
            else np.empty(0, dtype=np.int64)
        )
        return chosen, np.concatenate(([0], np.cumsum(counts)))

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray | None:
        """Per-candidate scores whose segment top-1 is this policy's choice.

        Same segment layout as :meth:`select_batch`.  A policy whose choice
        is a deterministic top-k of per-candidate scores (ties to the lower
        position) returns those scores, so the batch engine can rank a hop
        once and pick every retry and reroute of that hop from one scoring.
        ``None`` (the default, and every stochastic policy) means the
        choice is not a score ranking: the engine calls
        :meth:`select_batch` for each attempt instead.
        """
        return None

    def describe(self) -> str:
        """Short human-readable policy name for reports."""
        return type(self).__name__


class EmbeddingGuidedPolicy(ForwardingPolicy):
    """The paper's policy: forward toward the highest ``e_q · e_v``.

    Parameters
    ----------
    embeddings:
        The diffused node embedding matrix ``E`` (eq. 6) — dense, or the
        :class:`~repro.gsp.filters.RowBlock` the ``sparse`` diffusion
        backend caches, whose rows are scored directly (a node the block
        holds no row for scores exactly 0.0).  In deployment each node
        stores only its neighbors' rows (collected during diffusion); the
        policy reads exactly those rows, so the information access pattern
        is identical.

    The choice is the paper's deterministic argmax (ties broken by
    ascending node id).
    """

    def __init__(self, embeddings: np.ndarray | RowBlock) -> None:
        # Blocks are never written, so the policy keeps the caller's; a
        # float32 cache (the float32 diffusion pipeline) is stored in
        # float32 and scored in float64.
        self._block = isinstance(embeddings, RowBlock)
        matrix = embeddings
        if not self._block:
            matrix = np.asarray(embeddings)
            if matrix.dtype != np.float32:
                matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix.shape) != 2:
            raise ValueError(f"embeddings must be 2-D, got shape {matrix.shape}")
        self.embeddings = matrix

    def _score_segments(
        self, queries: np.ndarray, candidates: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """``queries[s] · E[c]`` for every candidate ``c`` of every segment ``s``.

        One flat gather of the candidates' rows serves all ``S`` segments
        (for a block, through its node → row map, with zero rows for the
        nodes it holds none of).  A block's scores sum each row's products
        left to right, ``np.cumsum(...)[:, -1]``: the order scipy's CSR
        matvec uses, so they are bit-identical to ``E[c] @ q`` on the
        block's CSR copy (``.sum(axis=1)`` and ``einsum`` sum in other
        orders and change the last bits).  A dense cache takes a row-wise
        ``einsum``.  Both compute in float64 whatever the storage dtype,
        and a candidate's score never depends on the other segments, so a
        one-segment call (one walk, or :meth:`select`) and an S-segment call
        agree bit for bit.
        """
        dim = self.embeddings.shape[1]
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise ValueError(
                f"dimension mismatch: queries have shape {queries.shape}, "
                f"embeddings have {dim} dims"
            )
        walk_of = np.repeat(np.arange(queries.shape[0]), np.diff(offsets))
        rows = np.asarray(self.embeddings[candidates], dtype=np.float64)
        if self._block:
            return np.cumsum(rows * queries[walk_of], axis=1)[:, -1]
        return np.einsum("ij,ij->i", rows, queries[walk_of])

    def scores(self, query_embedding: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Dot-product relevance of each candidate's diffused embedding."""
        query = np.asarray(query_embedding, dtype=np.float64)
        if query.ndim != 1:
            raise ValueError(
                f"dimension mismatch: query has shape {query.shape}, "
                f"embeddings have {self.embeddings.shape[1]} dims"
            )
        candidates = np.asarray(candidates, dtype=np.int64)
        return self._score_segments(
            query[None, :], candidates, np.array([0, candidates.shape[0]])
        )

    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        check_positive(fanout, "fanout")
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return candidates
        scores = self.scores(query_embedding, candidates)
        return candidates[top_k_indices(scores, fanout)]

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        return self._score_segments(
            np.asarray(query_embeddings, dtype=np.float64), candidates, offsets
        )

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        scores = self.score_batch(query_embeddings, candidates, offsets)
        return _segment_top_k(scores, offsets, fanouts)

    def describe(self) -> str:
        return "embedding-guided"


class PrecomputedScorePolicy(ForwardingPolicy):
    """Forward toward the highest precomputed per-node relevance score.

    Exploits the linearity of the diffusion: since the walk only ever
    compares ``e_q · e_v`` and ``E = H E0``, diffusing the scalar signal
    ``x0 = E0 e_q`` once yields ``s = H x0 = E e_q`` — exactly the scores the
    embedding-guided policy computes, at 1/dim of the cost.  The experiment
    harness relies on this; an integration test pins its walks to
    :class:`EmbeddingGuidedPolicy` over the full embedding matrix.
    """

    def __init__(self, scores: np.ndarray) -> None:
        scores = np.asarray(scores)
        if scores.dtype != np.float32:
            scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        self.node_scores = scores
        self.n_nodes = scores.shape[0]

    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        check_positive(fanout, "fanout")
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return candidates
        return candidates[top_k_indices(self.node_scores[candidates], fanout)]

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        return self.node_scores[candidates]

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        return _segment_top_k(self.node_scores[candidates], offsets, fanouts)

    def describe(self) -> str:
        return "embedding-guided(precomputed)"


class RandomWalkPolicy(ForwardingPolicy):
    """Blind uniform forwarding: the classic random-walk baseline."""

    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        check_positive(fanout, "fanout")
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return candidates
        count = min(fanout, candidates.size)
        chosen = rng.choice(candidates.size, size=count, replace=False)
        return candidates[np.sort(chosen)]

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        # A uniform subset without replacement equals keeping the largest
        # random keys; keys come from each walk's own generator, so batch
        # walks stay distributionally equivalent to scalar ones per walk.
        keys = np.empty(candidates.shape[0], dtype=np.float64)
        for s, rng in enumerate(rngs):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi > lo:
                keys[lo:hi] = rng.random(hi - lo)
        chosen, chosen_offsets = _segment_top_k(keys, offsets, fanouts)
        # Scalar select() returns its subset in ascending candidate order;
        # restore that ordering within each segment.
        segments = np.repeat(
            np.arange(len(rngs)), np.diff(chosen_offsets)
        )
        return chosen[np.lexsort((chosen, segments))], chosen_offsets

    def describe(self) -> str:
        return "random-walk"


class DegreeBiasedPolicy(ForwardingPolicy):
    """Forward toward high-degree nodes (hub-seeking blind baseline).

    High-degree nodes see more documents and more queries; seeking them is
    the classic heuristic of Adamic et al. for power-law P2P networks.
    """

    def __init__(self, adjacency: CompressedAdjacency) -> None:
        self.degrees = adjacency.degrees

    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        check_positive(fanout, "fanout")
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return candidates
        scores = self.degrees[candidates].astype(np.float64)
        return candidates[top_k_indices(scores, fanout)]

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        return self.degrees[candidates].astype(np.float64)

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        return _segment_top_k(
            self.score_batch(query_embeddings, candidates, offsets),
            offsets,
            fanouts,
        )

    def describe(self) -> str:
        return "degree-biased"
