"""Forwarding policies: the next-hop decision of paper §IV-C.

A policy ranks a query's candidate next hops and the walk engine,
:func:`repro.core.batch.run_queries`, selects among them.  The paper's
policy scores each candidate neighbor by the dot product of the query
embedding with its stored *diffused* embedding, and the walk goes to the
best unvisited one (Fig. 1).  The blind baselines of §II-A rank neighbors by
degree or draw them at random, behind the same interface:

* a *scorer* implements :meth:`ForwardingPolicy.score_batch`, one score
  per candidate; every built-in deterministic policy is one.  The
  score-table policies (:class:`PrecomputedScorePolicy` and its subclasses
  :class:`DegreeBiasedPolicy` and
  :class:`~repro.core.aggregation.MaxChannelPolicy`) read a fixed per-node
  table, so one batch can walk a different table per walk;
* a *sampler* implements :meth:`ForwardingPolicy.select_batch` and picks
  for itself, drawing from each walk's own generator
  (:class:`RandomWalkPolicy`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.adjacency import CompressedAdjacency
from repro.gsp.filters import RowBlock


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


class ForwardingPolicy:
    """Ranks a walk's candidate next hops; the walk engine selects.

    Both methods take ``S`` walks' candidates at once: ``candidates``
    concatenates one segment per walk (node ids, ascending within a
    segment), segment ``s`` spans ``candidates[offsets[s]:offsets[s + 1]]``
    and is ranked for ``query_embeddings[s]``.  A policy implements one of
    them: :meth:`score_batch` (a scorer) or :meth:`select_batch` (a
    sampler).
    """

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray | None:
        """One score per candidate; ``None`` (the default) marks a sampler.

        The engine scores a sub-round's candidates once and sends each
        walker to its best-scoring unvisited candidates (ties to the lower
        position), every retry and reroute of the hop included, so a
        candidate's score must not depend on the other candidates.
        """
        return None

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        """A sampler's choice of up to ``fanouts[s]`` candidates per segment.

        ``rngs[s]`` is segment ``s``'s walk generator.  Returns ``(chosen,
        chosen_offsets)``: flat indices into ``candidates`` (selection order
        within each segment) and the per-segment boundaries of ``chosen``.
        The engine calls it only when :meth:`score_batch` returns ``None``.
        """
        raise TypeError(
            f"policy {self.describe()!r} implements neither score_batch "
            "nor select_batch"
        )

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
        # A block is kept as the caller's, so the policy scores whatever
        # a later in-place patch writes into it; a float32 cache (the
        # float32 diffusion pipeline) is stored in float32 and scored in
        # float64.
        self._block = isinstance(embeddings, RowBlock)
        matrix = embeddings
        if not self._block:
            matrix = np.asarray(embeddings)
            if matrix.dtype != np.float32:
                matrix = np.asarray(matrix, dtype=np.float64)
        if len(matrix.shape) != 2:
            raise ValueError(f"embeddings must be 2-D, got shape {matrix.shape}")
        self.embeddings = matrix

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
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
        and a candidate's score depends on nothing but its row and its
        walk's query, so a one-segment call (one walk, as the scalar oracle
        makes) and an S-segment call agree bit for bit.
        """
        queries = np.asarray(query_embeddings, dtype=np.float64)
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

    # ``perfbench/layers.py`` patches ``select`` and ``select_batch`` (looked
    # up through ``vars()``) for its ``core.forwarding.*`` metrics, so both
    # names stay until a benchmark change re-points those metrics.  The walk
    # engine calls neither: it selects over :meth:`score_batch`.
    def select(
        self,
        query_embedding: np.ndarray,
        candidates: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Up to ``fanout`` of one walk's ``candidates``, best first."""
        candidates = np.asarray(candidates, dtype=np.int64)
        chosen, _ = self.select_batch(
            np.asarray(query_embedding)[None, :],
            candidates,
            np.array([0, candidates.shape[0]]),
            np.array([fanout]),
            [rng],
        )
        return candidates[chosen]

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each segment's top ``fanouts[s]`` by :meth:`score_batch`."""
        return _segment_top_k(
            self.score_batch(query_embeddings, candidates, offsets), offsets, fanouts
        )

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

    A score table scores a node the same for every query, so the engine
    stacks a batch's per-walk tables and scores a hop with one gather.
    """

    def __init__(self, scores: np.ndarray) -> None:
        scores = np.asarray(scores)
        if scores.dtype != np.float32:
            scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        self.node_scores = scores
        self.n_nodes = scores.shape[0]

    def score_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        return self.node_scores[candidates]

    def describe(self) -> str:
        return "embedding-guided(precomputed)"


class RandomWalkPolicy(ForwardingPolicy):
    """Blind uniform forwarding: the classic random-walk baseline."""

    def select_batch(
        self,
        query_embeddings: np.ndarray,
        candidates: np.ndarray,
        offsets: np.ndarray,
        fanouts: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        # A uniform subset without replacement equals keeping the largest
        # random keys; keys come from each walk's own generator, so walks
        # in one batch draw independently.
        keys = np.empty(candidates.shape[0], dtype=np.float64)
        for s, rng in enumerate(rngs):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi > lo:
                keys[lo:hi] = rng.random(hi - lo)
        chosen, chosen_offsets = _segment_top_k(keys, offsets, fanouts)
        # Each segment's subset in ascending candidate order.
        segments = np.repeat(
            np.arange(len(rngs)), np.diff(chosen_offsets)
        )
        return chosen[np.lexsort((chosen, segments))], chosen_offsets

    def describe(self) -> str:
        return "random-walk"


class DegreeBiasedPolicy(PrecomputedScorePolicy):
    """Forward toward high-degree nodes (hub-seeking blind baseline).

    High-degree nodes see more documents and more queries; seeking them is
    the classic heuristic of Adamic et al. for power-law P2P networks.  The
    score table is the node degrees.
    """

    def __init__(self, adjacency: CompressedAdjacency) -> None:
        super().__init__(adjacency.degrees.astype(np.float64))

    def describe(self) -> str:
        return "degree-biased"
