"""Query/document workload construction (paper §V-B).

"We generate queries and documents from the Glove dataset using 1000 random
words as queries and their nearest neighbors as gold documents, provided that
their cosine similarity is over 0.6 and the two sets do not overlap.  The
remaining words are treated as a pool of irrelevant documents."

Also provides the open-loop arrival process (:func:`poisson_arrival_times`)
the online-serving layer uses to drive query streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embeddings.model import WordEmbeddingModel
from repro.utils import (
    check_positive,
    check_positive_int,
    check_probability,
    ensure_rng,
)
from repro.utils.rng import RngLike

#: Candidate words per cosine block in :func:`build_workload`: one block of
#: the paper's 30 000-word vocabulary is 32 x 30 000 float64, 7.7 MB.
SCAN_BLOCK = 32


@dataclass
class RetrievalWorkload:
    """Queries with their gold documents plus the irrelevant-document pool."""

    model: WordEmbeddingModel
    queries: list[str]
    gold_of: dict[str, list[str]]
    irrelevant_pool: list[str]
    threshold: float

    def __post_init__(self) -> None:
        query_set = set(self.queries)
        gold_set = {g for golds in self.gold_of.values() for g in golds}
        if query_set & gold_set:
            raise ValueError("query and gold sets overlap")
        pool_set = set(self.irrelevant_pool)
        if pool_set & query_set or pool_set & gold_set:
            raise ValueError("irrelevant pool overlaps queries or golds")
        # Vocabulary row of every pool word, so the simulation can draw
        # documents as rows without a word lookup per document.
        self._pool_rows = np.asarray(
            [self.model.index_of(word) for word in self.irrelevant_pool],
            dtype=np.int64,
        )

    # ---------------------------------------------------------------- access

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def query_embedding(self, query: str) -> np.ndarray:
        return self.model.vector(query)

    def sample_case(self, rng: np.random.Generator) -> tuple[str, str]:
        """Draw a (query word, one of its gold documents) pair."""
        query = self.queries[int(rng.integers(len(self.queries)))]
        golds = self.gold_of[query]
        gold = golds[int(rng.integers(len(golds)))]
        return query, gold

    def sample_irrelevant(
        self,
        rng: np.random.Generator,
        count: int,
        *,
        exclude: set[str] | None = None,
    ) -> list[str]:
        """Draw ``count`` distinct irrelevant documents from the pool."""
        pool = self.irrelevant_pool
        if exclude:
            pool = [w for w in pool if w not in exclude]
        return [pool[i] for i in self._draw_pool_rows(rng, count, len(pool)).tolist()]

    def sample_irrelevant_rows(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Vocabulary rows of ``sample_irrelevant(rng, count)``.

        Makes the same draws, so the generator ends in the same state, but
        returns the words' embedding-model rows instead of the words.
        """
        return self._pool_rows[
            self._draw_pool_rows(rng, count, len(self.irrelevant_pool))
        ]

    @staticmethod
    def _draw_pool_rows(
        rng: np.random.Generator, count: int, pool_size: int
    ) -> np.ndarray:
        """``count`` distinct positions in a pool of ``pool_size`` words."""
        if count > pool_size:
            raise ValueError(
                f"requested {count} irrelevant documents but the pool has "
                f"{pool_size}; enlarge the vocabulary"
            )
        return rng.choice(pool_size, size=count, replace=False)


def build_workload(
    model: WordEmbeddingModel,
    *,
    n_queries: int = 1000,
    threshold: float = 0.6,
    seed: RngLike = None,
) -> RetrievalWorkload:
    """Construct the paper's workload from an embedding model.

    Random words are accepted as queries when they have at least one neighbor
    above the cosine ``threshold`` that is not itself a query; those neighbors
    become the query's gold documents.  Queries and golds are kept disjoint
    ("the two sets do not overlap"); every remaining word lands in the
    irrelevant pool.

    Candidates are scanned in blocks of :data:`SCAN_BLOCK` words, each
    block's neighbors coming from one
    :meth:`WordEmbeddingModel.neighbor_words_above` call, while acceptance
    stays word by word; the result equals one ``neighbors_above`` call per
    candidate.
    """
    check_positive_int(n_queries, "n_queries")
    check_probability(threshold, "threshold", inclusive=False)
    rng = ensure_rng(seed)

    order = rng.permutation(len(model))

    queries: list[str] = []
    gold_of: dict[str, list[str]] = {}
    query_set: set[str] = set()
    gold_set: set[str] = set()

    for start in range(0, order.size, SCAN_BLOCK):
        if len(queries) >= n_queries:
            break
        # A word already taken as gold is never a query; leave it out.
        block = [
            idx
            for idx in order[start : start + SCAN_BLOCK].tolist()
            if model.word_at(idx) not in gold_set
        ]
        for idx, block_neighbors in zip(
            block, model.neighbor_words_above(block, threshold)
        ):
            if len(queries) >= n_queries:
                break
            word = model.word_at(idx)
            if word in gold_set:
                continue
            neighbors = [
                neighbor for neighbor in block_neighbors if neighbor not in query_set
            ]
            if not neighbors:
                continue
            queries.append(word)
            query_set.add(word)
            gold_of[word] = neighbors
            gold_set.update(neighbors)

    if not queries:
        raise ValueError(
            "no query words have neighbors above the threshold; lower the "
            "threshold or raise the embedding model's intra-cluster cosine"
        )

    irrelevant_pool = [
        word
        for word in model.words
        if word not in query_set and word not in gold_set
    ]
    return RetrievalWorkload(
        model=model,
        queries=queries,
        gold_of=gold_of,
        irrelevant_pool=irrelevant_pool,
        threshold=threshold,
    )


def poisson_arrival_times(
    rate: float,
    *,
    horizon: float | None = None,
    n: int | None = None,
    seed: RngLike = None,
) -> np.ndarray:
    """Arrival timestamps of a homogeneous Poisson process of intensity ``rate``.

    Open-loop by construction: arrivals are independent of service state, so
    an overloaded server sees the queue grow rather than the offered load
    back off — the regime admission control exists for.

    Exactly one of ``horizon`` (generate until that time) or ``n`` (generate
    that many arrivals) must be given.  Returns a sorted float array of
    times, starting after 0.
    """
    check_positive(rate, "rate")
    if (horizon is None) == (n is None):
        raise ValueError("specify exactly one of horizon= or n=")
    rng = ensure_rng(seed)
    if n is not None:
        check_positive(n, "n")
        return np.cumsum(rng.exponential(1.0 / rate, size=int(n)))
    check_positive(horizon, "horizon")
    times: list[np.ndarray] = []
    total = 0.0
    # Draw in expected-size chunks until the horizon is crossed.
    chunk = max(16, int(rate * horizon * 1.2) + 1)
    while total <= horizon:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        block = total + np.cumsum(gaps)
        times.append(block)
        total = float(block[-1])
    merged = np.concatenate(times)
    return merged[merged <= horizon]
