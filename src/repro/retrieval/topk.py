"""The running top-k tracker carried by forwarded queries (paper §IV-C).

"Queries keep track of the k most relevant documents they have encountered
along with their relevance score."  The tracker is a bounded best-k set with
deterministic ordering (score descending, then document id ascending).  A
query's walkers, parallel ones included, all offer into the one tracker of
their query, so nothing has to be merged when they finish.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Iterator


@dataclass(frozen=True, order=True)
class ScoredDocument:
    """A document hit recorded by a query.

    ``sort_key`` makes higher scores sort first and ties break on document id,
    so tracker contents are a deterministic function of the inserted set.
    """

    score: float
    doc_id: Hashable
    node: Hashable | None = None

    @property
    def sort_key(self) -> tuple[float, str]:
        return (-self.score, str(self.doc_id))


class TopKTracker:
    """Bounded container of the best ``k`` scored documents seen so far."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        # Min-heap keyed on (score, reversed tie-break) so the *worst* kept
        # document is at the root and can be evicted in O(log k).
        self._heap: list[tuple[float, _ReverseStr, ScoredDocument]] = []
        self._doc_ids: set[Hashable] = set()

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, doc_id: Hashable) -> bool:
        return doc_id in self._doc_ids

    def offer(self, doc_id: Hashable, score: float, node: Hashable | None = None) -> bool:
        """Offer a document; returns True when it was (or already is) kept.

        A document id is tracked at most once — re-offering an id already in
        the tracker keeps its existing entry (document scores are a pure
        function of the query, so duplicates carry identical scores).
        """
        if doc_id in self._doc_ids:
            return True
        entry = (float(score), _ReverseStr(str(doc_id)), ScoredDocument(float(score), doc_id, node))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            self._doc_ids.add(doc_id)
            return True
        if entry <= self._heap[0]:
            return False
        evicted = heapq.heappushpop(self._heap, entry)
        self._doc_ids.discard(evicted[2].doc_id)
        self._doc_ids.add(doc_id)
        return True

    def items(self) -> list[ScoredDocument]:
        """Tracked documents, best first (deterministic order)."""
        return sorted((entry[2] for entry in self._heap), key=lambda d: d.sort_key)

    def best(self) -> ScoredDocument | None:
        """The single best document, or None when empty."""
        if not self._heap:
            return None
        return min((entry[2] for entry in self._heap), key=lambda d: d.sort_key)

    def doc_ids(self) -> list[Hashable]:
        """Tracked document ids, best first."""
        return [item.doc_id for item in self.items()]

    def __iter__(self) -> Iterator[ScoredDocument]:
        return iter(self.items())


class _ReverseStr:
    """String wrapper with inverted ordering.

    Used inside min-heap entries so that, at equal score, lexicographically
    *smaller* doc ids are considered better (evicted last).
    """

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_ReverseStr") -> bool:
        return self.value > other.value

    def __le__(self, other: "_ReverseStr") -> bool:
        return self.value >= other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseStr) and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"_ReverseStr({self.value!r})"
