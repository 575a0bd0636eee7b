"""Property-based tests: TopKTracker equals brute-force top-k selection.

The tracker's domain contract (paper §IV-C): a document's score is a pure
function of the query, so the same doc id is always offered with the same
score.  The strategies below honor that by drawing a score table first and a
stream of doc ids second.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.topk import TopKTracker

scores_table = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=31,
)


@st.composite
def offer_stream(draw):
    table = draw(scores_table)
    keys = sorted(table)
    stream = draw(
        st.lists(st.sampled_from(keys), max_size=60)
    )
    return [(str(key), table[key]) for key in stream]


def brute_force_top_k(items: list[tuple[str, float]], k: int) -> list[str]:
    """Best-k distinct docs by (score desc, id asc)."""
    table = dict(items)
    ordered = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return [doc_id for doc_id, _ in ordered[:k]]


class TestTrackerMatchesBruteForce:
    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200)
    def test_contents_equal_brute_force(self, items, k):
        tracker = TopKTracker(k)
        for doc_id, score in items:
            tracker.offer(doc_id, score)
        assert tracker.doc_ids() == brute_force_top_k(items, k)

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_insertion_order_invariance(self, items, k):
        forward = TopKTracker(k)
        for doc_id, score in items:
            forward.offer(doc_id, score)
        backward = TopKTracker(k)
        for doc_id, score in reversed(items):
            backward.offer(doc_id, score)
        assert forward.doc_ids() == backward.doc_ids()

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_size_bounded_by_k(self, items, k):
        tracker = TopKTracker(k)
        for doc_id, score in items:
            tracker.offer(doc_id, score)
        assert len(tracker) <= k
        assert len(tracker) == min(k, len({d for d, _ in items}))

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_items_sorted_best_first(self, items, k):
        tracker = TopKTracker(k)
        for doc_id, score in items:
            tracker.offer(doc_id, score)
        keys = [item.sort_key for item in tracker.items()]
        assert keys == sorted(keys)

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_offer_reports_membership(self, items, k):
        """``offer`` returns True exactly when the document is kept after it."""
        tracker = TopKTracker(k)
        for doc_id, score in items:
            assert tracker.offer(doc_id, score) == (doc_id in tracker)
            assert set(tracker.doc_ids()) == {d for d, _ in items if d in tracker}

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_best_is_first_item(self, items, k):
        tracker = TopKTracker(k)
        assert tracker.best() is None
        for doc_id, score in items:
            tracker.offer(doc_id, score)
        assert tracker.best() == (tracker.items()[0] if items else None)

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_rejected_rank_below_every_kept(self, items, k):
        """Every offered document left out sorts after every one kept."""
        tracker = TopKTracker(k)
        for doc_id, score in items:
            tracker.offer(doc_id, score)
        kept = [item.sort_key for item in tracker.items()]
        for doc_id, score in dict(items).items():
            if doc_id not in tracker:
                assert all((-score, doc_id) > key for key in kept)

    @given(items=offer_stream(), k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_reoffering_items_rebuilds_tracker(self, items, k):
        """Offering a tracker's items to an empty tracker of the same size
        rebuilds it, nodes included (how a forwarded result list is
        carried from peer to peer)."""
        tracker = TopKTracker(k)
        for node, (doc_id, score) in enumerate(items):
            tracker.offer(doc_id, score, node)
        rebuilt = TopKTracker(k)
        for item in reversed(tracker.items()):
            assert rebuilt.offer(item.doc_id, item.score, item.node)
        assert rebuilt.items() == tracker.items()
