"""Tests for the running top-k tracker (query state of §IV-C)."""

import pytest

from repro.retrieval.topk import ScoredDocument, TopKTracker


class TestOffer:
    def test_keeps_best_k(self):
        tracker = TopKTracker(2)
        tracker.offer("a", 1.0)
        tracker.offer("b", 3.0)
        tracker.offer("c", 2.0)
        assert tracker.doc_ids() == ["b", "c"]

    def test_rejects_below_worst_when_full(self):
        tracker = TopKTracker(2)
        tracker.offer("a", 2.0)
        tracker.offer("b", 3.0)
        assert tracker.offer("c", 1.0) is False
        assert tracker.doc_ids() == ["b", "a"]

    def test_accept_return_value(self):
        tracker = TopKTracker(1)
        assert tracker.offer("a", 1.0) is True
        assert tracker.offer("b", 5.0) is True
        assert tracker.offer("c", 0.5) is False

    def test_duplicate_doc_id_kept_once(self):
        tracker = TopKTracker(3)
        tracker.offer("a", 1.0)
        assert tracker.offer("a", 1.0) is True
        assert len(tracker) == 1

    def test_contains(self):
        tracker = TopKTracker(2)
        tracker.offer("a", 1.0)
        assert "a" in tracker
        assert "b" not in tracker

    def test_eviction_removes_membership(self):
        tracker = TopKTracker(1)
        tracker.offer("a", 1.0)
        tracker.offer("b", 2.0)
        assert "a" not in tracker
        assert "b" in tracker

    def test_tie_break_prefers_smaller_doc_id(self):
        tracker = TopKTracker(1)
        tracker.offer("b", 1.0)
        tracker.offer("a", 1.0)
        assert tracker.doc_ids() == ["a"]

    def test_tie_break_insertion_order_invariant(self):
        a = TopKTracker(2)
        for doc, score in [("x", 1.0), ("y", 1.0), ("z", 1.0)]:
            a.offer(doc, score)
        b = TopKTracker(2)
        for doc, score in [("z", 1.0), ("y", 1.0), ("x", 1.0)]:
            b.offer(doc, score)
        assert a.doc_ids() == b.doc_ids() == ["x", "y"]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKTracker(0)


class TestAccessors:
    def test_items_sorted_best_first(self):
        tracker = TopKTracker(3)
        tracker.offer("low", 1.0)
        tracker.offer("high", 9.0)
        tracker.offer("mid", 5.0)
        scores = [item.score for item in tracker.items()]
        assert scores == [9.0, 5.0, 1.0]

    def test_best(self):
        tracker = TopKTracker(3)
        assert tracker.best() is None
        tracker.offer("a", 1.0, node=7)
        tracker.offer("b", 2.0, node=8)
        best = tracker.best()
        assert best.doc_id == "b"
        assert best.node == 8

    def test_iteration(self):
        tracker = TopKTracker(2)
        tracker.offer("a", 1.0)
        assert [item.doc_id for item in tracker] == ["a"]


class TestScoredDocument:
    def test_sort_key_orders_descending_score(self):
        docs = [ScoredDocument(1.0, "a"), ScoredDocument(2.0, "b")]
        ordered = sorted(docs, key=lambda d: d.sort_key)
        assert [d.doc_id for d in ordered] == ["b", "a"]

    def test_frozen(self):
        doc = ScoredDocument(1.0, "a")
        with pytest.raises(AttributeError):
            doc.score = 2.0
