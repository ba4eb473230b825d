"""Unit tests for the bounded top-k result heap."""

import pytest

from repro import DeweyCode
from repro.core.heap import TopKHeap
from repro.exceptions import QueryError


def code(text):
    return DeweyCode.parse(text)


class TestTopKHeap:
    def test_k_must_be_positive(self):
        with pytest.raises(QueryError):
            TopKHeap(0)
        with pytest.raises(QueryError):
            TopKHeap(-3)

    def test_threshold_zero_until_full(self):
        heap = TopKHeap(2)
        assert heap.threshold == 0.0
        heap.offer(code("1.1"), 0.5)
        assert heap.threshold == 0.0
        heap.offer(code("1.2"), 0.4)
        assert heap.threshold == 0.4

    def test_rejects_zero_probability(self):
        heap = TopKHeap(2)
        assert not heap.offer(code("1.1"), 0.0)
        assert not heap.offer(code("1.2"), -1.0)
        assert len(heap) == 0

    def test_keeps_k_best(self):
        heap = TopKHeap(2)
        for index, probability in enumerate((0.1, 0.9, 0.5, 0.7)):
            heap.offer(code(f"1.{index + 1}"), probability)
        ranked = heap.ranked()
        assert [probability for _, probability in ranked] == [0.9, 0.7]
        assert heap.threshold == 0.7

    def test_rejects_below_threshold(self):
        heap = TopKHeap(1)
        heap.offer(code("1.1"), 0.9)
        assert not heap.offer(code("1.2"), 0.5)
        assert len(heap) == 1

    def test_tie_at_boundary_prefers_document_order(self):
        heap = TopKHeap(1)
        assert heap.offer(code("1.5"), 0.5)
        # Equal probability, earlier document order: displaces.
        assert heap.offer(code("1.2"), 0.5)
        assert [str(key) for key, _ in heap.ranked()] == ["1.2"]
        # Equal probability, later document order: rejected.
        assert not heap.offer(code("1.9"), 0.5)

    def test_tie_order_insensitive_to_arrival(self):
        offers = [("1.5", 0.5), ("1.2", 0.5), ("1.9", 0.5), ("1.1", 0.4)]
        outcomes = []
        for permutation in ([0, 1, 2, 3], [2, 1, 0, 3], [3, 2, 1, 0],
                            [1, 3, 0, 2]):
            heap = TopKHeap(2)
            for index in permutation:
                text, probability = offers[index]
                heap.offer(code(text), probability)
            outcomes.append([(str(key), probability)
                             for key, probability in heap.ranked()])
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert outcomes[0] == [("1.2", 0.5), ("1.5", 0.5)]

    def test_reoffer_keeps_higher(self):
        heap = TopKHeap(2)
        heap.offer(code("1.1"), 0.3)
        assert not heap.offer(code("1.1"), 0.2)
        assert heap.offer(code("1.1"), 0.6)
        ranked = heap.ranked()
        assert len(ranked) == 1
        assert ranked[0][1] == 0.6

    def test_results_sorted(self):
        heap = TopKHeap(5)
        for index, probability in enumerate((0.2, 0.8, 0.5)):
            heap.offer(code(f"1.{index + 1}"), probability)
        assert [probability for _, probability in heap.ranked()] == \
            [0.8, 0.5, 0.2]

    def test_fewer_than_k_results(self):
        heap = TopKHeap(10)
        heap.offer(code("1.1"), 0.4)
        assert len(heap.ranked()) == 1
