"""Unit tests for the bounded top-k result heap."""

import math

import pytest

from repro import DeweyCode, MetricsCollector
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


class TestFloor:
    """The monotone floor: the heap's one cut-off rule, shared by
    top-k (floor 0) and threshold search (``k = math.inf``)."""

    def test_a_tie_at_the_floor_is_accepted(self):
        for k in (1, 3, math.inf):
            heap = TopKHeap(k, floor=0.25)
            assert heap.offer(code("1.2"), 0.25)
            assert not heap.offer(code("1.1"), math.nextafter(0.25, 0.0))
            assert [probability for _, probability in heap.ranked()] \
                == [0.25]

    def test_threshold_never_reads_below_the_floor(self):
        floor = 0.3
        heap = TopKHeap(2, floor=floor)
        assert heap.threshold == floor
        for index, probability in enumerate((0.1, 0.3, 0.9, 0.2, 0.5,
                                             0.7, 0.3)):
            heap.offer(code(f"1.{index + 1}"), probability)
            assert heap.threshold >= floor
        assert heap.threshold == 0.7
        assert all(probability >= floor
                   for _, probability in heap.ranked())

    def test_an_unbounded_heap_never_evicts(self):
        collector = MetricsCollector()
        heap = TopKHeap(math.inf, collector=collector, floor=0.5)
        offered = [(code(f"1.{index + 1}"), (index % 7 + 1) / 8)
                   for index in range(200)]
        for key, probability in offered:
            heap.offer(key, probability)
        kept = [(key, probability) for key, probability in offered
                if probability >= 0.5]
        assert len(heap) == len(kept)
        assert sorted(heap.ranked()) == sorted(kept)
        assert heap.threshold == 0.5
        assert collector.counter("heap.evictions") == 0

    @pytest.mark.parametrize("k", [1, 2, math.inf])
    def test_would_accept_agrees_with_offer_at_the_floor(self, k):
        floor = 0.4
        probes = (0.0, math.nextafter(floor, 0.0), floor,
                  math.nextafter(floor, 1.0), 0.6)
        for prefix in ([], [("1.5", 0.4)], [("1.5", 0.4), ("1.6", 0.6)]):
            for probe in probes:
                for text in ("1.1", "1.9"):
                    heap = TopKHeap(k, floor=floor)
                    for key, probability in prefix:
                        heap.offer(code(key), probability)
                    predicted = heap.would_accept(code(text), probe)
                    assert heap.offer(code(text), probe) == predicted, \
                        (prefix, probe, text)
