"""Bounded top-k result heap with per-node deduplication.

Both algorithms stream ``(node id, probability)`` results and keep only
the ``k`` best; the corpus merge streams global positions tuples
instead.  Keys only need to sort in document order (repro.core.order).  EagerTopK additionally needs the current k-th highest
probability as its pruning threshold: :meth:`TopKHeap.threshold` is
the heap's floor (0 by default) until the heap fills, after which it is
the smallest retained probability — so comparisons against it are
always conservative.  The floor is the one cut-off rule for top-k and
threshold answers alike (:func:`repro.core.prstack.threshold_search`
is a heap with ``k = math.inf`` floored at the caller's probability).

Probability ties at the k boundary are broken by document order
(earlier nodes win), making the retained set a pure function of the
offered results — PrStack and EagerTopK therefore return *identical*
answers even when several nodes share the k-th probability, despite
discovering results in different orders.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerLike
from repro.core.order import result_order_key
from repro.exceptions import QueryError
from repro.obs.metrics import EngineMetrics, NULL_COLLECTOR


class _Entry:
    """Heap entry ordered worst-first: lowest probability, then latest
    document order (so eviction keeps document-order-earliest nodes)."""

    __slots__ = ("probability", "key")

    def __init__(self, probability: float, key: Any):
        self.probability = probability
        self.key = key

    def __lt__(self, other: "_Entry") -> bool:
        # Worst-first is the exact reverse of the shared result order
        # (repro.core.order): the entry the global order ranks *later*
        # sits at the heap top.  The key compares probabilities
        # bitwise — a total order over heap entries must treat any two
        # distinct floats as distinct, or the document-order tiebreak
        # would kick in for nearly-equal probabilities and break the
        # PrStack/EagerTopK answer-set identity the tests pin down.
        return (result_order_key(other.key, other.probability)
                < result_order_key(self.key, self.probability))


class TopKHeap:
    """Min-heap of the k highest-probability (key, probability) pairs."""

    def __init__(self, k: float, collector: EngineMetrics = NULL_COLLECTOR,
                 sanitizer: SanitizerLike = NULL_SANITIZER,
                 floor: float = 0.0):
        """``k`` may be ``math.inf``: the heap never evicts.  ``floor``
        is the least probability it accepts.  ``collector`` receives the
        ``heap.*`` counters and, when tracing, one ``heap.threshold``
        event per threshold raise — the k-th probability's evolution
        over the scan.  ``sanitizer`` (sanitize mode only) asserts
        offered probabilities are in range and the heap invariant holds
        after every acceptance."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        self.k = k
        self.floor = floor
        self.collector = collector
        self.sanitizer = sanitizer
        self._heap: List[_Entry] = []
        self._best: Dict[Any, float] = {}

    def __len__(self) -> int:
        return len(self._best)

    @property
    def threshold(self) -> float:
        """The current k-th highest probability, or the floor until k
        answers exist.  It never reads below the floor: every retained
        answer was accepted at or above it.

        A candidate whose probability or upper bound is *strictly below*
        this value can never enter the result set.  An equal-probability
        candidate may still enter on the document-order tiebreak, so
        pruning decisions must compare strictly (``bound < threshold``)
        to keep PrStack and EagerTopK answer sets identical.
        """
        if len(self._best) < self.k:
            return self.floor
        return self._heap[0].probability

    def would_accept(self, key: Any, probability: float) -> bool:
        """Whether an offer of ``(key, probability)`` would enter the
        heap right now — the tie-aware form of a threshold comparison.

        EagerTopK suspends a candidate when even its upper bound would
        not be accepted: a bound *equal* to the k-th probability still
        loses if the candidate falls after the current boundary
        entry in document order, which is exactly the tiebreak
        :meth:`offer` applies.  Using this test keeps the pruned search
        result-identical to PrStack while pruning ties aggressively.
        It applies :meth:`offer`'s floor rule too.
        """
        if probability <= 0.0 or probability < self.floor:
            return False
        known = self._best.get(key)
        if known is not None:
            return probability > known
        if len(self._best) >= self.k:
            return not _Entry(probability, key) < self._heap[0]
        return True

    def offer(self, key: Any, probability: float) -> bool:
        """Insert a result if it belongs in the top-k; returns acceptance.

        Zero-probability results are rejected outright: the paper only
        returns nodes with non-zero probability.  So is a result
        strictly below the floor; one exactly at it is accepted, the
        same strict rule every pruning comparison against
        :attr:`threshold` applies.  Re-offering a node
        keeps the higher probability (the algorithms compute each node's
        probability once, so this is purely defensive).
        """
        collector = self.collector
        observed = collector.enabled
        if observed:
            collector.count("heap.offers")
        if self.sanitizer.enabled:
            self.sanitizer.check_probability(
                probability, f"heap offer for {key}")
        if probability <= 0.0 or probability < self.floor:
            return False
        known = self._best.get(key)
        if known is not None and probability <= known:
            return False
        if known is None and len(self._best) >= self.k:
            if _Entry(probability, key) < self._heap[0]:
                if observed:
                    collector.count("heap.rejected_below_threshold")
                return False
        before = self.threshold if observed else 0.0
        self._best[key] = probability
        heapq.heappush(self._heap, _Entry(probability, key))
        self._shrink()
        if self.sanitizer.enabled:
            self.sanitizer.check_heap(self._heap, self._best, self.k)
        if observed:
            collector.count("heap.accepted")
            threshold = self.threshold
            if threshold > before:
                collector.count("heap.threshold_raises")
                collector.observe("heap.threshold", threshold)
                if collector.tracer is not None:
                    collector.event("heap.threshold",
                                    value=round(threshold, 9),
                                    size=len(self._best))
        return True

    def _shrink(self) -> None:
        """Drop superseded and evicted entries from the heap top."""
        while len(self._best) > self.k:
            entry = heapq.heappop(self._heap)
            if self._best.get(entry.key) == entry.probability:
                del self._best[entry.key]
                if self.collector.enabled:
                    self.collector.count("heap.evictions")
        # Clean stale heads so threshold() reads a live value.
        while self._heap:
            entry = self._heap[0]
            if self._best.get(entry.key) == entry.probability:
                break
            heapq.heappop(self._heap)

    def ranked(self) -> List[Tuple[Any, float]]:
        """``(key, probability)`` pairs sorted by probability
        descending, document order on ties."""
        return sorted(self._best.items(),
                      key=lambda item: result_order_key(item[0], item[1]))
