"""THE total result order: probability desc, then document order.

Every component that ranks answers — the in-process
:class:`~repro.core.heap.TopKHeap`, the possible-worlds oracle, the
Monte-Carlo and threshold baselines, and the corpus layer's
cross-shard merge (:mod:`repro.corpus`) — must sort by exactly one
total order, or two code paths can return the same answer *set* in
different orders (or worse, keep different members of a probability
tie at the k boundary).  That order is defined here, once:

* higher probability first, compared **bitwise** — two distinct
  floats are distinct, so a near-tie never falls through to the
  document-order tiebreak on one path but not another;
* probability ties break by document order, so the earliest node in
  the document wins the last slot deterministically.  Within one
  document the order key is the node's preorder id; across documents
  (the corpus merge) it is the node's global Dewey ``positions``.
  Both sort exactly like the node's code.

The order is *total* over ``(key, probability)`` pairs (keys are
unique), which is what makes top-k answers
bit-identical regardless of executor, shard count, or arrival order —
the merge-determinism contract of the corpus layer
(docs/CORPUS.md).
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.core.result import SLCAResult

#: What the order key looks like: ``(-probability, node key)``.
OrderKey = Tuple[float, Any]


def result_order_key(key: Any, probability: float) -> OrderKey:
    """The sort key of one answer under the global result order; ``key``
    is a node id or a positions tuple (see the module docstring).

    Sorting ascending by this key yields probability descending with
    document order breaking ties.  Negation is exact for every float
    probability (IEEE-754 negation flips the sign bit), so the key
    preserves the bitwise-exact probability comparison the heap's
    answer-set identity depends on.
    """
    return (-probability, key)


def sort_key(result: SLCAResult) -> OrderKey:
    """:func:`result_order_key` adapted to :class:`SLCAResult`."""
    return result_order_key(result.code.positions, result.probability)
