"""Threshold-based probabilistic SLCA search.

The paper's introduction discusses the alternative to top-k: return
every node whose SLCA probability reaches a user threshold, and notes
why it is awkward ("the answer set may be empty or too large if we do
not set a proper probability threshold... such a threshold is likely to
be different for different datasets").  We provide it anyway as an
extension — it reuses the PrStack engine with an unbounded collector,
so it costs one document-order scan like PrStack itself.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core import order
from repro.core.prstack import prstack_scan
from repro.core.result import SearchOutcome, ranked_results
from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex


def threshold_search(index: InvertedIndex, keywords: Iterable[str],
                     threshold: float) -> SearchOutcome:
    """All nodes with ``Pr_slca >= threshold``, best first.

    Args:
        index: inverted index over an encoded p-document.
        keywords: query keywords (AND semantics, like the top-k API).
        threshold: minimum SLCA probability, in ``(0, 1]``.
    """
    if not 0.0 < threshold <= 1.0:
        raise QueryError(
            f"threshold must be in (0, 1], got {threshold!r}")
    collected: List[Tuple[int, float]] = []

    def sink(node: int, probability: float) -> None:
        if probability >= threshold:
            collected.append((node, probability))

    outcome = prstack_scan(index, keywords, sink)
    outcome.stats["algorithm"] = "threshold"
    outcome.stats["threshold"] = threshold
    collected.sort(key=lambda item: order.result_order_key(*item))
    outcome.results = ranked_results(index.encoded, collected)
    return outcome
