"""PrStack (Algorithm 1): single-scan top-k probabilistic SLCA search.

Reads the merged keyword match entries once in document order, maintains
a stack of path frames whose tables are finalised bottom-up, and offers
every harvested ordinary-node probability to a k-size result heap.  The
SLCA probability of a node is therefore determined exactly when all of
its descendants' contributions are known — the invariant the paper's
postorder ``O*`` numbering in Figure 1(a) illustrates.

:func:`threshold_search` runs the same scan on a heap that never evicts,
floored at the caller's probability (:class:`repro.core.heap.TopKHeap`).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerLike
from repro.core.engine import StackEngine
from repro.core.heap import TopKHeap
from repro.core.result import SearchOutcome, ranked_results
from repro.exceptions import QueryError
from repro.index.cache import CachesLike, NULL_CACHES
from repro.index.inverted import InvertedIndex
from repro.index.matchlist import build_match_entries
from repro.obs.logging import get_logger
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.resilience.deadline import DeadlineLike, NULL_DEADLINE

_log = get_logger("core.prstack")


def prstack_search(index: InvertedIndex, keywords: Iterable[str],
                   k: int = 10, elca: bool = False,
                   collector: Collector = NULL_COLLECTOR,
                   sanitizer: SanitizerLike = NULL_SANITIZER,
                   caches: CachesLike = NULL_CACHES,
                   deadline: DeadlineLike = NULL_DEADLINE,
                   *, _normalized: bool = False
                   ) -> SearchOutcome:
    """Top-k SLCA answers by probability, via one document-order scan.

    Args:
        index: inverted index over an encoded p-document.
        keywords: query keywords (multi-word strings are split; all
            resulting terms are required, AND semantics).
        k: number of answers wanted; fewer are returned when fewer nodes
            have non-zero SLCA probability.
        elca: rank by Exclusive-LCA probability instead of SLCA — an
            extension after the paper's reference [23]; see
            :class:`repro.core.engine.StackEngine`.
        collector: metrics collector receiving the ``engine.*`` /
            ``heap.*`` operation counts and scan timings
            (docs/OBSERVABILITY.md); the default no-op records nothing.
        sanitizer: runtime invariant checker (sanitize mode,
            docs/ANALYSIS.md); asserts the scan order, every table and
            every emitted probability live.  The default checks nothing.
        caches: shared :class:`repro.index.cache.QueryCaches` reusing
            merged match entries across queries on the same index
            (docs/SERVICE.md); the default reuses nothing.
        deadline: per-query budget (docs/RESILIENCE.md), polled once
            per match entry.  On expiry the scan stops and the current
            heap comes back as a partial outcome: every node finalised
            (popped) before the cut has its *exact* probability, while
            frames still open are dropped — finalising them early
            would fabricate probabilities that ignore the unscanned
            part of their subtrees.  The default never expires.
        _normalized: internal — ``keywords`` are already the index's
            normalised query terms (:func:`repro.core.api.topk_search`
            validated them), so they are not normalised again.

    Returns:
        A :class:`SearchOutcome` with ranked results and scan counters.
    """
    return _scan(index, keywords,
                 TopKHeap(k, collector=collector, sanitizer=sanitizer),
                 elca=elca, collector=collector, sanitizer=sanitizer,
                 caches=caches, deadline=deadline, _normalized=_normalized)


def threshold_search(index: InvertedIndex, keywords: Iterable[str],
                     threshold: float) -> SearchOutcome:
    """All nodes with ``Pr_slca >= threshold``, best first.

    The paper's introduction discusses this alternative to top-k (and
    why a fixed cut-off is awkward: the answer set may be empty or too
    large, and a good cut-off differs between datasets).  It is PrStack
    on a heap that never evicts, floored at ``threshold``: the same
    single scan and the same cut-off rule as every top-k answer.

    Args:
        index: inverted index over an encoded p-document.
        keywords: query keywords (AND semantics, like the top-k API).
        threshold: minimum SLCA probability, in ``(0, 1]``.
    """
    if not 0.0 < threshold <= 1.0:
        raise QueryError(
            f"threshold must be in (0, 1], got {threshold!r}")
    outcome = _scan(index, keywords, TopKHeap(math.inf, floor=threshold))
    outcome.stats["algorithm"] = "threshold"
    outcome.stats["threshold"] = threshold
    return outcome


def _scan(index: InvertedIndex, keywords: Iterable[str],
          heap: TopKHeap, elca: bool = False,
          collector: Collector = NULL_COLLECTOR,
          sanitizer: SanitizerLike = NULL_SANITIZER,
          caches: CachesLike = NULL_CACHES,
          deadline: DeadlineLike = NULL_DEADLINE,
          *, _normalized: bool = False) -> SearchOutcome:
    """PrStack's single document-order scan, offering every harvested
    ``(node_id, probability)`` to ``heap``, whose ranked answers the
    outcome returns.  The other arguments are :func:`prstack_search`'s.
    """
    terms = list(keywords) if _normalized else index.query_terms(keywords)
    ids, masks = build_match_entries(index, terms, collector=collector,
                                     caches=caches)
    outcome = SearchOutcome(stats={
        "algorithm": "prstack",
        "semantics": "elca" if elca else "slca",
        "terms": len(terms),
        "match_entries": len(ids),
        "entries_scanned": 0,
        "frames_pushed": 0,
        "results_emitted": 0,
    })

    # AND semantics: a term with no match anywhere makes the full mask
    # unreachable, so no node can be an answer; the columns come back
    # empty and nothing is scanned.
    if not ids:
        _log.debug("prstack: a term has no postings; zero answers")
    else:
        full_mask = (1 << len(terms)) - 1
        engine = StackEngine(full_mask, heap.offer, index.encoded,
                             elca=elca, collector=collector,
                             sanitizer=sanitizer)
        with collector.time("prstack.scan"):
            scanned = engine.scan(ids, masks, deadline=deadline)
            if scanned < len(ids):
                outcome.partial = True
                outcome.termination_reason = deadline.reason
            else:
                engine.finish()
        outcome.stats["entries_scanned"] = scanned
        if outcome.partial:
            outcome.stats["deadline"] = deadline.summary()
            if collector.enabled:
                collector.count("resilience.deadline_expired")
            _log.debug("prstack: %s expired after %d/%d entries; "
                       "returning partial heap",
                       outcome.termination_reason, scanned, len(ids))
        outcome.stats["frames_pushed"] = engine.frames_pushed
        outcome.stats["frames_popped"] = engine.frames_popped
        outcome.stats["results_emitted"] = engine.results_emitted
        if collector.enabled:
            collector.count("prstack.entries_scanned", scanned)
            collector.mark("entries_scanned", scanned)
    outcome.results = ranked_results(index.encoded, heap.ranked())
    outcome.stats["heap_threshold_final"] = heap.threshold
    if _log.isEnabledFor(10):  # logging.DEBUG
        _log.debug(
            "prstack: %d entries -> %d frames, %d results, final "
            "threshold %.6g", outcome.stats["entries_scanned"],
            outcome.stats["frames_pushed"],
            outcome.stats["results_emitted"], heap.threshold)
    return outcome
