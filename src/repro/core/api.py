"""Public entry point: :func:`topk_search`.

Accepts a raw :class:`~repro.prxml.model.PDocument`, a prepared
:class:`~repro.index.storage.Database`, or a bare
:class:`~repro.index.inverted.InvertedIndex`, and dispatches to the
requested algorithm.  Results come back labelled from the label
column; each result's p-document ``node`` (for its text and subtree)
is looked up when first accessed.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.sanitizer import (EXACT_CHECK_MAX_ENTRIES,
                                      NULL_SANITIZER, Sanitizer,
                                      sanitize_from_env)
from repro.core.eager import eager_topk_search
from repro.core.possible_worlds_search import possible_worlds_search
from repro.core.heap import TopKHeap
from repro.core.prstack import _scan, prstack_search
from repro.core.result import SearchOutcome
from repro.exceptions import QueryError
from repro.index.cache import CachesLike, NULL_CACHES
from repro.index.inverted import InvertedIndex
from repro.index.storage import Database
from repro.index.tokenizer import tokenize
from repro.obs.logging import get_logger
from repro.obs.metrics import (MetricsBuffer, MetricsCollector,
                               NULL_COLLECTOR)
from repro.prxml.model import PDocument
from repro.resilience.deadline import (Deadline, DeadlineLike,
                                       as_deadline)

_log = get_logger("core.api")


class Algorithm(Enum):
    """Selectable search strategies."""

    PRSTACK = "prstack"
    EAGER = "eager"
    POSSIBLE_WORLDS = "possible_worlds"


Source = Union[PDocument, Database, InvertedIndex]


def validated_terms(keywords: Iterable[str], k: int,
                    algorithm: Union[Algorithm, str] = Algorithm.EAGER,
                    semantics: str = "slca"
                    ) -> Tuple[List[str], Algorithm]:
    """Boundary validation and normalisation in one pass, shared by
    :func:`topk_search` and the service and corpus layers: each keyword
    is tokenised once, and the query's unique terms come back in
    keyword order (the :func:`~repro.index.tokenizer.normalize_query`
    flattening), with the query's coerced :class:`Algorithm`.  The
    caller passes that on, so a query coerces its algorithm once.

    Raises a :class:`QueryError` naming the offence (instead of
    whatever a deeper layer — the heap, an engine, a shard visit —
    would eventually do) for, in this order: a non-positive ``k``;
    duplicate keywords; an unknown algorithm or semantics, or ELCA
    under EagerTopK; a keyword with no indexable terms.

    Two keywords are duplicates when they tokenise identically
    (``"K1"`` duplicates ``"k1"``): the duplicate would silently
    collapse into one required term and turn a 3-keyword query into a
    different — still answerable — 2-term query.  An empty keyword
    list passes and yields no terms; each caller decides what that
    means.
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    seen: Dict[Tuple[str, ...], str] = {}
    terms: Dict[str, None] = {}
    empty: Optional[str] = None
    for keyword in keywords:
        tokens = tokenize(keyword)
        if not tokens:
            if empty is None:
                empty = keyword
            continue
        key = tuple(tokens)
        if key in seen:
            raise QueryError(
                f"duplicate query keyword {keyword!r} (normalises the "
                f"same as {seen[key]!r})")
        seen[key] = keyword
        for token in tokens:
            terms.setdefault(token, None)
    algorithm = _coerce_algorithm(algorithm)
    if semantics not in ("slca", "elca"):
        raise QueryError(
            f"unknown semantics {semantics!r}; choose 'slca' or 'elca'")
    if semantics == "elca" and algorithm is Algorithm.EAGER:
        raise QueryError(
            "EagerTopK's pruning bounds are SLCA-specific; use "
            "algorithm='prstack' (or 'possible_worlds') for ELCA")
    if empty is not None:
        raise QueryError(
            f"query keyword {empty!r} contains no indexable terms")
    return list(terms), algorithm


def topk_search(source: Source, keywords: Iterable[str], k: int = 10,
                algorithm: Union[Algorithm, str] = Algorithm.EAGER,
                semantics: str = "slca",
                collector: Optional[Union[MetricsCollector,
                                          MetricsBuffer]] = None,
                sanitize: Optional[bool] = None,
                caches: CachesLike = NULL_CACHES,
                deadline: "Optional[Union[Deadline, DeadlineLike, float, int]]" = None,
                *, _attach_metrics: bool = True,
                _checked: bool = False) -> SearchOutcome:
    """Find the ``k`` ordinary nodes most likely to be SLCAs.

    Args:
        source: a p-document (indexed on the fly), a loaded
            :class:`Database`, or an :class:`InvertedIndex`.
        keywords: query keywords; multi-word strings contribute all
            their words, and every word is required (AND semantics).
        k: how many answers to return (fewer come back when fewer nodes
            have non-zero probability).
        algorithm: an :class:`Algorithm` or its string value
            (case-insensitive).  The default, EagerTopK, is the paper's
            fastest; PrStack gives the same answers with a simpler
            single-scan strategy; ``possible_worlds`` is the
            exponential oracle for tiny documents.
        semantics: ``"slca"`` (the paper) or ``"elca"`` (an extension
            after reference [23]).  EagerTopK's pruning properties are
            SLCA-specific — coverage below a node excludes its
            ancestors, which is false under ELCA — so ``"elca"`` is
            served by PrStack or the oracle only.
        collector: a :class:`repro.obs.MetricsCollector` to fill with
            operation counts, timings and histograms; its snapshot is
            attached to ``outcome.stats["metrics"]``.  With the default
            ``None`` the no-op collector runs and nothing is recorded
            (results are byte-identical either way).  A collector
            built with a :class:`repro.obs.SpanTracer` also records
            the engine phases as spans and the engine events
            (``eager.prune_path``, ``eager.suspend``,
            ``eager.process``, ``heap.threshold``) as zero-duration
            spans under them.
        sanitize: run the query under the runtime invariant sanitizer
            (docs/ANALYSIS.md): every probability, distribution table,
            MUX mass, scan order, heap state and EagerTopK bound is
            checked live, and a violated paper invariant raises
            :class:`repro.analysis.SanitizerError`.  On small inputs
            (at most ``EXACT_CHECK_MAX_ENTRIES`` match entries) an
            EagerTopK run is additionally cross-checked against an
            exhaustive PrStack pass to prove every Property 1-5 bound
            dominates the exact probability.  The default ``None``
            defers to the ``REPRO_SANITIZE`` environment variable;
            the sanitize summary lands in
            ``outcome.stats["sanitizer"]``.
        caches: shared :class:`repro.index.cache.QueryCaches` bound to
            the same prepared index, reusing match lists, per-keyword
            Dewey lists and path probabilities across queries
            (docs/SERVICE.md).  The default reuses nothing; a
            :class:`repro.service.QueryService` passes its own.
        deadline: per-query execution budget (docs/RESILIENCE.md): a
            :class:`repro.resilience.Deadline` or a plain number of
            wall-clock milliseconds.  PrStack polls it per match entry
            and EagerTopK per candidate; on expiry the current k-heap
            comes back as an *anytime* answer with
            ``outcome.partial == True`` and
            ``outcome.termination_reason`` naming the exhausted budget
            — never an exception.  Every returned probability is exact
            for its node; the set is a rank-wise lower bound of the
            converged answer.  The exhaustive ``possible_worlds``
            oracle ignores deadlines (it exists to be exact).  The
            default ``None`` never expires and returns byte-identical
            results with ``partial == False``.
        _attach_metrics: private to :class:`repro.service.QueryService`.
            False leaves the collector's totals out of
            ``stats["metrics"]``: the service passes its own
            long-lived collector (or a per-request one it merges into
            its own), so the query pays no snapshot.
        _checked: private to :class:`repro.service.QueryService`.  True
            says ``keywords`` and ``algorithm`` are the terms and the
            :class:`Algorithm` :func:`validated_terms` already returned
            for this ``k`` and semantics, so the search does not check
            them again.

    Returns:
        A :class:`SearchOutcome`; ``outcome.results`` are sorted by
        descending probability with document order breaking ties, and
        each result carries its ``label`` and, on access, its
        p-document ``node``.  See
        docs/OBSERVABILITY.md for the instrumented ``stats`` layout.
    """
    terms, algorithm = (list(keywords), algorithm) if _checked \
        else validated_terms(keywords, k, algorithm, semantics)
    if _is_query_service(source):
        # A prepared service carries its own caches and collector
        # defaults; delegate so callers can hold one handle for both
        # ad-hoc and batched traffic.
        return source.search(terms, k, algorithm=algorithm,
                             semantics=semantics, collector=collector,
                             sanitize=sanitize, deadline=deadline)
    # The engines take these canonical terms as given: the query is
    # normalised once, here (or by the service that checked it).
    if not terms:
        raise QueryError("keyword query contains no terms")
    deadline = as_deadline(deadline)
    if collector is None:
        collector = NULL_COLLECTOR
    if sanitize is None:
        sanitize = sanitize_from_env()
    sanitizer = Sanitizer(collector=collector) if sanitize \
        else NULL_SANITIZER
    index = _as_index(source)
    elca = semantics == "elca"

    _log.debug("topk_search: %s k=%d semantics=%s", algorithm.value, k,
               semantics)
    with collector.time("search.total"):
        if algorithm is Algorithm.PRSTACK:
            outcome = prstack_search(index, terms, k, elca=elca,
                                     collector=collector,
                                     sanitizer=sanitizer,
                                     caches=caches, deadline=deadline,
                                     _normalized=True)
        elif algorithm is Algorithm.EAGER:
            outcome = eager_topk_search(index, terms, k,
                                        collector=collector,
                                        sanitizer=sanitizer,
                                        caches=caches,
                                        deadline=deadline,
                                        _normalized=True)
        else:
            outcome = possible_worlds_search(index, terms, k,
                                             elca=elca,
                                             collector=collector)
    if sanitizer.enabled:
        _crosscheck_bounds(sanitizer, index, terms, outcome)
        outcome.stats["sanitizer"] = sanitizer.summary()
    if collector.enabled and _attach_metrics:
        outcome.stats["metrics"] = collector.snapshot()
    return outcome


def _crosscheck_bounds(sanitizer: Sanitizer, index: InvertedIndex,
                       keywords: Iterable[str],
                       outcome: SearchOutcome) -> None:
    """Post-run soundness proof for EagerTopK's pruning (sanitize mode).

    Whenever the sanitized query recorded Property 1-5 bound
    evaluations and the input is small enough, re-run the query through
    PrStack with an unbounded k and assert every recorded bound
    dominates the corresponding exact SLCA probability
    (:meth:`repro.analysis.Sanitizer.verify_bounds`).  Skipped — with a
    stats note — on large inputs, where the exhaustive pass would
    dwarf the search itself.
    """
    if not sanitizer.bounds_recorded:
        return
    entries = outcome.stats.get("match_entries", 0)
    if entries > EXACT_CHECK_MAX_ENTRIES:
        outcome.stats["sanitizer_bound_check"] = "skipped_large_input"
        _log.debug("sanitize: bound cross-check skipped (%d match "
                   "entries > %d)", entries, EXACT_CHECK_MAX_ENTRIES)
        return
    exhaustive = _scan(index, keywords, TopKHeap(math.inf))
    exact = {result.code: result.probability
             for result in exhaustive.results}
    sanitizer.verify_bounds(exact)
    outcome.stats["sanitizer_bound_check"] = "verified"


def _coerce_algorithm(algorithm: Union[Algorithm, str]) -> Algorithm:
    """Accept an :class:`Algorithm` (returned as it is) or its
    (case-insensitive) string value; reject anything else with a
    :class:`QueryError` naming the valid choices."""
    if isinstance(algorithm, Algorithm):
        return algorithm
    try:
        return Algorithm(algorithm)
    except ValueError:
        if isinstance(algorithm, str):
            try:
                return Algorithm(algorithm.lower())
            # Deliberately swallowed: the shared QueryError below names
            # every valid choice for both failure paths.
            except ValueError:  # repro: ignore[R006] handled below
                pass
        names = ", ".join(choice.value for choice in Algorithm)
        raise QueryError(
            f"unknown algorithm {algorithm!r}; choose one of: {names}"
        ) from None


def _is_query_service(source: object) -> bool:
    """Whether ``source`` is a :class:`repro.service.QueryService`.

    Imported lazily: the service layer sits *above* this module (it
    calls back into the algorithm dispatch), so a top-level import
    would be circular.
    """
    from repro.service.service import QueryService
    return isinstance(source, QueryService)


def _as_index(source: Source) -> InvertedIndex:
    if isinstance(source, InvertedIndex):
        return source
    if isinstance(source, Database):
        return source.index
    if isinstance(source, PDocument):
        return Database.from_document(source).index
    raise QueryError(
        f"unsupported search source type: {type(source).__name__}")

