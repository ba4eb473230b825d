"""EagerTopK (Algorithm 2): bound-driven top-k probabilistic SLCA search.

The algorithm seeds from the *traditional* SLCAs of the query — computed
by Indexed Lookup Eager [12] over the Dewey lists with node types and
probabilities ignored.  Those seeds are exactly the lowest nodes whose
subtrees can ever contain all keywords (possible worlds only remove
nodes), so the true probabilistic answers are the seeds and their
ancestors, and every ancestor of a seed is visited as a *candidate*
while climbing towards the root.

Evaluating a candidate turns its subtree into a finished *region*: the
shared stack engine sweeps the unconsumed match entries plus previously
finished regions inside it (the paper's ``ComputeSLCAProbability``),
harvesting every SLCA answer on the way.  All finished regions live in
one sorted, pairwise-incomparable registry — the single source of truth
for bound computation — where an evaluated ancestor *collapses* the
regions it covers (the exact form of the paper's Property 3 "tricky
step").

The climb always expands the candidate with the highest potential
(``UBMap``) and prunes with two sound bounds (see
:mod:`repro.core.bounds`, which documents the correction to the paper's
printed Properties 1-3):

* the **path bound** kills a candidate and its whole root path
  (``DeleteSet``) when even the combined SLCA mass of that path cannot
  reach the current k-th probability;
* the **node bound** *suspends* a candidate that cannot itself reach
  the top-k — its subtree stays unswept and only its parent keeps
  climbing, so the work is deferred and often avoided entirely.  A
  distributional (IND/MUX/EXP) candidate or seed is never an answer:
  its node bound is 0, so it is always suspended.

Bound comparisons are strict (<) so that document-order ties at the k
boundary resolve identically to PrStack: both algorithms return exactly
the same answer set.

Candidates, seeds, regions and the DeleteSet are preorder node ids: an
ancestor test is an id range check against the subtree end column, a
subtree's regions or match entries are one id-range slice, and a
node's path probability is read from the path column.  Dewey codes are
built only for the answers (and for event spans).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER, SanitizerLike
from repro.core.bounds import RegionBound, candidate_bounds
from repro.core.distribution import DistTable
from repro.core.engine import StackEngine
from repro.core.heap import TopKHeap
from repro.core.result import SearchOutcome, ranked_results
from repro.encoding.encoder import EncodedDocument
from repro.exceptions import ReproError
from repro.index.cache import CachesLike, NULL_CACHES
from repro.index.inverted import InvertedIndex
from repro.index.matchlist import (MatchList, build_match_entries,
                                   keyword_code_lists)
from repro.obs.logging import get_logger
from repro.obs.metrics import (Collector, EngineMetrics, MetricsBuffer,
                               NULL_COLLECTOR)
from repro.prxml.model import NodeType
from repro.resilience.deadline import DeadlineLike, NULL_DEADLINE
from repro.slca.indexed_lookup import indexed_lookup_eager

_log = get_logger("core.eager")


class _Region:
    """A fully evaluated subtree: its table and coverage numbers.

    Two coverage probabilities matter for bounds (both conditioned on
    the region's root existing):

    * ``harvested`` — some *ordinary* node inside the region covers all
      keywords (the table's ``lost`` mass).  Such a node is a real node
      of every possible world it covers in, so it forbids every
      ancestor from being an SLCA.
    * ``all_cover`` — the subtree covers all keywords at all, including
      the surviving full-mask mass at a distributional region root.
      That surviving mass does *not* by itself forbid ancestors (the
      distributional node vanishes and its children splice upward), but
      it is harvested by — and therefore forbids everything above — the
      first ordinary node on the way up.
    """

    __slots__ = ("node", "table", "path_prob", "harvested", "all_cover")

    def __init__(self, node: int, table: DistTable, path_prob: float,
                 full_mask: int):
        self.node = node
        self.table = table
        self.path_prob = path_prob
        self.harvested = table.lost
        self.all_cover = table.all_probability(full_mask)

    def bound_for(self, candidate: int, candidate_path_prob: float,
                  encoded: EncodedDocument) -> RegionBound:
        """This region's contribution to a candidate-ancestor's bounds.

        The exclusion probability is ``harvested``, upgraded to
        ``all_cover`` when an ordinary node lies strictly between the
        region and the candidate — that node harvests the surviving
        full mass, which then forbids the candidate and its path.  The
        region's group is the candidate's child on the way up.
        """
        parents, kinds = encoded.parents, encoded.kinds
        exclusion = self.harvested
        child = self.node
        between = parents[child]
        while between != candidate:
            if kinds[between] is NodeType.ORDINARY:
                exclusion = self.all_cover
            child = between
            between = parents[between]
        cover = exclusion * (self.path_prob / candidate_path_prob)
        return RegionBound(child, cover)


class _RegionRegistry:
    """Sorted registry of pairwise-incomparable finished regions.

    Regions are kept in document (node id) order, so the regions inside
    any subtree form one contiguous slice, found by binary search over
    the subtree's id range.  Adding a region collapses (removes) every
    region it covers.
    """

    def __init__(self, ends: Sequence[int]):
        self._ends = ends
        self._nodes: List[int] = []
        self._regions: List[_Region] = []

    def __len__(self) -> int:
        return len(self._regions)

    def _slice(self, node: int) -> Tuple[int, int]:
        lo = bisect_left(self._nodes, node)
        hi = bisect_left(self._nodes, self._ends[node], lo)
        return lo, hi

    def add(self, region: _Region) -> None:
        """Insert, collapsing the regions the newcomer covers."""
        lo, hi = self._slice(region.node)
        self._nodes[lo:hi] = [region.node]
        self._regions[lo:hi] = [region]

    def under(self, node: int) -> List[_Region]:
        """Regions whose root lies in ``node``'s subtree (incl. itself)."""
        lo, hi = self._slice(node)
        return self._regions[lo:hi]


def eager_topk_search(index: InvertedIndex, keywords: Iterable[str],
                      k: int = 10, use_path_bounds: bool = True,
                      use_node_bounds: bool = True,
                      exact_ties: bool = True,
                      collector: Collector = NULL_COLLECTOR,
                      sanitizer: SanitizerLike = NULL_SANITIZER,
                      caches: CachesLike = NULL_CACHES,
                      deadline: DeadlineLike = NULL_DEADLINE,
                      *, _normalized: bool = False
                      ) -> SearchOutcome:
    """Top-k SLCA answers by probability, with eager bound pruning.

    Same contract and identical answers as
    :func:`repro.core.prstack.prstack_search`; usually faster because
    high-probability candidates surface early and the bound machinery
    skips low-probability regions without ever sweeping them.

    Args:
        use_path_bounds: disable DeleteSet path pruning (ablation).
        use_node_bounds: disable candidate suspension (ablation).
        exact_ties: with the default True, probability ties at the k
            boundary resolve by document order exactly like PrStack —
            which requires evaluating every document-earlier candidate
            whose bound *equals* the k-th probability, so workloads
            with large tie plateaus (siblings sharing one injected
            ancestor edge) degrade towards a full scan.  False prunes
            at equality like the paper's Algorithm 2: faster there, but
            the returned tie subset is arbitrary (probabilities are
            still exact and identical as a multiset).
        collector: metrics collector receiving the ``eager.*`` /
            ``engine.*`` / ``heap.*`` operation counts, bound
            histograms and (when it carries a span tracer) the
            candidate-by-candidate events as spans
            (docs/OBSERVABILITY.md); the default no-op records
            nothing.
        sanitizer: runtime invariant checker (sanitize mode,
            docs/ANALYSIS.md); additionally records every Property 1-5
            bound evaluation so :func:`repro.core.api.topk_search` can
            cross-check them against exact probabilities afterwards.
            The default no-op checks nothing.
        caches: shared :class:`repro.index.cache.QueryCaches` reusing
            match columns across queries on the same index
            (docs/SERVICE.md); the default reuses nothing.
        deadline: per-query budget (docs/RESILIENCE.md), polled once
            per candidate (seed or climbed ancestor).  On expiry the
            climb stops and the k-heap comes back as a partial
            outcome — the paper's algorithm is naturally *anytime*:
            every harvested probability is already exact for its node,
            so the partial heap is a rank-wise lower bound of the
            converged answer.  The default never expires.
        _normalized: internal — ``keywords`` are already the index's
            normalised query terms (:func:`repro.core.api.topk_search`
            validated them), so they are not normalised again.
    """
    terms = list(keywords) if _normalized else index.query_terms(keywords)
    search = _EagerSearch(index, terms, k, use_path_bounds,
                          use_node_bounds, exact_ties, collector,
                          sanitizer, caches, deadline)
    return search.run()


class _EagerSearch:
    """One EagerTopK execution (state is per query)."""

    def __init__(self, index: InvertedIndex, terms: List[str],
                 k: int, use_path_bounds: bool, use_node_bounds: bool,
                 exact_ties: bool = True,
                 collector: Collector = NULL_COLLECTOR,
                 sanitizer: SanitizerLike = NULL_SANITIZER,
                 caches: CachesLike = NULL_CACHES,
                 deadline: DeadlineLike = NULL_DEADLINE):
        self.index = index
        self.encoded = index.encoded
        self.terms = terms
        self.collector = collector
        # The eager.*, engine.* and heap.* metrics are staged in a
        # lock-free buffer and folded into the collector once, when the
        # query ends; timers and span marks go to the collector.  A
        # collector that is a buffer already (a corpus visit's stage)
        # takes them itself, and its owner folds it.
        self.metrics: EngineMetrics = collector
        if collector.enabled and not isinstance(collector, MetricsBuffer):
            self.metrics = MetricsBuffer(collector)
        self.sanitizer = sanitizer
        self.caches = caches
        self.deadline = deadline
        self.heap = TopKHeap(k, collector=self.metrics,
                             sanitizer=sanitizer)
        self.use_path_bounds = use_path_bounds
        self.use_node_bounds = use_node_bounds
        self.exact_ties = exact_ties
        self.regions = _RegionRegistry(self.encoded.ends)
        # UBMap: the open candidates.  The dict is the source of truth;
        # the heap orders them by the node potential computed when they
        # were inserted (lazy priorities: a stale entry is skipped at
        # pop time if its candidate is gone, and pruning never relies
        # on the ordering, only on bounds recomputed at pop).
        self.candidates: Dict[int, None] = {}
        self._queue: List[Tuple[float, int, int]] = []
        # DeleteSet: nodes whose whole root path is out of the top-k.
        self.delete_list: List[int] = []
        self.full_mask = 0
        self.matches: Optional[MatchList] = None
        self.stats = {
            "algorithm": "eager_topk",
            "seeds": 0,
            "candidates_processed": 0,
            "candidates_suspended": 0,
            "candidates_pruned": 0,
            "entries_consumed": 0,
            "results_emitted": 0,
            # Pruning decisions attributed to the sound forms of the
            # paper's properties (repro.core.bounds): the path bound is
            # Properties 1-3, the node bound Properties 4-5.
            "pruning": {
                "path_bound_properties_1_3": 0,
                "node_bound_properties_4_5": 0,
                "dead_path_skips": 0,
                "bound_evaluations": 0,
            },
        }

    # -- top level ----------------------------------------------------------

    def run(self) -> SearchOutcome:
        """Execute the search: seeds, climb, pruned evaluation.  The
        buffered metrics reach the collector however the search ends."""
        try:
            return self._search()
        finally:
            if isinstance(self.metrics, MetricsBuffer) \
                    and self.metrics is not self.collector:
                self.metrics.flush()

    def _search(self) -> SearchOutcome:
        collector = self.collector
        index = self.index
        terms = self.terms
        ids, masks = build_match_entries(index, terms, collector=collector,
                                         caches=self.caches)
        self.stats["terms"] = len(terms)
        self.stats["match_entries"] = len(ids)
        if not ids:
            _log.debug("eager: a term has no postings; zero answers")
            return SearchOutcome(stats=self.stats)
        self.full_mask = (1 << len(terms)) - 1
        encoded = self.encoded
        self.matches = MatchList(encoded, ids, masks)

        with collector.time("eager.seed"):
            seeds = indexed_lookup_eager(
                encoded, keyword_code_lists(index, terms))
        self.stats["seeds"] = len(seeds)
        metrics = self.metrics
        if collector.enabled:
            metrics.count("eager.seeds", len(seeds))
            collector.mark("seeds", len(seeds))
            collector.mark("match_entries",
                           self.stats["match_entries"])
        # Most promising seeds first: their results fill the heap early,
        # so later seeds that cannot beat the k-th probability (a seed's
        # answer is capped by its path probability) are suspended
        # without ever sweeping their subtrees.
        paths, kinds = encoded.paths, encoded.kinds
        seeds.sort(key=lambda node: (-paths[node], node))
        deadline = self.deadline
        with collector.time("eager.climb"):
            for seed in seeds:
                if deadline.enabled and deadline.expired():
                    return self._partial_outcome()
                # A seed's own answer is capped by its path probability;
                # a distributional seed is no answer at all.
                seed_cap = paths[seed] if kinds[seed] is NodeType.ORDINARY \
                    else 0.0
                if self.use_node_bounds and not self._worth_scoring(
                        seed, seed_cap):
                    self._record_suspension(seed, seed_cap)
                    self._add_parent_candidate(seed)
                    continue
                self._process(seed)

            while self.candidates:
                if deadline.enabled and deadline.expired():
                    return self._partial_outcome()
                node = self._pop_most_promising()
                if self._is_dead(node):
                    self.stats["pruning"]["dead_path_skips"] += 1
                    if metrics.enabled:
                        metrics.count("eager.dead_path_skips")
                    continue
                path_bound, node_bound = self._bounds(node)
                if self.use_path_bounds and self._path_prunable(path_bound):
                    self.delete_list.append(node)
                    self.stats["candidates_pruned"] += 1
                    self.stats["pruning"]["path_bound_properties_1_3"] += 1
                    if metrics.enabled:
                        metrics.count("eager.pruned_path_bound")
                        if metrics.tracer is not None:
                            metrics.event(
                                "eager.prune_path",
                                code=str(encoded.code(node)),
                                bound=round(path_bound, 9),
                                threshold=round(self.heap.threshold, 9))
                    continue
                if (self.use_node_bounds
                        and not self._worth_scoring(node, node_bound)):
                    # The candidate itself cannot score (in exact-ties
                    # mode: even a boundary tie loses the document-order
                    # tiebreak): defer its subtree and keep climbing.
                    self._record_suspension(node, node_bound)
                    self._add_parent_candidate(node)
                    continue
                self._process(node)

        self._summarise_termination()
        return SearchOutcome(
            results=ranked_results(self.encoded, self.heap.ranked()),
            stats=self.stats)

    def _partial_outcome(self) -> SearchOutcome:
        """The anytime answer after a deadline cut mid-climb.

        The heap already holds exact probabilities for every node
        harvested so far (regions are only ever added *fully*
        evaluated), so the result set is returned as-is and marked
        partial; unvisited candidates and unswept match entries are
        simply abandoned.
        """
        self._summarise_termination()
        self.stats["deadline"] = self.deadline.summary()
        reason = self.deadline.reason
        metrics = self.metrics
        if metrics.enabled:
            metrics.count("resilience.deadline_expired")
            if metrics.tracer is not None:
                metrics.event("eager.deadline", reason=reason,
                                     open_candidates=len(self.candidates))
        _log.debug("eager: %s expired with %d candidates open; "
                   "returning partial heap", reason,
                   len(self.candidates))
        return SearchOutcome(
            results=ranked_results(self.encoded, self.heap.ranked()),
            stats=self.stats, partial=True, termination_reason=reason)

    def _summarise_termination(self) -> None:
        """Counters of how much work the search did (or skipped) —
        shared by converged and deadline-cut exits."""
        metrics = self.metrics
        self.stats["entries_unconsumed"] = self.matches.remaining
        self.stats["regions_final"] = len(self.regions)
        self.stats["heap_threshold_final"] = self.heap.threshold
        if metrics.enabled:
            metrics.count("eager.entries_unconsumed",
                            self.matches.remaining)
        if _log.isEnabledFor(10):  # logging.DEBUG
            _log.debug(
                "eager: %d seeds, %d processed, %d suspended, %d path-"
                "pruned, %d/%d entries swept", self.stats["seeds"],
                self.stats["candidates_processed"],
                self.stats["candidates_suspended"],
                self.stats["candidates_pruned"],
                self.stats["entries_consumed"],
                self.stats["match_entries"])

    def _record_suspension(self, node: int, bound: float) -> None:
        """Book-keep one node-bound suspension (sound Properties 4-5)."""
        self.stats["candidates_suspended"] += 1
        self.stats["pruning"]["node_bound_properties_4_5"] += 1
        metrics = self.metrics
        if metrics.enabled:
            metrics.count("eager.suspended_node_bound")
            if metrics.tracer is not None:
                metrics.event("eager.suspend",
                                code=str(self.encoded.code(node)),
                                bound=round(bound, 9),
                                threshold=round(self.heap.threshold, 9))

    # -- candidate selection ---------------------------------------------------

    def _pop_most_promising(self) -> int:
        """Highest node potential first, deeper on ties: deep candidates
        are cheap to evaluate and raise the pruning threshold early."""
        while self._queue:
            _, _, node = heapq.heappop(self._queue)
            if node in self.candidates:
                del self.candidates[node]
                return node
        # The queue and the candidate dict are kept in sync; reaching
        # here would mean a candidate was inserted without queueing.
        raise ReproError("candidate queue out of sync with UBMap")

    def _bounds(self, node: int) -> Tuple[float, float]:
        self.stats["pruning"]["bound_evaluations"] += 1
        metrics = self.metrics
        encoded = self.encoded
        path_prob = encoded.paths[node]
        bounds = candidate_bounds(
            encoded.kinds[node], path_prob,
            (region.bound_for(node, path_prob, encoded)
             for region in self.regions.under(node)))
        if metrics.enabled:
            metrics.count("eager.bound_evaluations")
            metrics.observe("eager.node_bound", bounds[1])
        if self.sanitizer.enabled:
            self.sanitizer.record_bound(encoded.code(node), bounds[0],
                                        bounds[1])
        return bounds

    def _worth_scoring(self, node: int, bound: float) -> bool:
        """Could a result of up to ``bound`` at ``node`` enter the heap?

        Exact-ties mode delegates to the heap's tie-aware acceptance
        test; the paper-faithful mode prunes at equality (Algorithm 2's
        "equal to or less than the k-th largest value").
        """
        if self.exact_ties:
            return self.heap.would_accept(node, bound)
        return bound > self.heap.threshold

    def _path_prunable(self, path_bound: float) -> bool:
        """Whether the whole root path is provably out of the top-k."""
        threshold = self.heap.threshold
        if self.exact_ties:
            return path_bound < threshold
        return len(self.heap) >= self.heap.k and path_bound <= threshold

    def _is_dead(self, node: int) -> bool:
        """Whether path pruning already killed this root path: a
        DeleteSet entry ``d`` rules out every node on the path
        root -> ``d``, so ``node`` is dead iff it is an
        ancestor-or-self of some deleted node (``d`` in its id
        range)."""
        end = self.encoded.ends[node]
        return any(node <= dead < end for dead in self.delete_list)

    def _add_parent_candidate(self, node: int) -> None:
        encoded = self.encoded
        parent = encoded.parents[node]
        if parent < 0:
            return  # the root has no parent
        if parent not in self.candidates and not self._is_dead(parent):
            self.candidates[parent] = None
            _, node_bound = self._bounds(parent)
            # Min-heap: negate the potential; deeper first on ties, then
            # document order for full determinism.
            heapq.heappush(self._queue,
                           (-node_bound, -encoded.depths[parent], parent))

    # -- candidate evaluation -----------------------------------------------------

    def _process(self, node: int) -> None:
        """ComputeSLCAProbability: sweep the candidate's subtree (left-over
        match entries plus finished regions inside it) through the stack
        engine, harvest answers, and continue the climb with the exact
        region that replaces everything swept."""
        metrics = self.metrics
        matches = self.matches
        taken = matches.consume_subtree(node)
        self.stats["entries_consumed"] += len(taken)
        inner_regions = self.regions.under(node)

        encoded = self.encoded
        engine = StackEngine(
            self.full_mask, self._sink, encoded,
            context_length=encoded.depths[node] - 1,
            collector=metrics, sanitizer=self.sanitizer)
        # One run: the taken entries with the inner regions merged in
        # (both are in document order and never share a node).
        ids, masks = matches.ids, matches.masks
        run = [ids[position] for position in taken]
        run_masks = [masks[position] for position in taken]
        presets = None
        if inner_regions:
            presets = {}
            for region in inner_regions:
                at = bisect_left(run, region.node)
                run.insert(at, region.node)
                run_masks.insert(at, 0)
                presets[region.node] = region.table
        engine.scan(run, run_masks, presets)
        table = engine.finish_candidate()
        self.stats["candidates_processed"] += 1
        if metrics.enabled:
            metrics.count("eager.candidates_processed")
            metrics.count("eager.entries_consumed", len(taken))
            metrics.count("eager.regions_collapsed", len(inner_regions))
            metrics.observe("eager.sweep_items",
                            len(taken) + len(inner_regions))
            if metrics.tracer is not None:
                metrics.event("eager.process",
                              code=str(encoded.code(node)),
                              entries=len(taken),
                              regions=len(inner_regions))

        # Candidates strictly inside the swept subtree are superseded:
        # their answers were just harvested and their regions collapsed.
        end = encoded.ends[node]
        for stale in [cand for cand in self.candidates
                      if node < cand < end]:
            del self.candidates[stale]

        self.regions.add(_Region(node, table, encoded.paths[node],
                                 self.full_mask))
        self._add_parent_candidate(node)

    def _sink(self, node: int, probability: float) -> None:
        self.stats["results_emitted"] += 1
        self.heap.offer(node, probability)
