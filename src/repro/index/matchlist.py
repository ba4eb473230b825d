"""Match-list machinery shared by the search algorithms.

Both algorithms consume *match columns*: two parallel columns over the
distinct nodes that match at least one query term, in document order —
the nodes' preorder ids (an ``array('q')``, like the postings) and
their keyword bitmasks (bit ``i`` set means keyword ``i`` present — the
binary representation of Section III-B).  The stack engine reads
everything else about a node from the :class:`EncodedDocument`'s
columns by id; no per-entry object is built.

:class:`MatchList` adds the bookkeeping EagerTopK needs: subtree ranges
(a node's subtree is the id range ``[id, ends[id])``, binary-searched
in the id column) and consumption flags, so a candidate can "access and
remove the relevant keyword nodes" (Section IV-B) in logarithmic +
output time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

from repro.encoding.encoder import EncodedDocument
from repro.index.cache import NULL_CACHES
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import NULL_COLLECTOR

#: ``(node ids, keyword masks)``: the match columns of one query.
MatchColumns = Tuple[array, List[int]]


def build_match_entries(index: InvertedIndex, terms: Sequence[str],
                        collector=NULL_COLLECTOR, caches=NULL_CACHES
                        ) -> MatchColumns:
    """Merge per-term postings into the per-node match columns.

    ``terms`` are normalised query terms (:meth:`InvertedIndex.
    query_terms`); term ``i`` owns mask bit ``i``.  A node matched by
    several terms appears once with the OR of its bits — this
    implements the "if v' is not promoted ... " duplicate handling of
    Algorithm 1 up front.  AND semantics: when some term has no
    postings no node can be an answer, so the columns come back empty
    without being merged or cached.

    ``collector`` times the merge and counts the produced entries on
    top of the ``index.*`` lookup metrics.

    ``caches`` (a :class:`repro.index.cache.QueryCaches`) memoises the
    columns per term tuple: two queries over the same term set share
    one physical pair, which callers must treat as immutable.  Masks
    depend on term *order*, so the cache key is the ordered tuple —
    canonicalise keyword order upstream (as
    :class:`repro.service.QueryService` does) to maximise reuse.
    """
    key = tuple(terms)
    if caches.enabled:
        cached = caches.match_entries.get(key)
        if cached is not None:
            if collector.enabled:
                collector.count("index.match_entries", len(cached[0]))
                collector.mark("cache.match_entries.hits")
            return cached
    postings = index.keyword_lists(terms, collector=collector)
    if not all(postings):
        return array("q"), []
    with collector.time("index.merge_entries"):
        merged: Dict[int, int] = {}
        for bit, term_ids in enumerate(postings):
            flag = 1 << bit
            for node_id in term_ids:
                merged[node_id] = merged.get(node_id, 0) | flag
        order = sorted(merged)
        ids = array("q", order)
        masks = [merged[node_id] for node_id in order]
    columns = (ids, masks)
    if collector.enabled:
        collector.count("index.match_entries", len(ids))
    if caches.enabled:
        caches.match_entries.put(key, columns)
        if collector.enabled:
            collector.mark("cache.match_entries.misses")
    return columns


def keyword_code_lists(index: InvertedIndex, terms: Sequence[str]
                       ) -> List[array]:
    """Per-term postings of normalised ``terms``: the document-ordered
    node-id lists the deterministic SLCA algorithms of [12] — the seed
    lookup of EagerTopK — take.  They are the index's own arrays;
    treat them as immutable."""
    return [index.postings(term) for term in terms]


class MatchList:
    """Document-ordered match columns with consumption tracking.

    EagerTopK processes candidates out of document order; every time a
    candidate's subtree is evaluated, the entries inside it are consumed
    so an ancestor evaluated later only sweeps what is left.  Entries
    are addressed by their column position.
    """

    def __init__(self, encoded: EncodedDocument, ids: array,
                 masks: List[int]):
        self.encoded = encoded
        self.ids = ids
        self.masks = masks
        self._consumed = bytearray(len(ids))
        self._remaining = len(ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def remaining(self) -> int:
        """How many entries are still unconsumed."""
        return self._remaining

    def subtree_slice(self, node: int) -> Tuple[int, int]:
        """Column range ``[lo, hi)`` of the entries in ``node``'s
        subtree, the id range ``[node, ends[node])``."""
        ids = self.ids
        lo = bisect_left(ids, node)
        return lo, bisect_left(ids, self.encoded.ends[node], lo)

    def consume_subtree(self, node: int) -> List[int]:
        """Mark consumed and return (as column positions, in document
        order) the unconsumed entries under ``node``."""
        lo, hi = self.subtree_slice(node)
        consumed = self._consumed
        taken = [position for position in range(lo, hi)
                 if not consumed[position]]
        consumed[lo:hi] = b"\x01" * (hi - lo)
        self._remaining -= len(taken)
        return taken
