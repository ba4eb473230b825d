"""Indexed Lookup Eager SLCA over node-id posting lists.

The classical algorithm of Xu & Papakonstantinou (SIGMOD 2005, paper
reference [12]) that EagerTopK uses as ``get_slca``: iterate the
shortest keyword list; for every node ``v`` in it, look up (by binary
search) the closest match in each other list and keep the deepest LCA;
the surviving candidates, minus ancestors, are the SLCAs.

Node ids are preorder positions, so the postings arrays of the
inverted index are already in document order and are bisected by id
directly.  A candidate climbs to an LCA through the encoded document's
parent column, and a node's subtree is the id range ``[id, ends[id])``,
so the answers are node ids and no Dewey code is built.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Sequence

from repro.encoding.encoder import EncodedDocument


def indexed_lookup_eager(encoded: EncodedDocument,
                         keyword_lists: Sequence[Sequence[int]]
                         ) -> List[int]:
    """SLCA node ids, in document order, for the query whose i-th list
    holds keyword i's matching node ids.

    Lists must be in document (ascending id) order, as inverted-index
    postings are.  Returns the empty list when any keyword has no match.
    """
    if not keyword_lists or not all(keyword_lists):
        return []
    ends = encoded.ends
    if len(keyword_lists) == 1:
        # Single-keyword query: every match is an LCA of itself; SLCAs
        # are the matches without matching descendants.
        return _lowest_nodes(keyword_lists[0], ends)

    parents = encoded.parents
    beyond = len(ends)
    ordered = sorted(keyword_lists, key=len)
    shortest, rest = ordered[0], ordered[1:]
    # The deepest LCA of a candidate with any match of a list is reached
    # by one of the two matches adjacent to it in document order, so two
    # binary-searched probes per list suffice (the "lm" lookup of [12]):
    # climb from the candidate to its first ancestor-or-self containing
    # either neighbour.
    candidates = set()
    for candidate in shortest:
        for ids in rest:
            probe = bisect_left(ids, candidate)
            before = ids[probe - 1] if probe else -1
            after = ids[probe] if probe < len(ids) else beyond
            while candidate > before and ends[candidate] <= after:
                candidate = parents[candidate]
        candidates.add(candidate)
    return _lowest_nodes(sorted(candidates), ends)


def _lowest_nodes(ids: Iterable[int], ends: Sequence[int]) -> List[int]:
    """The ids without a descendant among ``ids`` (strictly increasing
    node ids; ``ends`` is the subtree end column).  An ancestor precedes
    its descendants, so comparing with the last kept id suffices."""
    kept: List[int] = []
    for node in ids:
        if kept and node < ends[kept[-1]]:
            kept.pop()
        kept.append(node)
    return kept
