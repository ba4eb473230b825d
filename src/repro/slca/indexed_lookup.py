"""Indexed Lookup Eager SLCA over node-id posting lists.

The classical algorithm of Xu & Papakonstantinou (SIGMOD 2005, paper
reference [12]) that EagerTopK uses as ``get_slca``: iterate the
shortest keyword list; for every node ``v`` in it, look up (by binary
search) the closest match in each other list and keep the deepest LCA;
the surviving candidates, minus ancestors, are the SLCAs.

Node ids are preorder positions, so the postings arrays of the
inverted index are already in document order and are bisected by id
directly.  A candidate moves to an LCA through the encoded document's
positions -> id map, and the answers are the document's own codes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence

from repro.encoding.dewey import DeweyCode, common_prefix_length
from repro.encoding.encoder import EncodedDocument
from repro.slca.base import remove_ancestors


def indexed_lookup_eager(encoded: EncodedDocument,
                         keyword_lists: Sequence[Sequence[int]]
                         ) -> List[DeweyCode]:
    """SLCA codes for the query whose i-th list holds keyword i's
    matching node ids.

    Lists must be in document (ascending id) order, as inverted-index
    postings are.  Returns the empty list when any keyword has no match.
    """
    if not keyword_lists or not all(keyword_lists):
        return []
    codes = encoded.codes
    if len(keyword_lists) == 1:
        # Single-keyword query: every match is an LCA of itself; SLCAs
        # are the matches without matching descendants.
        return remove_ancestors([codes[node_id]
                                 for node_id in keyword_lists[0]])

    ordered = sorted(keyword_lists, key=len)
    shortest, rest = ordered[0], ordered[1:]
    # The deepest LCA of a candidate with any match of a list is reached
    # by one of the two matches adjacent to it in document order, so two
    # binary-searched probes per list suffice (the "lm" lookup of [12]).
    candidates = set()
    for candidate in shortest:
        code = codes[candidate]
        for ids in rest:
            probe = bisect_left(ids, candidate)
            depth = 0
            if probe:
                depth = common_prefix_length(code, codes[ids[probe - 1]])
            if probe < len(ids):
                depth = max(depth,
                            common_prefix_length(code, codes[ids[probe]]))
            if depth == 0:
                break
            if depth < len(code.positions):
                candidate = encoded.id_at(code.positions[:depth])
                code = codes[candidate]
        else:
            candidates.add(candidate)
    return remove_ancestors([codes[node_id]
                             for node_id in sorted(candidates)])
