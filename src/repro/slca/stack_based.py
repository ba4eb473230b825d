"""Stack-based SLCA over the match columns (XRANK-style).

One pass over the match entries in document order with a stack of path
frames; each frame accumulates the keyword mask of its subtree.  When a
frame pops with a full mask and no full-mask child, its node is an
SLCA.  This mirrors PrStack's control flow minus probabilities — frames
pop when the next entry lies past their subtree end and are pushed by
walking the parent column — and is the reference the other
deterministic algorithms are cross-checked against in tests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.encoding.encoder import EncodedDocument


def stack_based_slca(encoded: EncodedDocument, ids: Sequence[int],
                     masks: Sequence[int], keyword_count: int
                     ) -> List[int]:
    """SLCA node ids, in document order, from match columns.

    Args:
        encoded: the document the node ids belong to.
        ids, masks: one entry per matching node, document order, masks
            OR'd (:func:`repro.index.matchlist.build_match_entries`).
        keyword_count: number of query keywords (defines the full mask).
    """
    full = (1 << keyword_count) - 1
    if full == 0 or not ids:
        return []
    ends, parents = encoded.ends, encoded.parents

    answers: List[int] = []
    # Each frame: [node id, subtree mask, child-had-full flag], root
    # first, along the current entry's root path.
    frames: List[List[int]] = []

    def pop() -> None:
        node, mask, child_full = frames.pop()
        if mask == full and not child_full:
            answers.append(node)
        if frames:
            frames[-1][1] |= mask
            if mask == full:
                frames[-1][2] = True

    for node, mask in zip(ids, masks):
        while frames and ends[frames[-1][0]] <= node:
            pop()
        top = frames[-1][0] if frames else -1
        path = []
        ancestor = node
        while ancestor != top:
            path.append(ancestor)
            ancestor = parents[ancestor]
        frames.extend([member, 0, False] for member in reversed(path))
        frames[-1][1] |= mask
    while frames:
        pop()
    return sorted(answers)
