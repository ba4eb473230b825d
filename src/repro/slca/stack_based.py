"""Stack-based SLCA over the match columns (XRANK-style).

One pass over the match entries in document order with a stack of path
components; each frame accumulates the keyword mask of its subtree.
When a frame pops with a full mask and no full-mask child, its node is
an SLCA.  This mirrors PrStack's control flow minus probabilities and is
the reference the other deterministic algorithms are cross-checked
against in tests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.encoding.dewey import DeweyCode, common_prefix_length
from repro.encoding.encoder import EncodedDocument


def stack_based_slca(encoded: EncodedDocument, ids: Sequence[int],
                     masks: Sequence[int], keyword_count: int
                     ) -> List[DeweyCode]:
    """SLCA codes from document-ordered match columns.

    Args:
        encoded: the document the node ids belong to.
        ids, masks: one entry per matching node, document order, masks
            OR'd (:func:`repro.index.matchlist.build_match_entries`).
        keyword_count: number of query keywords (defines the full mask).
    """
    full = (1 << keyword_count) - 1
    if full == 0 or not ids:
        return []
    codes = encoded.codes

    answers: List[DeweyCode] = []
    # Each frame: [subtree mask, child-had-full flag]; frame i describes
    # the node at code prefix length i+1 of the current path.
    frames: List[List[object]] = []
    current: DeweyCode = codes[ids[0]]

    def pop_to(keep: int) -> None:
        nonlocal current
        while len(frames) > keep:
            mask, child_full = frames.pop()
            node_code = current.prefix(len(frames) + 1)
            if mask == full and not child_full:
                answers.append(node_code)
            if frames:
                frames[-1][0] |= mask
                if mask == full:
                    frames[-1][1] = True
        if keep:
            current = current.prefix(keep)

    for node_id, mask in zip(ids, masks):
        code = codes[node_id]
        shared = common_prefix_length(current, code) if frames else 0
        pop_to(shared)
        current = code
        while len(frames) < len(code):
            frames.append([0, False])
        frames[-1][0] |= mask
    pop_to(0)
    return sorted(answers)
