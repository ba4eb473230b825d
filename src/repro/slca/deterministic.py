"""SLCA computation on deterministic instance trees.

Used by the possible-world baseline: for each world the paper's
Equation 1 needs the set of SLCA nodes of that world, which we compute
with one postorder pass propagating keyword bitmasks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.index.tokenizer import tokenize

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.prxml.possible_worlds import DetNode


def keyword_mask_of_det_node(node: DetNode, terms: Sequence[str]) -> int:
    """Bitmask of the query terms the node itself matches (tag or text)."""
    own = set(tokenize(node.label))
    if node.text:
        own.update(tokenize(node.text))
    mask = 0
    for bit, term in enumerate(terms):
        if term in own:
            mask |= 1 << bit
    return mask


def elca_of_world(root: DetNode, terms: Sequence[str]) -> List[DetNode]:
    """ELCA nodes of one instance document for the given terms.

    Exclusive-LCA semantics (after Xu & Papakonstantinou, EDBT 2008,
    the paper's reference [23]) in its consume-recursion form: walk
    bottom-up accumulating *effective* keyword masks; a node whose
    effective mask covers every term is an answer, and its mask resets
    to zero so the consumed occurrences do not witness any ancestor.
    Unlike SLCA, an ancestor of an answer can still be an answer from
    its remaining occurrences.
    """
    full = (1 << len(terms)) - 1
    if full == 0:
        return []
    effective_mask: Dict[int, int] = {}
    answers: List[DetNode] = []

    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        mask = keyword_mask_of_det_node(node, terms)
        for child in node.children:
            mask |= effective_mask[id(child)]
        if mask == full:
            answers.append(node)
            mask = 0
        effective_mask[id(node)] = mask
    return answers


def slca_of_world(root: DetNode, terms: Sequence[str]) -> List[DetNode]:
    """SLCA nodes of one instance document for the given terms.

    A node is an SLCA iff its subtree mask covers every term and no
    child subtree does.  Runs in one iterative postorder pass.
    """
    full = (1 << len(terms)) - 1
    if full == 0:
        return []
    subtree_mask: Dict[int, int] = {}
    answers: List[DetNode] = []

    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        mask = keyword_mask_of_det_node(node, terms)
        child_has_all = False
        for child in node.children:
            child_mask = subtree_mask[id(child)]
            mask |= child_mask
            if child_mask == full:
                child_has_all = True
        subtree_mask[id(node)] = mask
        if mask == full and not child_has_all:
            answers.append(node)
    return answers
