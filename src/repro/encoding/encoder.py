"""Encoding a p-document: Dewey codes + probability links for every node.

:func:`encode_document` performs the single preorder pass the paper
sketches in Section III-A, producing an :class:`EncodedDocument` that
maps nodes to extended Dewey codes and PrLinks and back.  The encoded
document is the input to index construction and to both search
algorithms.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import EncodingError
from repro.encoding.dewey import DeweyCode
from repro.encoding.prlink import PrLink
from repro.prxml.model import PDocument, PNode


class EncodedDocument:
    """A p-document together with its Dewey/PrLink encoding.

    Attributes:
        document: the underlying :class:`PDocument`.
        codes: Dewey code per ``node_id`` (list indexed by id).
        links: PrLink per ``node_id`` (aligned with ``codes``).
    """

    def __init__(self, document: PDocument, codes: List[DeweyCode],
                 links: List[PrLink]):
        if not len(document) == len(codes) == len(links):
            raise EncodingError(
                "encoding arrays do not cover the document: "
                f"{len(document)} nodes, {len(codes)} codes, "
                f"{len(links)} links")
        self.document = document
        self.codes = codes
        self.links = links
        self._node_by_positions: Dict[Tuple[int, ...], int] = {
            code.positions: node_id for node_id, code in enumerate(codes)}

    # -- lookups --------------------------------------------------------------

    def code_of(self, node: PNode) -> DeweyCode:
        """Dewey code of a node of this document."""
        return self.codes[node.node_id]

    def link_of(self, node: PNode) -> PrLink:
        """Probability link (root-path edge probabilities) of a node."""
        return self.links[node.node_id]

    def id_at(self, positions: Tuple[int, ...]) -> int:
        """Preorder id of the node at a code's positions; raises for
        positions outside this document."""
        node_id = self._node_by_positions.get(positions)
        if node_id is None:
            raise EncodingError(
                f"no node at positions {'.'.join(map(str, positions))}")
        return node_id

    def node_at(self, code: DeweyCode) -> PNode:
        """The p-node a code denotes; raises for foreign codes."""
        return self.document.node_by_id(self.id_at(code.positions))

    def subtree_end(self, code: DeweyCode) -> int:
        """One past the last preorder id in ``code``'s subtree: the id of
        the first node after the subtree in document order (the next
        sibling of the deepest ancestor-or-self that has one), or the
        node count when the subtree runs to the end."""
        positions = code.positions
        ids = self._node_by_positions
        for depth in range(len(positions), 0, -1):
            following = ids.get(
                positions[:depth - 1] + (positions[depth - 1] + 1,))
            if following is not None:
                return following
        return len(self.codes)

    def has_code(self, code: DeweyCode) -> bool:
        """Whether a code denotes a node of this document."""
        return code.positions in self._node_by_positions

    def exp_subsets_at(self, code: DeweyCode):
        """Subset distribution of the EXP node at ``code`` (the
        ``exp_resolver`` the stack engine needs on EXP documents)."""
        return self.node_at(code).exp_subsets or []

    def path_probability(self, code: DeweyCode) -> float:
        """``Pr(path_root->v)`` for the node at ``code``."""
        node = self.node_at(code)
        link = self.links[node.node_id]
        probability = 1.0
        for edge_probability in link:
            probability *= edge_probability
        return probability

    def iter_codes(self) -> Iterator[DeweyCode]:
        """All codes in document (preorder) order."""
        return iter(self.codes)

    def __len__(self) -> int:
        return len(self.document)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedDocument(nodes={len(self.document)})"


def encode_document(document: PDocument) -> EncodedDocument:
    """Assign extended Dewey codes and PrLinks in one preorder pass."""
    count = len(document)
    codes: List[Optional[DeweyCode]] = [None] * count
    links: List[Optional[PrLink]] = [None] * count

    root = document.root
    codes[root.node_id] = DeweyCode.root()
    links[root.node_id] = (1.0,)

    # Iterative preorder so deep documents cannot overflow the stack.
    stack: List[PNode] = [root]
    while stack:
        node = stack.pop()
        code = codes[node.node_id]
        link = links[node.node_id]
        for position, child in enumerate(node.children, start=1):
            if not 0 <= child.node_id < count \
                    or codes[child.node_id] is not None:
                raise EncodingError(
                    f"node {child.label!r} has stale id {child.node_id}; "
                    "call PDocument.refresh() after mutating the tree")
            codes[child.node_id] = code.child(position, child.node_type)
            links[child.node_id] = link + (child.edge_prob,)
            stack.append(child)

    missing = [node_id for node_id, code in enumerate(codes) if code is None]
    if missing:
        raise EncodingError(
            f"{len(missing)} nodes unreachable from the root; "
            "did you call PDocument.refresh() after mutating the tree?")
    return EncodedDocument(document, codes, links)  # type: ignore[arg-type]
