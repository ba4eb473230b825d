"""Encoding a p-document: the node columns of Section III-A.

:func:`encode_document` performs the single preorder pass the paper
sketches in Section III-A.  Instead of one extended Dewey code and one
PrLink object per node it fills columns indexed by preorder node id —
parent, depth, sibling position, kind, edge probability, path
probability and subtree end — from which both are derived: a node's
Dewey code is its root path's positions and kinds (:meth:`EncodedDocument.
code`, built on request), its PrLink the root path's edge
probabilities, whose product is the path column.  The encoded document
is the input to index construction and to every search algorithm,
which run on node ids.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.exceptions import EncodingError
from repro.encoding.dewey import DeweyCode
from repro.prxml.model import NodeType, PDocument, PNode


class EncodedDocument:
    """A p-document together with its columnar encoding.

    Every column is indexed by preorder ``node_id``, so ascending id
    order is document order and a node's subtree is the id range
    ``[node_id, ends[node_id])``.

    Attributes:
        document: the underlying :class:`PDocument`.
        parents: parent id (``-1`` for the root).
        depths: Dewey code length (1 for the root).
        positions: 1-based position among the parent's children.
        kinds: the node's :class:`NodeType`.
        edges: edge probability onto the node (1.0 for the root).
        paths: ``Pr(path_root->v)``, the product of the root path's edge
            probabilities left to right (``path[parent] * edge``).
        ends: one past the last id of the node's subtree.
    """

    __slots__ = ("document", "parents", "depths", "positions", "kinds",
                 "edges", "paths", "ends")

    def __init__(self, document: PDocument, parents: array, depths: array,
                 positions: array, kinds: List[NodeType], edges: array,
                 paths: array, ends: array):
        self.document = document
        self.parents = parents
        self.depths = depths
        self.positions = positions
        self.kinds = kinds
        self.edges = edges
        self.paths = paths
        self.ends = ends

    # -- lookups --------------------------------------------------------------

    def code(self, node_id: int) -> DeweyCode:
        """The extended Dewey code of a node, built from the parent
        column (answers, explanations and error messages only)."""
        parents, positions, kinds = self.parents, self.positions, self.kinds
        path_positions: List[int] = []
        path_kinds: List[NodeType] = []
        while node_id >= 0:
            path_positions.append(positions[node_id])
            path_kinds.append(kinds[node_id])
            node_id = parents[node_id]
        path_positions.reverse()
        path_kinds.reverse()
        return DeweyCode(tuple(path_positions), tuple(path_kinds))

    def id_at(self, positions: Tuple[int, ...]) -> int:
        """Preorder id of the node at a code's positions, found by
        walking the children; raises for positions outside this
        document."""
        node: Optional[PNode] = self.document.root \
            if positions and positions[0] == 1 else None
        for position in positions[1:]:
            if node is None:
                break
            children = node.children
            node = children[position - 1] \
                if 0 < position <= len(children) else None
        if node is None:
            raise EncodingError(
                f"no node at positions {'.'.join(map(str, positions))}")
        return node.node_id

    def node_at(self, code: DeweyCode) -> PNode:
        """The p-node a code denotes; raises for foreign codes."""
        return self.document.node_by_id(self.id_at(code.positions))

    def exp_subsets_at(self, node_id: int):
        """Subset distribution of the EXP node ``node_id`` (what the
        stack engine combines an EXP frame's children with)."""
        return self.document.node_by_id(node_id).exp_subsets or []

    def __len__(self) -> int:
        return len(self.document)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedDocument(nodes={len(self.document)})"


def encode_document(document: PDocument) -> EncodedDocument:
    """Fill the node columns in one preorder pass."""
    count = len(document)
    parents: List[int] = []
    depths: List[int] = []
    positions: List[int] = []
    kinds: List[NodeType] = []
    edges: List[float] = []
    paths: List[float] = []

    # Iterative preorder so deep documents cannot overflow the stack.
    # Each entry carries what the node's columns read from its parent;
    # the root's edge and path are 1.0 whatever its stored edge says.
    stack: List[tuple] = [(document.root, -1, 1, 1, 1.0, 1.0)]
    while stack:
        node, parent, position, depth, edge, path = stack.pop()
        node_id = len(kinds)
        if node.node_id != node_id:
            raise EncodingError(
                f"node {node.label!r} has stale id {node.node_id}; "
                "call PDocument.refresh() after mutating the tree")
        parents.append(parent)
        depths.append(depth)
        positions.append(position)
        kinds.append(node.node_type)
        edges.append(edge)
        paths.append(path)
        children = node.children
        for position in range(len(children), 0, -1):
            child = children[position - 1]
            child_edge = child.edge_prob
            stack.append((child, node_id, position, depth + 1, child_edge,
                          path * child_edge))

    if len(kinds) != count:
        raise EncodingError(
            f"{count - len(kinds)} nodes unreachable from the root; "
            "did you call PDocument.refresh() after mutating the tree?")
    # Reverse preorder finishes every subtree before its root.
    ends = list(range(1, count + 1))
    for node_id in range(count - 1, 0, -1):
        parent = parents[node_id]
        if ends[node_id] > ends[parent]:
            ends[parent] = ends[node_id]
    return EncodedDocument(document, array("q", parents),
                           array("i", depths), array("i", positions),
                           kinds, array("d", edges), array("d", paths),
                           array("q", ends))
