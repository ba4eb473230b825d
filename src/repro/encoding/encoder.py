"""Encoding a p-document: the node columns of Section III-A.

:func:`encode_document` performs the single preorder pass the paper
sketches in Section III-A.  Instead of one extended Dewey code and one
PrLink object per node it fills columns indexed by preorder node id —
parent, depth, sibling position, kind, edge probability, path
probability and subtree end — from which both are derived: a node's
Dewey code is its root path's positions and kinds (:meth:`EncodedDocument.
code`, built on request), its PrLink the root path's edge
probabilities, whose product is the path column.  A label column
(indices into an interned tag table) names every node, and an EXP
table holds each EXP node's subset distribution.  The encoded document
is the input to index construction and to every search algorithm,
which run on node ids; the :class:`PDocument` tree itself is only
needed by the tree-walking tools and is built on first use when the
columns came from a snapshot (:mod:`repro.index.storage`).
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import EncodingError
from repro.encoding.dewey import DeweyCode
from repro.prxml.model import NodeType, PDocument, PNode

#: An EXP node's subset distribution: ``[(child positions, probability)]``.
ExpSubsets = List[Tuple[Tuple[int, ...], float]]


class EncodedDocument:
    """A p-document's columnar encoding.

    Every column is indexed by preorder ``node_id``, so ascending id
    order is document order and a node's subtree is the id range
    ``[node_id, ends[node_id])``.

    Attributes:
        parents: parent id (``-1`` for the root).
        depths: Dewey code length (1 for the root).
        positions: 1-based position among the parent's children.
        kinds: the node's :class:`NodeType`.
        edges: edge probability onto the node (1.0 for the root).
        paths: ``Pr(path_root->v)``, the product of the root path's edge
            probabilities left to right (``path[parent] * edge``).
        ends: one past the last id of the node's subtree.
        labels: index of the node's tag in ``tags``.
        tags: the distinct tags, in order of first appearance.
        exp: ``node_id -> subset distribution`` of every EXP node.
    """

    __slots__ = ("parents", "depths", "positions", "kinds", "edges",
                 "paths", "ends", "labels", "tags", "exp", "_document",
                 "_load", "_lock")

    def __init__(self, parents: array, depths: array, positions: array,
                 kinds: List[NodeType], edges: array, paths: array,
                 ends: array, labels: array, tags: List[str],
                 exp: Dict[int, ExpSubsets],
                 document: Optional[PDocument] = None,
                 load: Optional[Callable[[], PDocument]] = None):
        if document is None and load is None:
            raise EncodingError("an encoded document needs its tree or "
                                "a way to load it")
        self.parents = parents
        self.depths = depths
        self.positions = positions
        self.kinds = kinds
        self.edges = edges
        self.paths = paths
        self.ends = ends
        self.labels = labels
        self.tags = tags
        self.exp = exp
        self._document = document  # repro: guarded-by[_lock, writes]
        self._load = load  # repro: guarded-by[_lock]
        self._lock = threading.Lock()

    @property
    def document(self) -> PDocument:
        """The underlying :class:`PDocument`, built on first use.

        Only the tree-walking tools need it (explain, twig, Monte
        Carlo, the possible-worlds oracle, validation, saving and the
        process-batch payload); search, ranking and labelling read the
        columns.  The build runs once, whichever thread asks first.
        """
        document = self._document
        if document is None:
            with self._lock:
                document = self._document
                if document is None:
                    # __init__ guarantees a loader until the tree exists.
                    document = self._load()
                    self._document = document
                    self._load = None
        return document

    @property
    def has_document(self) -> bool:
        """Whether the tree has been built (never builds it)."""
        return self._document is not None

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

    def label(self, node_id: int) -> str:
        """The node's tag, from the label column."""
        return self.tags[self.labels[node_id]]

    def id_at(self, positions: Sequence[int]) -> int:
        """Preorder id of the node at a code's positions, found by
        hopping over sibling subtrees in the ``ends`` column; raises
        for positions outside this document."""
        ends = self.ends
        node = 0 if positions and positions[0] == 1 and len(ends) else -1
        for position in positions[1:]:
            if node < 0:
                break
            end = ends[node]
            child = node + 1
            for _ in range(position - 1):
                if child >= end:
                    break
                child = ends[child]
            node = child if position > 0 and child < end else -1
        if node < 0:
            raise EncodingError(
                f"no node at positions {'.'.join(map(str, positions))}")
        return node

    def node_at(self, code: DeweyCode) -> PNode:
        """The p-node a code denotes; raises for foreign codes."""
        return self.document.node_by_id(self.id_at(code.positions))

    def exp_subsets_at(self, node_id: int) -> ExpSubsets:
        """Subset distribution of the EXP node ``node_id`` (what the
        stack engine combines an EXP frame's children with)."""
        return self.exp.get(node_id, [])

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedDocument(nodes={len(self.kinds)})"


def encode_document(document: PDocument) -> EncodedDocument:
    """Fill the node columns in one preorder pass."""
    count = len(document)
    parents: List[int] = []
    depths: List[int] = []
    positions: List[int] = []
    kinds: List[NodeType] = []
    edges: List[float] = []
    paths: List[float] = []
    labels: List[int] = []
    tag_ids: Dict[str, int] = {}
    exp: Dict[int, ExpSubsets] = {}
    exp_kind = NodeType.EXP

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
        kind = node.node_type
        kinds.append(kind)
        edges.append(edge)
        paths.append(path)
        label = node.label
        tag = tag_ids.get(label)
        if tag is None:
            tag = tag_ids[label] = len(tag_ids)
        labels.append(tag)
        if kind is exp_kind:
            exp[node_id] = [(tuple(subset), probability)
                            for subset, probability
                            in node.exp_subsets or ()]
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
    return EncodedDocument(array("q", parents), array("i", depths),
                           array("i", positions), kinds,
                           array("d", edges), array("d", paths),
                           array("q", ends), array("i", labels),
                           list(tag_ids), exp, document=document)
