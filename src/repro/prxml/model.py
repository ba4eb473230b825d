"""Tree model for PrXML{ind,mux} probabilistic XML documents.

A p-document is a rooted, ordered, labelled tree with two kinds of nodes:

* *ordinary* nodes — regular XML elements that may appear in possible
  worlds, carrying a tag label and optional text content;
* *distributional* nodes — ``IND`` (children exist independently) and
  ``MUX`` (children are mutually exclusive) nodes that only describe the
  random process generating possible worlds and never appear in them.

Every edge carries a conditional probability in ``(0, 1]``: the
probability the child exists given that its parent exists.  Edges with no
explicit probability default to 1.  This matches the model of Section II
of the paper (Nierman & Jagadish's ProTDB types, as formalised by
Kimelfeld et al.).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.numeric import is_one, is_zero
from repro.exceptions import ModelError


class NodeType(Enum):
    """The node kinds of a p-document.

    ``ORDINARY``, ``IND`` and ``MUX`` are the paper's PrXML{ind,mux}
    model; ``EXP`` (explicit subsets, from the same PrXML family of
    Kimelfeld et al. that the paper adopts) is supported as an
    extension: an EXP node carries an explicit probability distribution
    over subsets of its children.
    """

    ORDINARY = "ordinary"
    IND = "ind"
    MUX = "mux"
    EXP = "exp"

    @property
    def is_distributional(self) -> bool:
        """Whether nodes of this type are deleted when generating worlds."""
        return self is not NodeType.ORDINARY


class PNode:
    """One node of a p-document.

    Attributes:
        label: tag name for ordinary nodes; ``"IND"`` / ``"MUX"`` markers
            for distributional nodes (informational only).
        text: optional text content.  Keywords match both the label and
            the text of ordinary nodes.  Distributional nodes never carry
            text.
        node_type: the :class:`NodeType` of this node.
        edge_prob: conditional probability of this node existing given its
            parent exists; 1.0 for the root.
        children: ordered child list.
        parent: parent node, or ``None`` for the root.
        node_id: preorder position assigned by :meth:`PDocument.refresh`;
            ``-1`` until the node is part of a refreshed document.
    """

    __slots__ = ("label", "text", "node_type", "edge_prob",
                 "children", "parent", "node_id", "exp_subsets")

    def __init__(self, label: str, node_type: NodeType = NodeType.ORDINARY,
                 text: Optional[str] = None, edge_prob: float = 1.0):
        if text is not None and node_type is not NodeType.ORDINARY:
            raise ModelError(
                f"distributional node {label!r} cannot carry text")
        self.label = label
        self.text = text
        self.node_type = node_type
        self.edge_prob = float(edge_prob)
        self.children: List[PNode] = []
        self.parent: Optional[PNode] = None
        self.node_id = -1
        #: EXP nodes only: ``[(child positions (1-based), probability)]``
        #: over subsets of children; the residue ``1 - sum`` is the
        #: probability that no child appears.
        self.exp_subsets: Optional[List] = None

    # -- construction -----------------------------------------------------

    def add_child(self, child: "PNode", edge_prob: Optional[float] = None) -> "PNode":
        """Append ``child`` under this node and return the child.

        Args:
            child: node to attach; must not already have a parent.
            edge_prob: if given, overrides ``child.edge_prob``.
        """
        if child.parent is not None:
            raise ModelError(
                f"node {child.label!r} already has parent "
                f"{child.parent.label!r}; a p-document is a tree")
        if edge_prob is not None:
            child.edge_prob = float(edge_prob)
        child.parent = self
        self.children.append(child)
        return child

    def set_exp_subsets(
            self,
            subsets: Iterable[Tuple[Sequence[int], float]]) -> None:
        """Install an EXP node's subset distribution.

        Call after all children are attached.  ``subsets`` is an
        iterable of ``(positions, probability)`` where positions are
        1-based child indices; probabilities must sum to at most 1
        (the residue is the no-child case).  Each child's ``edge_prob``
        is set to its marginal existence probability so path
        probabilities stay a simple product along the root path.

        Raises:
            ModelError: for a non-EXP node, bad indices, or a
                distribution that is not a sub-probability.
        """
        if self.node_type is not NodeType.EXP:
            raise ModelError(
                f"{self.label!r} is {self.node_type.value}, not EXP")
        normalised = []
        total = 0.0
        for positions, probability in subsets:
            positions = tuple(sorted(set(int(p) for p in positions)))
            if not positions:
                raise ModelError(
                    "empty subsets are implicit (the residue); do not "
                    "list them")
            if any(not 1 <= p <= len(self.children) for p in positions):
                raise ModelError(
                    f"subset {positions} references missing children "
                    f"(node has {len(self.children)})")
            if not 0.0 < probability <= 1.0:
                raise ModelError(
                    f"subset probability {probability!r} outside (0, 1]")
            total += probability
            normalised.append((positions, float(probability)))
        if total > 1.0 + 1e-9:
            raise ModelError(
                f"EXP subset probabilities sum to {total:.6f} > 1")
        if len({positions for positions, _ in normalised}) \
                != len(normalised):
            raise ModelError("duplicate subsets in EXP distribution")
        self.exp_subsets = normalised
        for index, child in enumerate(self.children, start=1):
            marginal = sum(probability
                           for positions, probability in normalised
                           if index in positions)
            if is_zero(marginal):
                raise ModelError(
                    f"child #{index} of EXP node appears in no subset; "
                    "remove it instead")
            child.edge_prob = marginal

    # -- predicates and navigation ----------------------------------------

    @property
    def is_ordinary(self) -> bool:
        """Whether this is a regular XML node (appears in worlds)."""
        return self.node_type is NodeType.ORDINARY

    @property
    def is_distributional(self) -> bool:
        """Whether this is an IND/MUX/EXP node (deleted in worlds)."""
        return self.node_type is not NodeType.ORDINARY

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    @property
    def depth(self) -> int:
        """Number of edges from the root to this node."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def ancestors(self) -> Iterator["PNode"]:
        """Yield proper ancestors from parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path_probability(self) -> float:
        """``Pr(path_root->v)``: product of edge probabilities above ``v``.

        This is the probability that this node exists in a random possible
        world (conditional probabilities multiply along the root path; the
        events along one root path are conditionally chained, so the
        product is exact).
        """
        prob = self.edge_prob
        node = self.parent
        while node is not None:
            prob *= node.edge_prob
            node = node.parent
        return prob

    def iter_subtree(self) -> Iterator["PNode"]:
        """Yield this node and all descendants in document (pre)order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.node_type.name
        return f"PNode({self.label!r}, {kind}, p={self.edge_prob:g})"


class PDocument:
    """A p-document: a rooted tree of :class:`PNode` objects.

    The document owns a preorder numbering of its nodes (``node_id``)
    which downstream components (Dewey encoder, inverted index) use as a
    stable identity.  After structurally mutating the tree call
    :meth:`refresh`.
    """

    def __init__(self, root: PNode):
        if root.parent is not None:
            raise ModelError("document root must not have a parent")
        if not root.is_ordinary:
            raise ModelError("document root must be an ordinary node")
        if not is_one(root.edge_prob):
            raise ModelError("document root must exist with probability 1")
        self.root = root
        self._nodes: List[PNode] = []
        self.refresh()

    # -- maintenance --------------------------------------------------------

    def refresh(self) -> None:
        """Recompute the preorder ``node_id`` numbering after mutations."""
        self._nodes = list(self.root.iter_subtree())
        for position, node in enumerate(self._nodes):
            node.node_id = position

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PNode]:
        return iter(self._nodes)

    def node_by_id(self, node_id: int) -> PNode:
        """The node at a preorder position; raises on stale numbering."""
        try:
            node = self._nodes[node_id]
        except IndexError:
            raise ModelError(f"no node with id {node_id}") from None
        if node.node_id != node_id:
            raise ModelError(
                "node numbering is stale; call PDocument.refresh()")
        return node

    def iter_preorder(self) -> Iterator[PNode]:
        """Document-order traversal (root first)."""
        return iter(self._nodes)

    def iter_postorder(self) -> Iterator[PNode]:
        """Children-before-parent traversal (the order in which the
        bottom-up probability computation finalises nodes)."""
        # An explicit stack keeps very deep documents from hitting the
        # interpreter recursion limit.
        stack: List[tuple] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))

    def iter_ordinary(self) -> Iterator[PNode]:
        """Document-order traversal of ordinary nodes only."""
        ordinary = NodeType.ORDINARY
        return (node for node in self._nodes
                if node.node_type is ordinary)

    def find_first(self, predicate: Callable[[PNode], bool]) -> Optional[PNode]:
        """First node in document order satisfying ``predicate``."""
        return next((node for node in self._nodes if predicate(node)), None)

    def find_all(self, predicate: Callable[[PNode], bool]) -> List[PNode]:
        """All nodes satisfying ``predicate``, in document order."""
        return [node for node in self._nodes if predicate(node)]

    def find_by_label(self, label: str) -> List[PNode]:
        """All nodes with exactly this tag, in document order."""
        return self.find_all(lambda node: node.label == label)

    @property
    def height(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return best

    def theoretical_world_count(self) -> int:
        """Number of raw instance documents the generation procedure of
        Section II would emit (before merging identical copies).

        IND nodes with ``m`` children multiply the count by ``2**m``; MUX
        nodes by ``m + 1``.  This grows astronomically on real documents,
        which is exactly why the paper's direct computation matters.
        """
        count = 1
        for node in self._nodes:
            if node.node_type is NodeType.IND:
                count *= 2 ** len(node.children)
            elif node.node_type is NodeType.MUX:
                count *= len(node.children) + 1
            elif node.node_type is NodeType.EXP:
                count *= len(node.exp_subsets or ()) + 1
        return count

    def copy(self) -> "PDocument":
        """Deep-copy the document (fresh, independently mutable nodes)."""
        root_twin = PNode(self.root.label, self.root.node_type,
                          self.root.text, self.root.edge_prob)
        # Iterative clone so arbitrarily deep documents cannot overflow
        # the interpreter stack.
        stack = [(self.root, root_twin)]
        while stack:
            original, twin = stack.pop()
            if original.exp_subsets is not None:
                twin.exp_subsets = list(original.exp_subsets)
            for child in original.children:
                child_twin = PNode(child.label, child.node_type,
                                   child.text, child.edge_prob)
                twin.add_child(child_twin)
                stack.append((child, child_twin))
        return PDocument(root_twin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PDocument(nodes={len(self._nodes)}, height={self.height})"


def iter_edges(document: PDocument) -> Iterator[tuple]:
    """Yield ``(parent, child)`` pairs in document order."""
    return itertools.chain.from_iterable(
        ((node, child) for child in node.children)
        for node in document.iter_preorder())
