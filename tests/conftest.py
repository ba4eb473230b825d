"""Shared fixtures: paper-derived documents and random p-documents."""

from __future__ import annotations

import random

import pytest

from repro import DocumentBuilder, PDocument, PNode, NodeType
from repro.index.storage import Database


def build_fragment_doc() -> PDocument:
    """The worked-example fragment of the paper (Examples 2-6).

    A -> MUX1(1) -> IND2(0.25) -> C1(0.6) -> MUX2(1) with MUX2's
    children D1 (k1, 0.5), IND3 (0.1) holding D2 (k1, 0.7) and
    E1 (k2, 0.9), and E2 (k2, 0.3).  The paper computes
    Pr(path A->C1) = 0.15, the IND3 and MUX2 distribution tables of
    Examples 4-5, and Pr_slca(C1) = 0.00945 on exactly this subtree.
    """
    builder = DocumentBuilder("A")
    with builder.mux():                      # MUX1
        with builder.ind(prob=0.25):         # IND2
            with builder.element("C1", prob=0.6):
                with builder.mux():          # MUX2
                    builder.leaf("D1", text="k1", prob=0.5)
                    with builder.ind(prob=0.1):   # IND3
                        builder.leaf("D2", text="k1", prob=0.7)
                        builder.leaf("E1", text="k2", prob=0.9)
                    builder.leaf("E2", text="k2", prob=0.3)
    return builder.build()


def build_figure1_doc() -> PDocument:
    """A fuller reconstruction of Figure 1(a): the fragment above plus
    the sibling branches (IND1 with B1, B2 under IND2, and the C3/C5
    subtree with its inner MUX), exercising every promotion rule."""
    builder = DocumentBuilder("A")
    with builder.mux():                      # MUX1
        with builder.ind(prob=0.15):         # IND1
            builder.leaf("B1", text="k2", prob=0.8)
        with builder.ind(prob=0.25):         # IND2
            with builder.element("C1", prob=0.6):
                with builder.mux():          # MUX2
                    builder.leaf("D1", text="k1", prob=0.5)
                    with builder.ind(prob=0.1):   # IND3
                        builder.leaf("D2", text="k1", prob=0.7)
                        builder.leaf("E1", text="k2", prob=0.9)
                    builder.leaf("E2", text="k2", prob=0.3)
            builder.leaf("B2", text="k2", prob=0.5)
        builder.leaf("B3", text="k1", prob=0.3)
        with builder.element("C2", prob=0.3):
            builder.leaf("C4", text="k1")
            builder.leaf("B4", text="k2")
            with builder.element("C3"):
                with builder.mux():
                    builder.leaf("C6", text="k2", prob=0.5)
                    builder.leaf("B5", text="k1", prob=0.5)
                builder.leaf("C5", text="k2")
    return builder.build()


def coded_document(codes, edges=None) -> PDocument:
    """A p-document holding a node at every given Dewey code.

    ``codes`` are code texts such as ``"1.M1.I2"``; each code's kinds
    become its nodes' kinds, missing ancestors and missing lower
    siblings are filled in as ordinary nodes, and ``edges`` maps a code
    text to its node's edge probability (default 1).  Unit tests that
    address nodes by code use it to get a document whose node ids they
    can feed to the id-based engine and match list.
    """
    from repro import DeweyCode
    edges = edges or {}
    root = PNode("n")
    for text in codes:
        code = DeweyCode.parse(text)
        node = root
        for depth in range(1, len(code)):
            position = code.positions[depth]
            while len(node.children) < position:
                node.add_child(PNode("n"))
            child = node.children[position - 1]
            kind = code.kinds[depth]
            if child.node_type is not kind:
                child.node_type = kind
                child.label = kind.name
            node = child
        node.edge_prob = float(edges.get(text, node.edge_prob))
    return PDocument(root)


def random_pdoc(rng: random.Random, max_nodes: int = 18,
                keywords=("k1", "k2"), with_exp: bool = False
                ) -> PDocument:
    """A random small PrXML{ind,mux} document for oracle testing.

    With ``with_exp`` the generator may also emit EXP nodes (random
    explicit subset distributions), exercising the PrXML{exp} model
    extension.
    """
    text_pool = [None, "zz"]
    text_pool.extend(keywords)
    text_pool.append(" ".join(keywords))
    root = PNode("r", NodeType.ORDINARY, rng.choice(text_pool))
    nodes = [root]
    count = 1
    kinds = [NodeType.ORDINARY, NodeType.IND, NodeType.MUX]
    weights = [3, 1, 1]
    if with_exp:
        kinds.append(NodeType.EXP)
        weights.append(1)
    while count < max_nodes and nodes:
        parent = rng.choice(nodes)
        kind = rng.choices(kinds, weights=weights)[0]
        if parent.node_type is NodeType.EXP:
            # EXP children get probabilities from the subset
            # distribution assigned at the end.
            prob = 1.0
        elif parent.node_type is NodeType.MUX:
            used = sum(child.edge_prob for child in parent.children)
            if used >= 0.95:
                continue
            prob = round(rng.uniform(0.05, 1.0 - used), 2)
            if prob <= 0:
                continue
        else:
            prob = round(rng.choice([1.0, rng.uniform(0.1, 1.0)]), 2)
        text = (rng.choice(text_pool)
                if kind is NodeType.ORDINARY else None)
        label = "n" if kind is NodeType.ORDINARY else kind.name
        child = PNode(label, kind, text, prob)
        parent.add_child(child)
        nodes.append(child)
        count += 1

    def prune(node: PNode) -> bool:
        node.children = [child for child in node.children if prune(child)]
        return not node.is_distributional or bool(node.children)

    prune(root)

    # Assign random subset distributions to surviving EXP nodes; every
    # child must be covered by at least one subset.
    from repro.datagen.probabilistic import _random_subsets
    for node in root.iter_subtree():
        if node.node_type is NodeType.EXP:
            node.set_exp_subsets(_random_subsets(rng, len(node.children)))
    return PDocument(root)


@pytest.fixture
def fragment_doc() -> PDocument:
    return build_fragment_doc()


@pytest.fixture
def figure1_doc() -> PDocument:
    return build_figure1_doc()


@pytest.fixture
def fragment_db(fragment_doc) -> Database:
    return Database.from_document(fragment_doc)


@pytest.fixture
def figure1_db(figure1_doc) -> Database:
    return Database.from_document(figure1_doc)


@pytest.fixture
def pdoc_factory():
    """Factory for seeded random p-documents."""
    def build(seed: int, max_nodes: int = 18,
              keywords=("k1", "k2")) -> PDocument:
        return random_pdoc(random.Random(seed), max_nodes, keywords)
    return build
