"""Serialising p-documents back to the XML text format.

The output round-trips through :func:`repro.prxml.parser.parse_pxml`:
ordinary nodes keep their labels, IND/MUX nodes become ``<ind>`` /
``<mux>`` elements, and edge probabilities below 1 are emitted as
``prob`` attributes.
"""

from __future__ import annotations

import os
from typing import List, Union

from repro.prxml.model import NodeType, PDocument, PNode

_TAGS = {NodeType.IND: "ind", NodeType.MUX: "mux", NodeType.EXP: "exp"}


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` in character data (what
    ``xml.sax.saxutils.escape`` does, without importing ``xml.sax``
    and, through it, ``urllib``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;") \
        .replace("<", "&lt;")


def _subsets_attribute(node: PNode) -> str:
    """Render an EXP distribution as ``1+2:0.5 1:0.3``."""
    return " ".join(
        f"{'+'.join(str(p) for p in positions)}:{probability!r}"
        for positions, probability in node.exp_subsets or [])


def serialize_pxml(document: PDocument, indent: int = 2) -> str:
    """Render ``document`` as indented p-document XML text."""
    pieces: List[str] = []
    ordinary, exp = NodeType.ORDINARY, NodeType.EXP
    # Iterative rendering: each stack entry is either a node to open (with
    # its depth) or a ready-made closing tag string.
    stack: List[object] = [(document.root, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, str):
            pieces.append(entry)
            continue
        node, depth = entry
        pad = " " * (indent * depth)
        kind = node.node_type
        tag = node.label if kind is ordinary else _TAGS[kind]
        attrs = ""
        # Exact sentinel: only an edge whose stored probability is
        # bit-for-bit 1.0 may drop its 'prob' attribute, or the
        # parse -> serialize round trip would not be the identity.
        if (node.edge_prob != 1.0  # repro: ignore[R001] round-trip sentinel
                and node.parent is not None
                and node.parent.node_type is not exp):
            # repr is the shortest exact decimal form, so serialise ->
            # parse is lossless for every float (``:g`` would truncate
            # to 6 significant digits and skew probabilities).  A float
            # repr (and a subsets list of them) holds no character an
            # attribute value must escape.
            attrs = f' prob="{node.edge_prob!r}"'
        if kind is exp:
            attrs += f' subsets="{_subsets_attribute(node)}"'
        children = node.children
        text = node.text
        if not children and text is None:
            pieces.append(f"{pad}<{tag}{attrs}/>")
        elif not children:
            pieces.append(f"{pad}<{tag}{attrs}>{_escape(text)}</{tag}>")
        else:
            pieces.append(
                f"{pad}<{tag}{attrs}>{_escape(text) if text else ''}")
            stack.append(f"{pad}</{tag}>")
            stack.extend((child, depth + 1)
                         for child in reversed(children))
    return "\n".join(pieces) + "\n"


def write_pxml_file(document: PDocument,
                    path: "Union[str, os.PathLike[str]]") -> None:
    """Serialize ``document`` to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_pxml(document))


def node_to_fragment(node: PNode) -> str:
    """Render a single subtree (used in error messages and examples)."""
    return serialize_pxml(_SubtreeView(node))


class _SubtreeView:
    """Duck-typed minimal stand-in for PDocument over one subtree."""

    def __init__(self, root: PNode):
        self.root = root
