"""Parsing p-documents from an XML text representation.

The on-disk format is plain XML with two reserved element names:

* ``<ind>`` — an IND distributional node;
* ``<mux>`` — a MUX distributional node.

Any element may carry a ``prob`` attribute in ``(0, 1]`` giving the
conditional probability of the edge from its parent; omitted means 1.
Example (the movie-year fragment from the library README)::

    <movie>
      <title>Paris, Texas</title>
      <mux>
        <year prob="0.8">1984</year>
        <year prob="0.2">1985</year>
      </mux>
    </movie>

:func:`parse_pxml` turns such text into a :class:`PDocument`;
:mod:`repro.prxml.serializer` provides the inverse.

Diagnostics
-----------

Every :class:`~repro.exceptions.ParseError` raised for a specific
element names the source (``path:line:column``) of that element — the
positions come from an expat scan whose start-element events fire in
exactly the pre-order that ``Element.iter()`` walks, so the two align
index-for-index.  The scan runs only when a diagnostic first needs a
position: a valid document is read in one XML pass.  ``repro fsck``
leans on those positions to quarantine malformed subtrees with
actionable ``path:line`` diagnostics (docs/STORAGE.md);
:func:`parse_pxml_salvage` is the lenient entry point it uses — instead
of raising on the first bad element it detaches every malformed subtree
and reports each one as a :class:`SalvageDrop`.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ModelError, ParseError
from repro.prxml.model import NodeType, PDocument, PNode

#: Reserved tags marking distributional nodes in the text format.
DISTRIBUTIONAL_TAGS = {"ind": NodeType.IND, "mux": NodeType.MUX,
                       "exp": NodeType.EXP}

_ORDINARY = NodeType.ORDINARY

#: Attribute holding the conditional edge probability.
PROB_ATTRIBUTE = "prob"

#: Attribute holding an EXP node's subset distribution, e.g.
#: ``subsets="1+2:0.5 1:0.3"`` (1-based child positions; the residue
#: probability is implicit).
SUBSETS_ATTRIBUTE = "subsets"


@dataclass(frozen=True)
class SourcePosition:
    """Where an element starts in its source text (1-based)."""

    path: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


@dataclass(frozen=True)
class SalvageDrop:
    """One malformed subtree detached by :func:`parse_pxml_salvage`.

    Attributes:
        position: where the offending element starts.
        tag: its tag name.
        reason: why it was rejected (the strict parser's message).
        xml_text: the dropped subtree serialised back to XML, so a
            quarantine file preserves exactly what was removed.
    """

    position: SourcePosition
    tag: str
    reason: str
    xml_text: str

    def describe(self) -> str:
        """The conventional one-line ``path:line:col`` diagnostic."""
        return f"{self.position}: {self.reason}"


def parse_pxml(text: Union[str, bytes],
               path: str = "<string>") -> PDocument:
    """Parse p-document XML text into a :class:`PDocument`.

    Args:
        text: the XML source.
        path: name reported in diagnostics (``path:line:column``).

    Raises:
        ParseError: on malformed XML, bad ``prob`` values, or a
            distributional root — each naming the offending element's
            source position.
    """
    root_element, positions = _parse_positioned(text, path)
    return _document_from_element(root_element, positions, path)


def parse_pxml_file(path: Union[str, "os.PathLike[str]"]) -> PDocument:
    """Parse a p-document from a file path."""
    name = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {name}: {exc}") from exc
    return parse_pxml(text, path=name)


def parse_pxml_salvage(text: Union[str, bytes],
                       path: str = "<string>"
                       ) -> Tuple[PDocument, List[SalvageDrop]]:
    """Lenient parse: drop malformed subtrees instead of raising.

    Walks the well-formed XML tree, detaches every element the strict
    parser would reject (bad ``prob`` attribute, distributional element
    carrying text, missing/ill-formed ``subsets``), and builds the
    document from what survives.  The dropped subtrees come back as
    :class:`SalvageDrop` records carrying ``path:line:column``
    diagnostics and the removed XML — the raw material of fsck's
    quarantine (docs/STORAGE.md).

    Raises:
        ParseError: only when no document can be salvaged at all —
            byte-level malformed XML, or a root that is itself invalid.
    """
    root_element, positions = _parse_positioned(text, path)
    drops: List[SalvageDrop] = []
    _prune_malformed(root_element, positions, path, drops)
    document = _document_from_element(root_element, positions, path)
    return document, drops


# -- positioned parsing -------------------------------------------------------


class _Positions:
    """Source positions of one parsed tree, scanned on first use.

    expat fires start-element events in document pre-order — the same
    order ``Element.iter()`` yields — so one scan pairs each element
    with its (line, column) without touching ElementTree internals.
    The scan must see the tree as parsed: salvage asks for a position
    (to report a drop) before it detaches anything.
    """

    __slots__ = ("_text", "_path", "_root", "_map")

    def __init__(self, text: Union[str, bytes], path: str,
                 root: ET.Element) -> None:
        self._text = text
        self._path = path
        self._root = root
        self._map: Optional[Dict[int, SourcePosition]] = None

    def of(self, element: ET.Element) -> Optional[SourcePosition]:
        """Where ``element`` starts (None if the scan could not say)."""
        if self._map is None:
            self._map = self._scan()
        return self._map.get(id(element))

    def _scan(self) -> Dict[int, SourcePosition]:
        spots: List[Tuple[int, int]] = []
        scanner = xml.parsers.expat.ParserCreate()

        def on_start(_tag: str, _attrs: Dict[str, str]) -> None:
            spots.append((scanner.CurrentLineNumber,
                          scanner.CurrentColumnNumber + 1))

        scanner.StartElementHandler = on_start
        try:
            scanner.Parse(self._text, True)
        except xml.parsers.expat.ExpatError:  # pragma: no cover - ET caught it
            spots.clear()
        return {id(element): SourcePosition(self._path, line, column)
                for element, (line, column)
                in zip(self._root.iter(), spots)}


def _parse_positioned(text: Union[str, bytes],
                      path: str) -> Tuple[ET.Element, _Positions]:
    """Parse XML text; positions are scanned only if asked for."""
    try:
        root_element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"{path}: malformed XML: {exc}") from exc
    return root_element, _Positions(text, path, root_element)


def _where(element: ET.Element, positions: _Positions,
           path: str) -> str:
    """Diagnostic prefix for one element: ``path:line:col: `` or ``path: ``."""
    position = positions.of(element)
    if position is None:  # pragma: no cover - every parsed element has one
        return f"{path}: "
    return f"{position}: "


# -- strict conversion --------------------------------------------------------


def _document_from_element(root_element: ET.Element,
                           positions: _Positions,
                           path: str) -> PDocument:
    if root_element.tag.lower() in DISTRIBUTIONAL_TAGS:
        raise ParseError(
            f"{_where(root_element, positions, path)}the document root "
            f"cannot be a distributional node")
    root = _node_from_element(root_element, positions, path)
    # Exact sentinel, not a numeric comparison: an omitted 'prob'
    # attribute parses to exactly 1.0, so anything else means the
    # attribute was explicitly (and illegally) present on the root.
    if root.edge_prob != 1.0:  # repro: ignore[R001] exact parse sentinel
        raise ParseError(
            f"{_where(root_element, positions, path)}the document root "
            f"cannot carry a 'prob' attribute")
    # Convert iteratively: (element, already-built parent node) pairs.
    # EXP subset specs apply only once children exist, so they are
    # collected and installed after the whole tree is built.
    exp_specs = []
    stack = [(root_element, root)]
    while stack:
        element, node = stack.pop()
        if node.node_type is NodeType.EXP:
            spec = element.get(SUBSETS_ATTRIBUTE)
            if spec is None:
                raise ParseError(
                    f"{_where(element, positions, path)}<exp> element "
                    f"is missing its 'subsets' attribute")
            exp_specs.append((element, node, spec))
        for child_element in element:
            child = _node_from_element(child_element, positions, path)
            node.add_child(child)
            stack.append((child_element, child))
    for element, node, spec in exp_specs:
        try:
            node.set_exp_subsets(_parse_subsets(spec))
        except (ModelError, ParseError) as exc:
            raise ParseError(
                f"{_where(element, positions, path)}bad <exp> "
                f"distribution: {_bare_message(exc)}") from exc
    return PDocument(root)


def _bare_message(exc: BaseException) -> str:
    """An exception's message without any position prefix it carries."""
    return str(exc)


def _parse_subsets(spec: str):
    """Parse ``"1+2:0.5 1:0.3"`` into ``[((1, 2), 0.5), ((1,), 0.3)]``."""
    subsets = []
    for entry in spec.split():
        positions_text, _, probability_text = entry.partition(":")
        try:
            positions = tuple(int(piece)
                              for piece in positions_text.split("+"))
            probability = float(probability_text)
        except ValueError:
            raise ParseError(
                f"bad subset entry {entry!r}; expected "
                "'pos[+pos...]:probability'") from None
        subsets.append((positions, probability))
    if not subsets:
        raise ParseError("empty 'subsets' attribute on <exp>")
    return subsets


def _node_from_element(element: ET.Element, positions: _Positions,
                       path: str) -> PNode:
    tag = element.tag
    node_type = DISTRIBUTIONAL_TAGS.get(tag.lower(), _ORDINARY)
    prob = _read_probability(element, positions, path)
    if node_type is _ORDINARY:
        return PNode(tag, node_type, _gather_text(element), prob)
    if _gather_text(element):
        raise ParseError(
            f"{_where(element, positions, path)}distributional <{tag}> "
            f"element carries text (mis-nested content: move the text "
            f"into an ordinary child element)")
    return PNode(node_type.name, node_type, None, prob)


def _read_probability(element: ET.Element, positions: _Positions,
                      path: str) -> float:
    raw = element.get(PROB_ATTRIBUTE)
    if raw is None:
        return 1.0
    try:
        prob = float(raw)
    except ValueError:
        raise ParseError(
            f"{_where(element, positions, path)}<{element.tag}>: "
            f"prob={raw!r} is not a number") from None
    if not 0.0 < prob <= 1.0:
        raise ParseError(
            f"{_where(element, positions, path)}<{element.tag}>: "
            f"prob={prob!r} outside (0, 1]")
    return prob


def _gather_text(element: ET.Element) -> Optional[str]:
    """Collect the element's own text plus its children's tail text."""
    text = element.text.strip() if element.text else ""
    if not len(element):
        return text or None
    pieces = [text] if text else []
    for child in element:
        if child.tail and child.tail.strip():
            pieces.append(child.tail.strip())
    return " ".join(pieces) or None


# -- lenient salvage ----------------------------------------------------------


def _element_fault(element: ET.Element, positions: _Positions,
                   path: str) -> Optional[str]:
    """Why the strict parser would reject this element (None = fine)."""
    tag = element.tag
    node_type = DISTRIBUTIONAL_TAGS.get(tag.lower(), NodeType.ORDINARY)
    try:
        _read_probability(element, positions, path)
    except ParseError as exc:
        return _strip_position(str(exc))
    if node_type is not NodeType.ORDINARY and _gather_text(element):
        return (f"distributional <{tag}> element carries text "
                f"(mis-nested content)")
    if node_type is NodeType.EXP:
        spec = element.get(SUBSETS_ATTRIBUTE)
        if spec is None:
            return "<exp> element is missing its 'subsets' attribute"
        try:
            _parse_subsets(spec)
        except ParseError as exc:
            return f"bad <exp> distribution: {exc}"
    return None


def _strip_position(message: str) -> str:
    """Drop a leading ``path:line:col: `` prefix from a message."""
    head, sep, tail = message.rpartition(": <")
    if sep and ":" in head:
        return "<" + tail
    return message


def _prune_malformed(root_element: ET.Element, positions: _Positions,
                     path: str, drops: List[SalvageDrop]) -> None:
    """Detach every malformed subtree, recording a drop for each.

    The root itself is *not* prunable — a document with no root has
    nothing left to salvage; root faults propagate as ParseError from
    the strict conversion that follows.
    """
    stack = [root_element]
    while stack:
        element = stack.pop()
        doomed: List[ET.Element] = []
        for child in element:
            fault = _element_fault(child, positions, path)
            if fault is None:
                stack.append(child)
            else:
                doomed.append(child)
                position = positions.of(child) \
                    or SourcePosition(path, 1, 1)
                drops.append(SalvageDrop(
                    position=position, tag=child.tag, reason=fault,
                    xml_text=ET.tostring(child, encoding="unicode")))
        for child in doomed:
            element.remove(child)
