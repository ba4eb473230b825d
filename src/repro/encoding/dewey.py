"""Extended Dewey codes.

A code is a sequence of components, one per node on the root path.  Each
component records the node's 1-based position among its siblings and the
node's kind: ordinary (plain number), MUX (``M`` prefix) or IND (``I``
prefix), exactly as in Figure 1(b) of the paper — ``1.M1.I2.1`` is the
node reached by taking the first child (a MUX), then its second child
(an IND), then that node's first child.

Document order compares the *positions* lexicographically; the kind
markers carry type information but never affect order (a parent has at
most one child per position regardless of kind).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.exceptions import EncodingError
from repro.prxml.model import NodeType

_KIND_PREFIX = {NodeType.ORDINARY: "", NodeType.MUX: "M",
                NodeType.IND: "I", NodeType.EXP: "E"}
_PREFIX_KIND = {"M": NodeType.MUX, "I": NodeType.IND, "E": NodeType.EXP}


class DeweyCode:
    """Immutable extended Dewey code.

    Instances are hashable, totally ordered by document order, and cheap
    to extend (:meth:`child`) or truncate (:meth:`prefix`, :meth:`parent`).
    The ``"1.M1.I2.1"`` text is rendered on the first :func:`str` and
    kept, so an answer served again (a result-cache replay shares its
    codes) costs no rendering; every construction path starts the memo
    empty.
    """

    __slots__ = ("positions", "kinds", "_hash", "_text")

    def __init__(self, positions: Tuple[int, ...],
                 kinds: Tuple[NodeType, ...]):
        if len(positions) != len(kinds):
            raise EncodingError(
                f"positions/kinds length mismatch: "
                f"{len(positions)} != {len(kinds)}")
        if not positions:
            raise EncodingError("a Dewey code cannot be empty")
        if any(position < 1 for position in positions):
            raise EncodingError(f"positions must be >= 1: {positions}")
        self.positions = positions
        self.kinds = kinds
        self._hash = hash(positions)
        self._text: Optional[str] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def root(cls) -> "DeweyCode":
        """The code of a document root: ``1``, ordinary."""
        return cls((1,), (NodeType.ORDINARY,))

    @classmethod
    def parse(cls, text: str) -> "DeweyCode":
        """Parse ``"1.M1.I2.1"`` notation."""
        positions = []
        kinds = []
        for component in text.split("."):
            if not component:
                raise EncodingError(f"empty component in {text!r}")
            kind = _PREFIX_KIND.get(component[0], NodeType.ORDINARY)
            digits = component[1:] if kind is not NodeType.ORDINARY else component
            if not digits.isdigit():
                raise EncodingError(
                    f"bad component {component!r} in {text!r}")
            positions.append(int(digits))
            kinds.append(kind)
        return cls(tuple(positions), tuple(kinds))

    def child(self, position: int, kind: NodeType) -> "DeweyCode":
        """Extend by one component (a child at ``position`` of ``kind``).

        Only the new component is checked: this code's own components
        were checked when it was built.
        """
        positions = self.positions + (position,)
        if position < 1:
            raise EncodingError(f"positions must be >= 1: {positions}")
        code = DeweyCode.__new__(DeweyCode)
        code.positions = positions
        code.kinds = self.kinds + (kind,)
        code._hash = hash(positions)
        code._text = None
        return code

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def node_type(self) -> NodeType:
        """Kind of the node this code denotes (its last component)."""
        return self.kinds[-1]

    def prefix(self, length: int) -> "DeweyCode":
        """The ancestor-or-self code of the given component count.

        Only the length is checked: a prefix of a valid code is valid.
        """
        if not 1 <= length <= len(self.positions):
            raise EncodingError(
                f"prefix length {length} out of range for {self}")
        positions = self.positions[:length]
        code = DeweyCode.__new__(DeweyCode)
        code.positions = positions
        code.kinds = self.kinds[:length]
        code._hash = hash(positions)
        code._text = None
        return code

    def parent(self) -> "DeweyCode":
        """Code of the parent node; raises for the root."""
        if len(self.positions) == 1:
            raise EncodingError("the root code has no parent")
        return self.prefix(len(self.positions) - 1)

    def iter_prefixes(self) -> Iterator["DeweyCode"]:
        """Yield every ancestor-or-self code, shortest (root) first."""
        for length in range(1, len(self.positions) + 1):
            yield self.prefix(length)

    # -- relations ------------------------------------------------------------

    def is_ancestor_of(self, other: "DeweyCode") -> bool:
        """Proper-ancestor test."""
        return (len(self.positions) < len(other.positions)
                and other.positions[:len(self.positions)] == self.positions)

    def is_ancestor_or_self_of(self, other: "DeweyCode") -> bool:
        """Ancestor-or-equal test."""
        return (len(self.positions) <= len(other.positions)
                and other.positions[:len(self.positions)] == self.positions)

    def subtree_upper_bound(self) -> Tuple[int, ...]:
        """A positions tuple strictly greater (in document order) than every
        descendant's positions, for binary-searching subtree ranges:
        all descendants ``d`` satisfy ``self.positions <= d.positions <
        self.subtree_upper_bound()``."""
        return self.positions[:-1] + (self.positions[-1] + 1,)

    # -- ordering / identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DeweyCode)
                and self.positions == other.positions)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "DeweyCode") -> bool:
        return self.positions < other.positions

    def __le__(self, other: "DeweyCode") -> bool:
        return self.positions <= other.positions

    def __gt__(self, other: "DeweyCode") -> bool:
        return self.positions > other.positions

    def __ge__(self, other: "DeweyCode") -> bool:
        return self.positions >= other.positions

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = ".".join(
                f"{_KIND_PREFIX[kind]}{position}"
                for position, kind in zip(self.positions, self.kinds))
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeweyCode({self})"


def common_prefix_length(left: DeweyCode, right: DeweyCode) -> int:
    """Number of leading components the two codes share (their LCA depth)."""
    length = 0
    for left_pos, right_pos in zip(left.positions, right.positions):
        if left_pos != right_pos:
            break
        length += 1
    return length


def lowest_common_ancestor(left: DeweyCode, right: DeweyCode) -> DeweyCode:
    """Code of the LCA node of the two codes."""
    length = common_prefix_length(left, right)
    if length == 0:
        raise EncodingError(
            f"{left} and {right} share no prefix; codes must come from "
            "one document")
    return left.prefix(length)
