"""Extended Dewey encoding for p-documents (Section III-A of the paper).

Each node is labelled by the path of sibling positions from the root,
with distributional components marked ``M`` (MUX) or ``I`` (IND) —
e.g. ``1.M1.I2.1`` — so that ancestor/descendant tests, document order
and longest-common-prefix computations reduce to tuple operations, and
the node type of every path component is readable from the code itself.
The encoded document stores this labelling as node columns indexed by
preorder id, where the same tests are id comparisons; codes are built
from the columns on request.
"""

from repro.encoding.dewey import DeweyCode, common_prefix_length
from repro.encoding.encoder import EncodedDocument, encode_document

__all__ = [
    "DeweyCode",
    "common_prefix_length",
    "EncodedDocument",
    "encode_document",
]
