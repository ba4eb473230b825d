"""PrXML{ind,mux} probabilistic XML documents.

This subpackage implements the data substrate of the paper: the
p-document tree model (ordinary, IND and MUX nodes with conditional edge
probabilities), a text parser/serializer, model validation, exact
possible-world enumeration, and dataset statistics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.prxml.model": ("NodeType", "PNode", "PDocument"),
    "repro.prxml.builder": ("DocumentBuilder",),
    "repro.prxml.parser": ("parse_pxml", "parse_pxml_file"),
    "repro.prxml.serializer": ("serialize_pxml", "write_pxml_file"),
    "repro.prxml.validate": ("validate_document",),
    "repro.prxml.possible_worlds": ("PossibleWorld",
                                    "enumerate_possible_worlds",
                                    "count_possible_worlds",
                                    "sample_possible_world"),
    "repro.prxml.stats": ("DocumentStats", "document_stats"),
})

__all__ = [
    "NodeType",
    "PNode",
    "PDocument",
    "DocumentBuilder",
    "parse_pxml",
    "parse_pxml_file",
    "serialize_pxml",
    "write_pxml_file",
    "validate_document",
    "PossibleWorld",
    "enumerate_possible_worlds",
    "count_possible_worlds",
    "sample_possible_world",
    "DocumentStats",
    "document_stats",
]
