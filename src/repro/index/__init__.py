"""Keyword indexing over encoded p-documents.

Builds the inverted keyword lists both algorithms scan: for every term
occurring in an ordinary node's tag or text, a document-ordered list of
matching nodes.  :mod:`repro.index.matchlist` merges per-keyword lists
into node-id and keyword-bitmask columns (the unit of work of the
algorithms), and :mod:`repro.index.storage` persists an index next to
its document.
"""

from repro.index.tokenizer import tokenize, node_terms
from repro.index.inverted import InvertedIndex, build_index
from repro.index.matchlist import (
    MatchList,
    build_match_entries,
    keyword_code_lists,
)
from repro.index.storage import save_database, load_database, Database

__all__ = [
    "tokenize",
    "node_terms",
    "InvertedIndex",
    "build_index",
    "MatchList",
    "build_match_entries",
    "keyword_code_lists",
    "save_database",
    "load_database",
    "Database",
]
