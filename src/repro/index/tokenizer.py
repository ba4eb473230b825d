"""Tokenisation of node labels and text into indexable terms.

Keyword matching in the paper is case-insensitive word matching over tag
names and text values (queries such as ``{United States, Graduate}``
match element content).  We tokenise on runs of letters and digits and
lowercase everything; multi-word query strings like ``"united states"``
simply become several required terms.

Tokens are Unicode word runs (underscore excluded, so ``open_auction``
still splits into two terms): accented or non-Latin content such as
``café`` or ``北京`` indexes as whole terms instead of being silently
truncated at the first non-ASCII byte, and the persisted posting format
round-trips them verbatim (see :mod:`repro.index.storage`).
"""

from __future__ import annotations

import re
from typing import Iterable, List

from repro.exceptions import QueryError
from repro.prxml.model import PNode

_TOKEN_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> List[str]:
    """Lowercased alphanumeric tokens of ``text`` (order preserved).

    Tokens are cut from the original text and lowercased one by one:
    lowercasing first would move token boundaries, because some
    characters lowercase to a letter plus a combining mark (``İ``
    becomes ``i`` + U+0307, which is not a word character)."""
    return [token.lower() for token in _TOKEN_PATTERN.findall(text)]


def node_terms(node: PNode) -> List[str]:
    """Terms a node matches: its tag tokens plus its text tokens.

    Distributional nodes never match keywords — they do not exist in
    possible worlds — so they yield no terms.
    """
    if node.is_distributional:
        return []
    terms = tokenize(node.label)
    if node.text:
        terms.extend(tokenize(node.text))
    return terms


def normalize_query(keywords: Iterable[str]) -> List[str]:
    """Flatten query strings into unique lowercase terms, order-preserving.

    ``["United States", "ship"]`` becomes ``["united", "states", "ship"]``.

    Raises:
        QueryError: if any keyword normalises to nothing (punctuation-only
            strings like ``"..."`` would otherwise be dropped silently and
            turn a typo into a different — still answerable — query).
    """
    seen = {}
    for keyword in keywords:
        terms = tokenize(keyword)
        if not terms:
            raise QueryError(
                f"query keyword {keyword!r} contains no indexable terms")
        for term in terms:
            seen.setdefault(term, None)
    return list(seen)
