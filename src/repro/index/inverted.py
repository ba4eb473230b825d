"""The inverted keyword index.

Maps every term to the document-ordered list of ordinary nodes whose tag
or text contains it.  Node ids are preorder positions, so ascending id
order *is* document (Dewey) order — the scan order PrStack relies on.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.encoding.encoder import EncodedDocument
from repro.exceptions import IndexError_, QueryError
from repro.index.tokenizer import normalize_query, tokenize
from repro.obs.metrics import NULL_COLLECTOR
from repro.prxml.model import NodeType


class InvertedIndex:
    """Term -> sorted node-id postings over one encoded document.

    Besides the tokenised term postings the index keeps *exact-label*
    postings (tag name -> ordinary node ids), which the twig engine
    uses to find its candidate nodes.
    """

    def __init__(self, encoded: EncodedDocument,
                 postings: Dict[str, array],
                 label_postings: Optional[Dict[str, array]] = None):
        self.encoded = encoded
        self._postings = postings
        # Normalisation happens here and nowhere else: label keys are
        # casefolded so label lookups match the case-insensitive term
        # postings.  Only twig queries read label postings, so a
        # missing map is derived from the columns on first use.
        self._labels: Optional[Dict[str, array]] = None
        if label_postings is not None:
            self._labels = {label.lower(): ids
                            for label, ids in label_postings.items()}

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_document(cls, encoded: EncodedDocument) -> "InvertedIndex":
        """Build postings over every ordinary node's tag and text."""
        postings: Dict[str, List[int]] = {}
        tag_terms: Dict[str, List[str]] = {}
        ordinary = NodeType.ORDINARY
        for node in encoded.document.iter_preorder():
            if node.node_type is not ordinary:
                continue
            label = node.label
            terms = tag_terms.get(label)
            if terms is None:
                terms = tag_terms[label] = tokenize(label)
            text = node.text
            unique = set(terms)
            if text:
                unique.update(tokenize(text))
            node_id = node.node_id
            for term in unique:
                ids = postings.get(term)
                if ids is None:
                    postings[term] = [node_id]
                else:
                    ids.append(node_id)
        packed = {term: array("q", ids) for term, ids in postings.items()}
        return cls(encoded, packed)

    # -- queries ----------------------------------------------------------------

    def postings(self, term: str) -> array:
        """Document-ordered node ids matching ``term`` (empty if absent)."""
        return self._postings.get(term.lower(), array("q"))

    def label_postings(self, label: str) -> array:
        """Document-ordered ids of ordinary nodes with exactly this tag.

        The whole tag must match (tokenised sub-terms do not count) but,
        like term postings, the comparison is case-insensitive — the
        index boundary applies one normalisation everywhere."""
        labels = self._labels
        if labels is None:
            # Idempotent: racing threads build equal maps.
            labels = self._labels = _label_postings_of(self.encoded)
        return labels.get(label.lower(), array("q"))

    def ordinary_ids(self) -> array:
        """All ordinary node ids in document order (twig wildcard
        steps fall back to this)."""
        ordinary = NodeType.ORDINARY
        return array("q", (node_id for node_id, kind
                           in enumerate(self.encoded.kinds)
                           if kind is ordinary))

    def document_frequency(self, term: str) -> int:
        """How many nodes match ``term``."""
        return len(self.postings(term))

    def vocabulary(self) -> List[str]:
        """All indexed terms, sorted."""
        return sorted(self._postings)

    def __contains__(self, term: str) -> bool:
        return term.lower() in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    def query_terms(self, keywords: Iterable[str]) -> List[str]:
        """Normalise a keyword query against this index.

        Raises:
            QueryError: if the query has no terms at all.
        """
        terms = normalize_query(keywords)
        if not terms:
            raise QueryError("keyword query contains no terms")
        return terms

    def keyword_lists(self, terms: Sequence[str],
                      collector=NULL_COLLECTOR) -> List[array]:
        """The per-term posting lists of normalised query ``terms``
        (:meth:`query_terms`).  Terms missing from the index yield
        empty lists (the query then has zero answers everywhere).

        ``collector`` records per-query lookup timings
        (``index.lookup``) and the posting-list length distribution
        (``index.postings_length``)."""
        with collector.time("index.lookup"):
            lists = [self.postings(term) for term in terms]
        if collector.enabled:
            collector.count("index.lookups", len(terms))
            for postings in lists:
                collector.observe("index.postings_length", len(postings))
        return lists

    # -- integrity ---------------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify postings are strictly increasing, ids are in range and
        every id names an ordinary node.

        Keywords match ordinary nodes only: a posting on an IND, MUX or
        EXP node would put its keyword's bit on a frame the stack engine
        never harvests, silently dropping that keyword's matches.

        Raises:
            IndexError_: on any inconsistency (e.g. a stale index loaded
                against a different document).
        """
        kinds = self.encoded.kinds
        size = len(kinds)
        ordinary = NodeType.ORDINARY
        distributional = {node_id for node_id, kind in enumerate(kinds)
                          if kind is not ordinary}
        for term, ids in self._postings.items():
            previous = -1
            for node_id in ids:
                if not 0 <= node_id < size:
                    raise IndexError_(
                        f"term {term!r}: node id {node_id} out of range")
                if node_id <= previous:
                    raise IndexError_(
                        f"term {term!r}: postings not strictly increasing")
                previous = node_id
            if not distributional.isdisjoint(ids):
                node_id = min(distributional.intersection(ids))
                raise IndexError_(
                    f"term {term!r}: node id {node_id} is a "
                    f"{kinds[node_id].value} node; only ordinary nodes "
                    "carry keywords")

    def raw_postings(self) -> Dict[str, array]:
        """Internal postings map (used by storage)."""
        return self._postings


def _label_postings_of(encoded: EncodedDocument) -> Dict[str, array]:
    """Exact-tag postings from the label and kind columns, keys
    casefolded like term postings."""
    keys = [tag.lower() for tag in encoded.tags]
    ordinary = NodeType.ORDINARY
    labels: Dict[str, List[int]] = {}
    for node_id, (kind, tag) in enumerate(zip(encoded.kinds,
                                              encoded.labels)):
        if kind is ordinary:
            labels.setdefault(keys[tag], []).append(node_id)
    return {label: array("q", ids) for label, ids in labels.items()}


def build_index(encoded: EncodedDocument) -> InvertedIndex:
    """Convenience wrapper over :meth:`InvertedIndex.from_document`."""
    return InvertedIndex.from_document(encoded)
