"""The corpus correctness oracle, importable without pytest.

Corpus answers must be bit-identical to single-document brute force
over every document concatenated under one synthetic root
(docs/CORPUS.md).  The tests and the CI corpus job compare against
these helpers; the CI job runs them with only the package installed.
"""

from repro.core.api import topk_search
from repro.corpus import concat_documents
from repro.index.storage import Database


def oracle_rows(documents, keywords, k):
    """Brute force over the concatenation, synthetic root dropped.

    Searches with ``k + 1`` and drops codes shorter than two
    components (the synthetic root, which the corpus merge filters the
    same way), then truncates back to ``k``.
    """
    database = Database.from_document(concat_documents(documents))
    outcome = topk_search(database, list(keywords), k + 1)
    rows = [(str(result.code), result.probability)
            for result in outcome.results
            if len(result.code.positions) >= 2]
    return rows[:k]


def corpus_rows(outcome):
    """An outcome's answers as ``(code, probability)`` rows."""
    return [(str(result.code), result.probability)
            for result in outcome.results]
