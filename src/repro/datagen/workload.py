"""Random keyword-query workloads with controlled selectivity.

The paper evaluates 15 hand-picked queries (Table III).  For broader
studies this module samples reproducible workloads directly from an
index's term statistics: queries with a chosen number of terms whose
document frequencies fall in a chosen band, optionally required to
have at least one co-occurring answer so the workload is never vacuous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex
from repro.slca.indexed_lookup import indexed_lookup_eager


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a sampled workload."""

    queries: int = 10
    terms_per_query: int = 2
    min_frequency: int = 2
    max_frequency: Optional[int] = None  # None = no upper bound
    require_answers: bool = True


def eligible_terms(index: InvertedIndex, spec: WorkloadSpec) -> List[str]:
    """Vocabulary terms whose document frequency fits the spec."""
    terms = []
    for term in index.vocabulary():
        frequency = index.document_frequency(term)
        if frequency < spec.min_frequency:
            continue
        if spec.max_frequency is not None \
                and frequency > spec.max_frequency:
            continue
        terms.append(term)
    return terms


def sample_workload(index: InvertedIndex,
                    spec: WorkloadSpec = WorkloadSpec(),
                    rng: Optional[random.Random] = None,
                    max_attempts: int = 1000) -> List[List[str]]:
    """Draw ``spec.queries`` distinct keyword queries from the index.

    With ``require_answers`` each query is checked to have at least one
    traditional SLCA on the match skeleton (a necessary condition for
    non-empty probabilistic answers, and sufficient on the skeleton).

    Raises:
        QueryError: if the vocabulary cannot satisfy the spec within
            ``max_attempts`` draws.
    """
    if spec.queries <= 0 or spec.terms_per_query <= 0:
        raise QueryError("workload spec must be positive")
    rng = rng or random.Random()
    pool = eligible_terms(index, spec)
    if len(pool) < spec.terms_per_query:
        raise QueryError(
            f"only {len(pool)} terms match the frequency band; "
            f"cannot build {spec.terms_per_query}-term queries")

    workload: List[List[str]] = []
    seen = set()
    for _ in range(max_attempts):
        if len(workload) >= spec.queries:
            break
        query = sorted(rng.sample(pool, spec.terms_per_query))
        key = tuple(query)
        if key in seen:
            continue
        seen.add(key)
        if spec.require_answers and not _has_skeleton_answer(index, query):
            continue
        workload.append(query)
    if len(workload) < spec.queries:
        raise QueryError(
            f"found only {len(workload)}/{spec.queries} satisfiable "
            f"queries in {max_attempts} attempts; relax the spec")
    return workload


def _has_skeleton_answer(index: InvertedIndex,
                         terms: Sequence[str]) -> bool:
    return bool(indexed_lookup_eager(
        index.encoded, [index.postings(term) for term in terms]))
