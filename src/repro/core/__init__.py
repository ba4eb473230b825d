"""The paper's contribution: top-k probabilistic SLCA keyword search.

* :mod:`repro.core.distribution` — keyword distribution tables and the
  IND / MUX / ordinary promotion-and-merge rules (Section III-B);
* :mod:`repro.core.prstack` — the PrStack algorithm (Algorithm 1) and
  threshold search on its scan;
* :mod:`repro.core.eager` — the EagerTopK algorithm (Algorithm 2);
* :mod:`repro.core.bounds` — the five pruning properties (Section IV-B);
* :mod:`repro.core.possible_worlds_search` — the naive baseline;
* :mod:`repro.core.api` — the public entry point :func:`topk_search`.
"""

from repro._lazy import lazy_exports
from repro.core.result import SLCAResult, SearchOutcome
from repro.core.distribution import DistTable
from repro.core.heap import TopKHeap
from repro.core.prstack import prstack_search, threshold_search
from repro.core.eager import eager_topk_search
from repro.core.possible_worlds_search import possible_worlds_search
from repro.core.api import Algorithm, topk_search

# The tree-walking tools load on first use: the search path (and so a
# server) never needs them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.monte_carlo": ("EstimatedResult", "monte_carlo_search"),
    "repro.core.explain": ("Explanation", "explain_result",
                           "profile_lines"),
})

__all__ = [
    "SLCAResult",
    "SearchOutcome",
    "DistTable",
    "TopKHeap",
    "prstack_search",
    "eager_topk_search",
    "possible_worlds_search",
    "monte_carlo_search",
    "EstimatedResult",
    "threshold_search",
    "explain_result",
    "profile_lines",
    "Explanation",
    "Algorithm",
    "topk_search",
]
