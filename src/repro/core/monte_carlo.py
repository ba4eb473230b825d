"""Monte-Carlo estimation of SLCA probabilities.

An extension beyond the paper's exact algorithms: sample possible
worlds, run the deterministic SLCA search in each (Equation 1 as a
sample mean), and return estimated top-k answers with standard errors.
Useful as an independent statistical check of the exact algorithms on
documents far too large for exact enumeration, and as a baseline for
the accuracy/cost trade-off.

Each node's estimator is a binomial proportion: with ``n`` sampled
worlds and ``h`` hits, ``p_hat = h / n`` and
``stderr = sqrt(p_hat (1 - p_hat) / n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core import order
from repro.core.result import SearchOutcome, SLCAResult
from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.possible_worlds import sample_possible_world
from repro.slca.deterministic import slca_of_world


@dataclass(frozen=True)
class EstimatedResult:
    """One Monte-Carlo answer: estimate plus its standard error."""

    result: SLCAResult
    standard_error: float
    hits: int
    samples: int


def monte_carlo_search(index: InvertedIndex, keywords: Iterable[str],
                       k: int = 10, samples: int = 1000,
                       rng: Optional[random.Random] = None,
                       collector: Collector = NULL_COLLECTOR
                       ) -> SearchOutcome:
    """Approximate top-k SLCA answers from sampled possible worlds.

    Same contract as the exact algorithms; ``outcome.stats`` carries
    per-answer standard errors under ``"estimates"``.  Estimates
    converge to the exact probabilities at the usual ``1/sqrt(n)``
    rate; ranks of well-separated answers stabilise much earlier.

    Args:
        samples: number of worlds to draw.
        rng: source of randomness (seed it for reproducibility).
        collector: metrics collector; records the sampling timer plus
            worlds-sampled / SLCA-hit counters and the per-world
            answer-count histogram (docs/OBSERVABILITY.md).
    """
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    if samples <= 0:
        raise QueryError(f"samples must be positive, got {samples}")
    terms = index.query_terms(keywords)
    rng = rng or random.Random()
    encoded = index.encoded
    document = encoded.document
    observed = collector.enabled

    hit_counts: Dict[int, int] = {}
    with collector.time("monte_carlo.sampling"):
        for _ in range(samples):
            world = sample_possible_world(document, rng)
            answers = 0
            for det_node in slca_of_world(world.root, terms):
                node_id = det_node.source_id
                hit_counts[node_id] = hit_counts.get(node_id, 0) + 1
                answers += 1
            if observed:
                collector.observe("monte_carlo.world_answers", answers)
    if observed:
        collector.count("monte_carlo.worlds_sampled", samples)
        collector.count("monte_carlo.slca_hits",
                        sum(hit_counts.values()))

    estimates: List[EstimatedResult] = []
    for node_id, hits in hit_counts.items():
        p_hat = hits / samples
        stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
        result = SLCAResult(code=encoded.code(node_id),
                            probability=p_hat,
                            node=document.node_by_id(node_id))
        estimates.append(EstimatedResult(result, stderr, hits, samples))

    estimates.sort(key=lambda e: order.sort_key(e.result))
    top = estimates[:k]
    stats = {
        "algorithm": "monte_carlo",
        "samples": samples,
        "distinct_answers": len(estimates),
        "estimates": top,
    }
    if observed:
        stats["metrics"] = collector.snapshot()
    return SearchOutcome(results=[e.result for e in top], stats=stats)
