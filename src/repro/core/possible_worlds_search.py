"""The naive baseline: evaluate the query in every possible world.

This is the "straightforward solution" Section II dismisses as
infeasible: generate all possible worlds, run a deterministic SLCA
search in each, and sum world probabilities per answer node
(Equation 1).  It is exponential in the number of distributional nodes,
so it serves two purposes only — the ground-truth oracle for the test
suite and the baseline of the infeasibility ablation benchmark.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core import order
from repro.core.result import SearchOutcome, SLCAResult
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import Collector, NULL_COLLECTOR


def possible_worlds_search(index: InvertedIndex, keywords: Iterable[str],
                           k: int = 10,
                           max_worlds: Optional[int] = None,
                           elca: bool = False,
                           collector: Collector = NULL_COLLECTOR
                           ) -> SearchOutcome:
    """Exact top-k SLCA answers by explicit possible-world enumeration.

    Same contract as :func:`repro.core.prstack.prstack_search`
    (including the ``elca`` extension switch and the metrics
    ``collector``); raises :class:`repro.exceptions.ModelError` when
    the document encodes more than ``max_worlds`` raw worlds (by
    default :data:`repro.prxml.possible_worlds.DEFAULT_MAX_WORLDS`).
    The world enumeration and the deterministic SLCA it runs are
    imported here, on first use: a server never runs the oracle.
    """
    from repro.prxml.possible_worlds import (DEFAULT_MAX_WORLDS,
                                             enumerate_possible_worlds)
    from repro.slca.deterministic import elca_of_world, slca_of_world
    if max_worlds is None:
        max_worlds = DEFAULT_MAX_WORLDS
    if k <= 0:
        from repro.exceptions import QueryError
        raise QueryError(f"k must be positive, got {k}")
    terms = index.query_terms(keywords)
    encoded = index.encoded
    with collector.time("possible_worlds.enumerate"):
        worlds = enumerate_possible_worlds(encoded.document, max_worlds)
    answers_of_world = elca_of_world if elca else slca_of_world

    probability_of: Dict[int, float] = {}
    with collector.time("possible_worlds.scan"):
        for world in worlds:
            for det_node in answers_of_world(world.root, terms):
                node_id = det_node.source_id
                probability_of[node_id] = (
                    probability_of.get(node_id, 0.0) + world.probability)
    if collector.enabled:
        collector.count("possible_worlds.worlds", len(worlds))
        collector.count("possible_worlds.distinct_answers",
                        len(probability_of))

    results = [
        SLCAResult(code=encoded.code(node_id), probability=probability,
                   node=encoded.document.node_by_id(node_id))
        for node_id, probability in probability_of.items()
    ]
    results.sort(key=order.sort_key)
    return SearchOutcome(
        results=results[:k],
        stats={
            "algorithm": "possible_worlds",
            "semantics": "elca" if elca else "slca",
            "worlds": len(worlds),
            "distinct_answers": len(results),
        },
    )
