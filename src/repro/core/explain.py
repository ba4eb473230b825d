"""Explaining one node's SLCA probability — and one query's execution.

``explain_result`` recomputes a single node's keyword distribution
table (Section III-B) and decomposes its global probability into the
two factors of Equation 2 — ``Pr(path_root->v)`` and the local
``Pr^L_slca`` — with the per-mask distribution spelled out against the
query terms.  This is the library's answer to "why is this node ranked
here?", and doubles as a worked-example generator for the paper's
Examples 3-6.

``profile_lines`` is the companion answer to "why was this query fast
(or slow)?": it renders an instrumented :class:`SearchOutcome`'s
counters, timers and histograms, then the query's span tree with its
engine events — the CLI's ``--profile`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.engine import StackEngine
from repro.core.result import SearchOutcome
from repro.encoding.dewey import DeweyCode
from repro.exceptions import EncodingError, QueryError
from repro.index.inverted import InvertedIndex
from repro.index.matchlist import MatchList, build_match_entries
from repro.obs.spans import render_span_tree
from repro.prxml.model import PNode


@dataclass
class Explanation:
    """Why a node has its SLCA probability."""

    code: DeweyCode
    node: PNode
    terms: List[str]
    path_probability: float
    local_slca_probability: float
    global_slca_probability: float
    #: Post-harvest keyword distribution: term subset -> probability.
    distribution: Dict[Tuple[str, ...], float] = field(
        default_factory=dict)
    #: Probability that an ordinary descendant already covers all terms
    #: (mass excluded from this node and all of its ancestors).
    excluded_below: float = 0.0

    def lines(self) -> List[str]:
        """Human-readable rendering (used by the CLI and examples)."""
        out = [
            f"node <{self.node.label}> at {self.code}",
            f"  Pr(path root->v)   = {self.path_probability:.6g}",
            f"  Pr_local(SLCA)     = {self.local_slca_probability:.6g}",
            f"  Pr_global(SLCA)    = {self.global_slca_probability:.6g}"
            "   (= path x local, Equation 2)",
            "  keyword distribution of the subtree (given v exists):",
        ]
        for subset, probability in sorted(self.distribution.items(),
                                          key=lambda kv: -kv[1]):
            label = "{" + ", ".join(subset) + "}" if subset else "{}"
            out.append(f"    contains exactly {label:<30} "
                       f"p = {probability:.6g}")
        if self.excluded_below:
            out.append(f"    SLCA already below{'':<21} "
                       f"p = {self.excluded_below:.6g}")
        return out


def explain_result(index: InvertedIndex, keywords: Iterable[str],
                   code: DeweyCode) -> Explanation:
    """Recompute and decompose one node's SLCA probability.

    Raises:
        QueryError: if ``code`` does not denote an ordinary node of the
            indexed document.
    """
    encoded = index.encoded
    try:
        node_id = encoded.id_at(code.positions)
    except EncodingError:
        raise QueryError(f"no node at {code} in this document") from None
    node = encoded.document.node_by_id(node_id)
    if not node.is_ordinary:
        raise QueryError(
            f"{code} is a {node.node_type.value} node; only ordinary "
            "nodes can be SLCA answers")

    terms = index.query_terms(keywords)
    ids, masks = build_match_entries(index, terms)
    full_mask = (1 << len(terms)) - 1
    matches = MatchList(encoded, ids, masks)

    harvested: Dict[int, float] = {}
    engine = StackEngine(full_mask, harvested.__setitem__, encoded,
                         context_length=encoded.depths[node_id] - 1)
    lo, hi = matches.subtree_slice(node_id)
    engine.scan(ids[lo:hi], masks[lo:hi])
    table = engine.finish_candidate()

    path_probability = encoded.paths[node_id]
    global_probability = harvested.get(node_id, 0.0)
    local_probability = (global_probability / path_probability
                         if path_probability else 0.0)

    def subset(mask: int) -> Tuple[str, ...]:
        return tuple(term for bit, term in enumerate(terms)
                     if mask & (1 << bit))

    excluded_below = table.lost - local_probability
    return Explanation(
        code=code,
        node=node,
        terms=terms,
        path_probability=path_probability,
        local_slca_probability=local_probability,
        global_slca_probability=global_probability,
        distribution={subset(mask): probability
                      for mask, probability in table.items()},
        excluded_below=max(0.0, excluded_below),
    )


def profile_lines(outcome: SearchOutcome,
                  spans: Optional[List[Dict[str, object]]] = None
                  ) -> List[str]:
    """Render an instrumented outcome's metrics and span tree.

    Consumes the ``stats["metrics"]`` snapshot that
    :func:`repro.core.api.topk_search` attaches when given a collector,
    and ``spans``, the export of the collector's
    :class:`repro.obs.SpanTracer` (engine events are its zero-duration
    spans); degrades gracefully (one explanatory line) on an
    uninstrumented outcome.
    """
    metrics = outcome.metrics
    if not metrics:
        return ["profile: no metrics were collected "
                "(run with a MetricsCollector / --profile)"]
    lines = ["profile"]
    counters = metrics.get("counters", {})
    if counters:
        lines.append("  counters")
        width = max(len(name) for name in counters)
        lines.extend(f"    {name:<{width}}  {value:,}"
                     for name, value in counters.items())
    timers = metrics.get("timers", {})
    if timers:
        lines.append("  timers (ms)")
        width = max(len(name) for name in timers)
        lines.extend(
            f"    {name:<{width}}  n={summary['count']:<6} "
            f"sum={summary['sum']:.3f} mean={summary['mean']:.3f}"
            for name, summary in timers.items())
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("  histograms")
        width = max(len(name) for name in histograms)
        lines.extend(
            f"    {name:<{width}}  n={summary['count']:<6} "
            f"min={summary['min']:g} mean={summary['mean']:g} "
            f"max={summary['max']:g}"
            for name, summary in histograms.items())
    if spans is not None:
        lines.append(f"  spans ({len(spans)})")
        lines.extend(render_span_tree(spans))
    return lines
