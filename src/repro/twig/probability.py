"""Direct twig probability computation (no possible worlds).

The same bottom-up machinery as the keyword algorithms, with a richer
state: instead of "which keywords does the subtree contain", each
document node's table tracks the distribution of a *pattern-state
vector* with two bits per pattern step ``q``:

* ``at(q)``  — the pattern subtree rooted at ``q`` embeds with ``q``
  mapped exactly at this node;
* ``ex(q)``  — it embeds with ``q`` mapped at-or-below this node.

Sibling subtrees combine exactly like keyword masks (OR-convolution
under IND/ordinary parents, addition under MUX, subset combination
under EXP) because both bits aggregate across siblings by OR.  At an
ordinary node the aggregate is then passed through a deterministic
transform: ``at`` bits are re-derived from the node's own tests and the
children's bits (child axis reads the children's ``at``, descendant
axis their ``ex``), and ``ex`` bits are carried upward.  Distributional
nodes apply no transform — their children splice up to the closest
ordinary ancestor, so their aggregates pass through untouched, which is
exactly what the possible-world semantics requires.

Ranked answers follow reference [10]'s semantics: each ordinary node is
scored with the probability that the whole pattern embeds *rooted at
it*, independently of other bindings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.distribution import DistTable
from repro.core.engine import ResultSink, StackEngine
from repro.core.heap import TopKHeap
from repro.core.result import SearchOutcome, SLCAResult
from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex
from repro.twig.pattern import CHILD, TwigPattern, parse_twig

#: Twig answers reuse the generic result record.
TwigResult = SLCAResult


class _TwigStep:
    """The twig engine's ordinary-node step: the pattern transform.

    Plugged into :class:`StackEngine` as its ``ordinary_step``: the
    node's ``self_mask`` is its *test mask* (which steps' node-local
    tests it satisfies), and the node is an answer with the probability
    mass whose post-transform state has the pattern root's ``at`` bit.
    """

    def __init__(self, pattern: TwigPattern):
        self.pattern = pattern
        self._root_at_bit = 1 << (2 * pattern.root.index)
        self._transform_cache: Dict[Tuple[int, int], int] = {}

    def __call__(self, table: DistTable, test_mask: int) -> float:
        cache = self._transform_cache

        def remap(aggregate: int) -> int:
            key = (aggregate, test_mask)
            value = cache.get(key)
            if value is None:
                value = cache[key] = self._transform(aggregate, test_mask)
            return value

        table.transform(remap)
        return sum(probability for mask, probability in table.items()
                   if mask & self._root_at_bit)

    def _transform(self, aggregate: int, test_mask: int) -> int:
        """One node's output state from its children's OR-aggregate."""
        out = 0
        for step in self.pattern.nodes:
            at_bit = 1 << (2 * step.index)
            ex_bit = at_bit << 1
            if test_mask & (1 << step.index):
                satisfied = True
                for branch in step.children:
                    branch_at = 1 << (2 * branch.index)
                    needed = branch_at if branch.axis == CHILD \
                        else branch_at << 1
                    if not aggregate & needed:
                        satisfied = False
                        break
                if satisfied:
                    out |= at_bit
            if out & at_bit or aggregate & ex_bit:
                out |= ex_bit
        return out


def _twig_engine(index: InvertedIndex, pattern: TwigPattern,
                 sink: ResultSink) -> StackEngine:
    """A stack engine over the pattern-state vectors of ``pattern``."""
    state_bits = (1 << (2 * len(pattern))) - 1
    engine = StackEngine(state_bits, sink, index.encoded,
                         ordinary_step=_TwigStep(pattern))
    engine.scan(*_candidate_entries(index, pattern))
    return engine


def _candidate_entries(index: InvertedIndex, pattern: TwigPattern
                       ) -> Tuple[List[int], List[int]]:
    """The node ids matching some step test, in document order, and
    their test masks."""
    masks: Dict[int, int] = {}
    document = index.encoded.document
    for step in pattern.nodes:
        if step.is_wildcard:
            ids: Iterable[int] = index.ordinary_ids()
        elif step.label != "*":
            ids = index.label_postings(step.label)
        else:
            # '*' with a text test: term postings over-approximate.
            ids = index.postings(step.text_term or "")
        bit = 1 << step.index
        for node_id in ids:
            node = document.node_by_id(node_id)
            if node.is_ordinary and step.matches(node):
                masks[node_id] = masks.get(node_id, 0) | bit
    ids = sorted(masks)
    return ids, [masks[node_id] for node_id in ids]


def topk_twig_search(index: InvertedIndex, pattern, k: int = 10
                     ) -> SearchOutcome:
    """The ``k`` nodes most likely to root an embedding of ``pattern``.

    Args:
        index: inverted index over an encoded p-document.
        pattern: a :class:`TwigPattern` or its textual form.
        k: number of bindings wanted.

    Returns:
        A :class:`SearchOutcome` of binding nodes scored by
        ``P(pattern embeds rooted at the node)``, hydrated with the
        p-document nodes.
    """
    pattern = _as_pattern(pattern)
    heap = TopKHeap(k)
    engine = _twig_engine(index, pattern, heap.offer)
    engine.finish()
    outcome = SearchOutcome(stats={
        "algorithm": "twig",
        "pattern": str(pattern),
        "steps": len(pattern),
        "candidates": engine.items_fed,
    })
    encoded = index.encoded
    outcome.results = [
        TwigResult(code=encoded.code(node_id), probability=probability,
                   node=encoded.document.node_by_id(node_id))
        for node_id, probability in heap.ranked()
    ]
    return outcome


def twig_match_probability(index: InvertedIndex, pattern) -> float:
    """Probability that the pattern embeds *anywhere* in a random
    possible world (the twig-matching probability of reference [8])."""
    pattern = _as_pattern(pattern)
    engine = _twig_engine(index, pattern, lambda node, probability: None)
    # The document root is the engine's bottom frame: its table is the
    # whole document's state distribution.
    table = engine.finish_candidate()
    root_ex_bit = 1 << (2 * pattern.root.index + 1)
    return sum(probability for mask, probability in table.items()
               if mask & root_ex_bit)


def _as_pattern(pattern) -> TwigPattern:
    if isinstance(pattern, TwigPattern):
        return pattern
    if isinstance(pattern, str):
        return parse_twig(pattern)
    raise QueryError(
        f"expected a TwigPattern or pattern string, got "
        f"{type(pattern).__name__}")
