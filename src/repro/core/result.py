"""Result types of a top-k probabilistic SLCA search."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.encoding.dewey import DeweyCode
from repro.encoding.encoder import EncodedDocument
from repro.prxml.model import PNode


class SLCAResult:
    """One answer: an ordinary node and its global SLCA probability.

    ``probability`` is ``Pr^G_slca(v)`` of Equation 1 — the total
    probability of the possible worlds in which the node is an SLCA.
    ``label`` is the node's tag, read from the encoding's label column
    (it falls back to the code when neither a label nor a node is
    known).  ``node`` is the p-document node: given directly, or looked
    up on first access from ``origin`` — the encoded document the
    answer came from and the node's code in it — so answers that are
    only labelled and serialised never build the tree.

    An answer is read-only (``code``, ``probability`` and ``label``
    are properties without setters): the service's result cache hands
    the same answers to every replay of a query, so no caller may
    change one.  It pickles as its code, probability and label; the
    node link is local to the process that computed it.
    """

    __slots__ = ("_code", "_probability", "_label", "_node", "_origin")

    def __init__(self, code: DeweyCode, probability: float,
                 node: Optional[PNode] = None, label: Optional[str] = None,
                 origin: "Optional[Tuple[EncodedDocument, DeweyCode]]"
                 = None):
        self._code = code
        self._probability = probability
        if label is None:
            label = node.label if node is not None else str(code)
        self._label = label
        self._node = node
        self._origin = origin

    @property
    def code(self) -> DeweyCode:
        return self._code

    @property
    def probability(self) -> float:
        return self._probability

    @property
    def label(self) -> str:
        return self._label

    def __reduce__(self) -> Tuple[type, Tuple[DeweyCode, float, None, str]]:
        return (SLCAResult, (self._code, self._probability, None,
                             self._label))

    @property
    def node(self) -> Optional[PNode]:
        """The answer's p-document node (``None`` when unknown)."""
        if self._node is None and self._origin is not None:
            encoded, code = self._origin
            self._node = encoded.node_at(code)
        return self._node

    def relocated(self, code: DeweyCode) -> "SLCAResult":
        """The same answer under another code (a corpus shard's answer
        in global document positions); its node stays reachable."""
        return SLCAResult(code, self._probability, self._node,
                          self._label, self._origin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SLCAResult):
            return NotImplemented
        return (self._code, self._probability, self._label) \
            == (other._code, other._probability, other._label)

    def __hash__(self) -> int:
        return hash((self._code, self._probability))

    def __repr__(self) -> str:
        return (f"SLCAResult(code={self.code!r}, "
                f"probability={self.probability!r}, label={self.label!r})")

    def __str__(self) -> str:
        return f"{self.label} [{self.code}] p={self.probability:.6g}"


def ranked_results(encoded: EncodedDocument,
                   ranked: Iterable[Tuple[int, float]]) -> List[SLCAResult]:
    """Answers for ranked ``(node_id, probability)`` pairs, each with
    the Dewey code built from ``encoded``'s columns and the label from
    its label column; the node is looked up only if asked for."""
    code_of, tags, labels = encoded.code, encoded.tags, encoded.labels
    results = []
    for node, probability in ranked:
        code = code_of(node)
        results.append(SLCAResult(code, probability,
                                  label=tags[labels[node]],
                                  origin=(encoded, code)))
    return results


@dataclass
class SearchOutcome:
    """Top-k answers plus the counters the experiments report.

    Attributes:
        results: answers sorted by descending probability (ties broken
            by document order); at most ``k``, fewer when fewer nodes
            have non-zero probability (the paper returns only those).
            A result-cache replay holds them as a tuple that every
            replay of the query shares.
        stats: free-form instrumentation counters (entries scanned,
            candidates pruned, tables merged, ...), filled in by each
            algorithm and consumed by the benchmark harness.  When the
            query ran with a metrics collector, ``stats["metrics"]``
            holds its snapshot (see docs/OBSERVABILITY.md for the
            layout).
        partial: True when the search stopped before convergence — a
            :class:`repro.resilience.Deadline` expired mid-scan, or the
            service substituted an error outcome for a failed query.
            Partial results are a sound *anytime* answer: every
            returned probability is exact for its node, and the set is
            a rank-wise lower bound of the complete answer
            (docs/RESILIENCE.md).  Always False for a converged search.
        termination_reason: why the search stopped — ``"complete"``
            (the default), ``"deadline"`` / ``"step_budget"`` (budget
            expiry) or ``"error"`` (a service-layer error outcome; the
            message is in ``stats["error"]``).
    """

    results: Sequence[SLCAResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    partial: bool = False
    termination_reason: str = "complete"

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def metrics(self) -> dict:
        """The collector snapshot ({} when run uninstrumented)."""
        return self.stats.get("metrics", {})

    def probabilities(self) -> List[float]:
        """Result probabilities, best first."""
        return [result.probability for result in self.results]

    def codes(self) -> List[DeweyCode]:
        """Result codes, best first."""
        return [result.code for result in self.results]


class EncodedAnswer(NamedTuple):
    """The JSON of the ``/search`` response fields one outcome fixes.

    Exactly the bytes ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` writes for them, split where the
    per-request ``spans`` field sorts in: ``head`` is
    ``"partial":…,"results":[…],"service_state":…`` and ``tail`` is
    ``"termination_reason":…``.  The service's result cache makes one
    per entry when it caches an answer, so a replay's body is a splice
    (:func:`repro.serve.protocol.search_body`), not an encode.
    """

    head: bytes
    tail: bytes


def encode_answer(outcome: SearchOutcome) -> EncodedAnswer:
    """Encode the response fields ``outcome`` fixes (see
    :class:`EncodedAnswer`): its answers, completeness and the service
    state in its stats.  A probability is finite, so its JSON is its
    ``repr``."""
    answers = ",".join(
        '{"code":%s,"label":%s,"probability":%r}'
        % (_json_string(str(result.code)), _json_string(result.label),
           result.probability)
        for result in outcome.results)
    state = json.dumps(outcome.stats.get("service_state"),
                       sort_keys=True, separators=(",", ":"))
    head = '"partial":%s,"results":[%s],"service_state":%s' % (
        json.dumps(outcome.partial), answers, state)
    tail = '"termination_reason":' + json.dumps(outcome.termination_reason)
    return EncodedAnswer(head.encode("ascii"), tail.encode("ascii"))
