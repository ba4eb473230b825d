"""Result types of a top-k probabilistic SLCA search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.encoding.dewey import DeweyCode
from repro.encoding.encoder import EncodedDocument
from repro.prxml.model import PNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import TraceRecorder


@dataclass(frozen=True)
class SLCAResult:
    """One answer: an ordinary node and its global SLCA probability.

    ``probability`` is ``Pr^G_slca(v)`` of Equation 1 — the total
    probability of the possible worlds in which the node is an SLCA.
    """

    code: DeweyCode
    probability: float
    node: Optional[PNode] = None

    @property
    def label(self) -> str:
        """The answer node's tag (falls back to its code)."""
        return self.node.label if self.node is not None else str(self.code)

    def __str__(self) -> str:
        return f"{self.label} [{self.code}] p={self.probability:.6g}"


def ranked_results(encoded: EncodedDocument,
                   ranked: Iterable[Tuple[int, float]]) -> List[SLCAResult]:
    """Answers for ranked ``(node_id, probability)`` pairs, each with
    the Dewey code built from ``encoded``'s columns."""
    code = encoded.code
    return [SLCAResult(code=code(node), probability=probability)
            for node, probability in ranked]


@dataclass
class SearchOutcome:
    """Top-k answers plus the counters the experiments report.

    Attributes:
        results: answers sorted by descending probability (ties broken
            by document order); at most ``k``, fewer when fewer nodes
            have non-zero probability (the paper returns only those).
        stats: free-form instrumentation counters (entries scanned,
            candidates pruned, tables merged, ...), filled in by each
            algorithm and consumed by the benchmark harness.  When the
            query ran with a metrics collector, ``stats["metrics"]``
            holds its snapshot and — with tracing on —
            ``stats["trace"]`` the live
            :class:`repro.obs.TraceRecorder` (see
            docs/OBSERVABILITY.md for the layout).
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

    results: List[SLCAResult] = field(default_factory=list)
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

    @property
    def trace(self) -> "Optional[TraceRecorder]":
        """The recorded trace (None unless run with ``trace=True``)."""
        return self.stats.get("trace")

    def probabilities(self) -> List[float]:
        """Result probabilities, best first."""
        return [result.probability for result in self.results]

    def codes(self) -> List[DeweyCode]:
        """Result codes, best first."""
        return [result.code for result in self.results]
