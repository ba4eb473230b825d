"""Runtime invariant sanitizer — the dynamic half of ``repro.analysis``.

An opt-in, ASan-style mode that wraps the query engines and asserts the
paper's numeric invariants *live*, at the moment they can break:

* every probability the engines handle stays in ``[0, 1]`` (± epsilon);
* every finalised keyword-distribution table is a genuine probability
  distribution — entries plus excluded mass sum to 1 (Section III-B);
* MUX children's edge probabilities never exceed total mass 1 (Eq. 8);
* the document-order scan sees strictly increasing node ids;
* the top-k heap keeps its heap invariant and never exceeds ``k``;
* every EagerTopK Property 1–5 upper bound dominates the exact PrStack
  probability (checked post-hoc on small inputs, Section IV-B).

Enable it with ``REPRO_SANITIZE=1`` in the environment or
``topk_search(..., sanitize=True)``.  Violations raise
:class:`SanitizerError` carrying the last engine events of the
query's span tree (when its collector carries a
:class:`repro.obs.SpanTracer`), so a failed invariant arrives with the
narrative that led to it.

Like the metrics layer, the default is a no-op: engines hold a
:data:`NULL_SANITIZER` whose ``enabled`` flag guards every hook, so an
unsanitized query pays one attribute test per hook point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.obs.metrics import NULL_COLLECTOR

#: Default tolerance for mass/bound checks (looser than
#: :data:`repro.analysis.numeric.PROB_ATOL`: these compare *derived*
#: sums over thousands of float operations, not sentinels).
DEFAULT_EPSILON = 1e-6

#: Above this many match entries the post-hoc exact bound cross-check
#: is skipped — it re-runs the whole query through PrStack.
EXACT_CHECK_MAX_ENTRIES = 512


class SanitizerError(ReproError):
    """A paper invariant was violated at runtime (sanitize mode)."""


class NullSanitizer:
    """The do-nothing sanitizer: the default on every query path."""

    enabled = False
    epsilon = 0.0
    checks = 0

    __slots__ = ()

    def check_probability(self, value: float, what: str) -> None:
        pass

    def check_table(self, table: Any, what: str) -> None:
        pass

    def check_mux_mass(self, total: float, what: str) -> None:
        pass

    def check_order(self, previous: Any, current: Any) -> None:
        pass

    def check_emission(self, code: Any, probability: float,
                       path_prob: float) -> None:
        pass

    def check_heap(self, entries: Any, best: Any, k: float) -> None:
        pass

    def record_bound(self, code: Any, path_bound: float,
                     node_bound: float) -> None:
        pass

    def verify_bounds(self, exact: Mapping[Any, float]) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {}


#: Shared no-op instance; engines default their ``sanitizer`` to this.
NULL_SANITIZER = NullSanitizer()


class Sanitizer:
    """Live invariant checker threaded through one (or more) queries.

    Args:
        epsilon: absolute tolerance for mass and bound comparisons.
        collector: the query's metrics collector; when it carries a
            :class:`repro.obs.SpanTracer`, violation messages quote
            the last few engine event spans as context.
    """

    enabled = True

    __slots__ = ("epsilon", "collector", "checks", "bounds_recorded")

    def __init__(self, epsilon: float = DEFAULT_EPSILON,
                 collector: Any = NULL_COLLECTOR) -> None:
        if epsilon < 0.0:
            raise ReproError(f"epsilon must be >= 0, got {epsilon!r}")
        self.epsilon = epsilon
        self.collector = collector
        self.checks = 0
        #: ``(code, path_bound, node_bound)`` per bound evaluation,
        #: consumed by :meth:`verify_bounds` after the search.
        self.bounds_recorded: List[Tuple[Any, float, float]] = []

    # -- invariant checks --------------------------------------------------

    def check_probability(self, value: float, what: str) -> None:
        """Assert one probability lies in ``[0, 1]`` (± epsilon)."""
        self.checks += 1
        if not (-self.epsilon <= value <= 1.0 + self.epsilon):
            self._fail(f"{what}: probability {value!r} outside [0, 1]")

    def check_table(self, table: Any, what: str) -> None:
        """Assert a finalised :class:`DistTable` is a distribution.

        Every retained mask probability and the excluded (``lost``)
        mass must lie in [0, 1], and together they must sum to 1 — the
        Section III-B invariant "entry + lost mass always sums to 1".
        """
        self.checks += 1
        for mask, probability in table.masks.items():
            if not (-self.epsilon <= probability <= 1.0 + self.epsilon):
                self._fail(f"{what}: mask {mask:b} probability "
                           f"{probability!r} outside [0, 1]")
        if not (-self.epsilon <= table.lost <= 1.0 + self.epsilon):
            self._fail(f"{what}: lost mass {table.lost!r} outside [0, 1]")
        total = sum(table.masks.values()) + table.lost
        if abs(total - 1.0) > self.epsilon:
            self._fail(f"{what}: table mass {total!r} != 1 "
                       f"(masks={len(table.masks)}, lost={table.lost!r})")

    def check_mux_mass(self, total: float, what: str) -> None:
        """Assert merged MUX edge probabilities sum to at most 1 (Eq. 8)."""
        self.checks += 1
        if total > 1.0 + self.epsilon:
            self._fail(f"{what}: MUX children probabilities sum to "
                       f"{total!r} > 1")
        if total < -self.epsilon:
            self._fail(f"{what}: negative MUX mass {total!r}")

    def check_order(self, previous: Any, current: Any) -> None:
        """Assert the scan's items (preorder node ids, or anything else
        ordered like document order) are strictly increasing."""
        self.checks += 1
        if previous is not None and current <= previous:
            self._fail(f"document-order violation in scan: {current} "
                       f"arrived after {previous}")

    def check_emission(self, code: Any, probability: float,
                       path_prob: float) -> None:
        """Assert an emitted SLCA result respects its path probability.

        ``Pr_slca(v) = Pr(path root->v) * Pr_local`` with a local factor
        in [0, 1], so the global result can never exceed the path
        probability (nor 1).
        """
        self.checks += 1
        if not (-self.epsilon <= probability <= 1.0 + self.epsilon):
            self._fail(f"emitted probability {probability!r} for {code} "
                       "outside [0, 1]")
        if probability > path_prob + self.epsilon:
            self._fail(f"emitted probability {probability!r} for {code} "
                       f"exceeds its path probability {path_prob!r}")

    def check_heap(self, entries: Any, best: Mapping[Any, float],
                   k: float) -> None:
        """Assert the top-k heap invariant and its size bound."""
        self.checks += 1
        if len(best) > k:
            self._fail(f"top-k heap holds {len(best)} results for k={k}")
        for index in range(1, len(entries)):
            parent = (index - 1) // 2
            if entries[index] < entries[parent]:
                self._fail(
                    "top-k heap invariant broken at index "
                    f"{index}: child orders before parent")
        for code, probability in best.items():
            if not (-self.epsilon <= probability <= 1.0 + self.epsilon):
                self._fail(f"heap entry {code} probability "
                           f"{probability!r} outside [0, 1]")

    # -- Eager bound bookkeeping (Properties 1-5) --------------------------

    def record_bound(self, code: Any, path_bound: float,
                     node_bound: float) -> None:
        """Record one candidate bound evaluation, sanity-checking the
        algebraic relations that hold unconditionally."""
        self.checks += 1
        if node_bound > path_bound + self.epsilon:
            self._fail(f"candidate {code}: node bound {node_bound!r} "
                       f"exceeds its path bound {path_bound!r}")
        if node_bound < -self.epsilon or path_bound > 1.0 + self.epsilon:
            self._fail(f"candidate {code}: bounds ({path_bound!r}, "
                       f"{node_bound!r}) outside [0, 1]")
        self.bounds_recorded.append((code, path_bound, node_bound))

    def verify_bounds(self, exact: Mapping[Any, float]) -> None:
        """Assert every recorded Property 1-5 bound dominates the truth.

        ``exact`` maps Dewey codes to exact SLCA probabilities (from an
        exhaustive PrStack run).  Soundness of the pruning machinery
        (:mod:`repro.core.bounds`) requires, for every candidate ``v``
        at every evaluation time: ``node_bound >= Pr_slca(v)`` and
        ``path_bound >= sum of Pr_slca over the path root -> v``.
        """
        for code, path_bound, node_bound in self.bounds_recorded:
            self.checks += 1
            truth = exact.get(code, 0.0)
            if node_bound + self.epsilon < truth:
                self._fail(
                    f"candidate {code}: node bound {node_bound!r} below "
                    f"exact SLCA probability {truth!r} "
                    "(Properties 4-5 unsound)")
            path_truth = sum(exact.get(code.prefix(length), 0.0)
                             for length in range(1, len(code) + 1))
            if path_bound + self.epsilon < path_truth:
                self._fail(
                    f"candidate {code}: path bound {path_bound!r} below "
                    f"exact path mass {path_truth!r} "
                    "(Properties 1-3 unsound)")

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Plain-dict rendering for ``outcome.stats['sanitizer']``."""
        return {"checks": self.checks, "epsilon": self.epsilon,
                "bounds_recorded": len(self.bounds_recorded),
                "violations": 0}

    def _fail(self, message: str) -> None:
        raise SanitizerError(message + self._trace_context())

    def _trace_context(self, limit: int = 5) -> str:
        """The last ``limit`` event spans (zero-duration spans) of the
        collector's tracer, rendered for a violation message."""
        tracer = getattr(self.collector, "tracer", None)
        if tracer is None:
            return ""
        events = [span for span in tracer.export()
                  if not span["duration_ms"]][-limit:]
        if not events:
            return ""
        rendered = " | ".join(
            "{name}({fields})".format(
                name=event["name"],
                fields=", ".join(
                    f"{key}={value}" for key, value
                    in event.get("attrs", {}).items()))
            for event in events)
        return f" [trace tail: {rendered}]"


#: Either sanitizer flavour — engine signatures annotate with this.
SanitizerLike = Union[Sanitizer, NullSanitizer]


def sanitize_from_env(environ: Optional[Mapping[str, str]] = None) -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitize mode.

    Recognised as *off*: unset, empty, ``0``, ``false``, ``no`` (any
    case).  Anything else — conventionally ``1`` — switches it on.
    """
    if environ is None:
        import os
        environ = os.environ
    value = environ.get("REPRO_SANITIZE", "")
    return value.strip().lower() not in ("", "0", "false", "no")
