"""Seeded chaos harness: faults against a *live served* corpus.

The resilience layers each carry their own tests, but the properties
that matter compose: replica failover under a breaker, hedging under a
deadline, torn reads under clock skew — all at once, through the real
HTTP front door.  :func:`run_chaos` drives exactly that composition
and asserts the system's end-to-end invariants, the ones every
resilience feature exists to protect:

1. **Every query is answered** — faults degrade, they never turn into
   a 5xx or an unanswered request.
2. **Non-partial answers are bit-identical** to a fault-free oracle
   computed over the same corpus before any fault is armed.  (A
   replica is a perfect substitute — docs/CORPUS.md — so no amount of
   failover or hedging may change a complete answer.)
3. **No deadline overshoot** beyond an epsilon: a request carrying
   ``deadline_ms`` returns within ``deadline_ms + epsilon_ms`` of
   wall clock, no matter which faults strike.
4. **Counters stay consistent** — a hedge that fired was either won
   or lost, never both; replica breaker state reflects the injected
   failures.

Each phase builds a fresh :class:`~repro.corpus.CorpusService` (thread
scatter, replica routing, optional hedging) behind
:func:`repro.serve.start_in_thread`, replays the same seeded workload
over HTTP, and records violations instead of raising — the report
(format ``repro.chaos/v1``) names every broken invariant, and the CLI
(``repro chaos``) exits non-zero iff any were found.

Phases, in order:

``baseline``
    No faults.  Establishes that the served corpus reproduces the
    oracle at all (a failing baseline voids the other phases).
``replica-down``
    Mid-run, the replica each shard is *currently being served by*
    (its router's preferred pick) is killed via an injected
    ``replica_down`` fault (:meth:`FaultInjector.inject` on the live
    injector) — targeting the routing favourite guarantees the kill
    lands on the very next visit.  Invariants: the kills strike, and
    zero PARTIAL answers — failover must absorb the loss completely.
``slow-replica-hedge``
    Primaries straggle (``slow_replica``); a fixed-trigger hedge
    policy re-issues the visit to the healthy replica.  Invariants:
    hedges fire, answers stay bit-identical, and no answered query's
    wall clock reaches the straggle — an unhedged visit to the
    straggler waits at least that long, so the hedge must cut the
    tail below it.
``torn-skew``
    Seeded-rate ``torn_replica`` reads race ``clock_skew_ms`` budget
    shrinkage.  Invariants: everything answers; partial answers are
    honestly marked; complete answers match the oracle.

The workload derives from the corpus's own persisted per-term bounds
(``BOUNDS.json``), so every chaos run queries terms the corpus really
contains; ``seed`` fixes the workload, the fault RNG and therefore the
whole run.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.corpus.builder import load_corpus_manifest, read_bounds
from repro.corpus.replication import HedgePolicy
from repro.corpus.service import CorpusService
from repro.exceptions import QueryError
from repro.obs.metrics import MetricsCollector, Stopwatch
from repro.resilience.faults import (Fault, FaultInjector, FaultsLike,
                                     NULL_FAULTS)

#: Report format tag (versioned like every other JSON artifact).
CHAOS_FORMAT = "repro.chaos/v1"

#: Default whole-request deadline each chaos query carries.
DEFAULT_DEADLINE_MS = 1500.0

#: Default slack on invariant 3 — covers HTTP framing, executor queue
#: hand-off and scheduler jitter on a loaded CI box.
DEFAULT_EPSILON_MS = 750.0

#: Default ``slow_replica`` straggle, chosen to dwarf the hedge
#: trigger while staying far inside the deadline.
DEFAULT_SLOW_MS = 400.0

#: Default fixed hedge trigger for the ``slow-replica-hedge`` phase.
DEFAULT_HEDGE_MS = 60.0


def _workload(corpus_dir: str, seed: int,
              queries: int) -> List[Tuple[str, ...]]:
    """A seeded query list drawn from the corpus's own bounds terms,
    so every query names terms the corpus actually contains."""
    import random
    manifest = load_corpus_manifest(corpus_dir)
    terms: set = set()
    for position in range(manifest.shard_count):
        payload = read_bounds(manifest.shard_dir(position))
        if payload and isinstance(payload.get("terms"), dict):
            terms.update(str(term) for term in payload["terms"])
    pool = sorted(terms)
    if not pool:
        raise QueryError(f"corpus {corpus_dir} has no bounds terms to "
                         f"build a chaos workload from")
    rng = random.Random(seed)
    workload: List[Tuple[str, ...]] = []
    for _ in range(queries):
        count = min(len(pool), rng.choice((1, 1, 2)))
        workload.append(tuple(rng.sample(pool, count)))
    return workload


def _post_search(port: int, payload: Dict[str, Any],
                 timeout_s: float = 30.0
                 ) -> Tuple[int, Dict[str, Any]]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout_s)
    try:
        connection.request("POST", "/search",
                           body=json.dumps(payload).encode("utf-8"))
        response = connection.getresponse()
        body = json.loads(response.read().decode("utf-8"))
        return response.status, body
    finally:
        connection.close()


def _rows(payload: Dict[str, Any]) -> List[Tuple[str, str]]:
    """Bit-exact comparison key for one answer list: Dewey code plus
    shortest-exact float repr (the serving layer's wire contract)."""
    return [(str(row["code"]), repr(float(row["probability"])))
            for row in payload.get("results", ())]


def _oracle(corpus_dir: str,
            workload: Sequence[Tuple[str, ...]],
            k: int) -> Dict[Tuple[str, ...], List[Tuple[str, str]]]:
    """Fault-free expected answers: a clean serial service, no
    deadline, computed before any fault is armed."""
    service = CorpusService(corpus_dir)
    oracle: Dict[Tuple[str, ...], List[Tuple[str, str]]] = {}
    for query in workload:
        if query in oracle:
            continue
        outcome = service.search(list(query), k=k)
        oracle[query] = [(str(result.code),
                          repr(float(result.probability)))
                         for result in outcome.results]
    return oracle


class _Phase:
    """One chaos phase: a served corpus, a workload replay, and the
    invariant ledger."""

    def __init__(self, name: str, corpus_dir: str,
                 oracle: Dict[Tuple[str, ...], List[Tuple[str, str]]],
                 k: int, deadline_ms: float, epsilon_ms: float,
                 faults: FaultsLike = NULL_FAULTS,
                 hedge: Optional[HedgePolicy] = None,
                 require_no_partial: bool = False,
                 require_hedges: bool = False,
                 tail_ms: Optional[float] = None,
                 arm_at: Optional[int] = None,
                 arm: Union[str, Sequence[Fault]] = ()) -> None:
        self.name = name
        self.corpus_dir = corpus_dir
        self.oracle = oracle
        self.k = k
        self.deadline_ms = deadline_ms
        self.epsilon_ms = epsilon_ms
        self.faults = faults
        self.hedge = hedge
        self.require_no_partial = require_no_partial
        self.require_hedges = require_hedges
        self.tail_ms = tail_ms
        self.arm_at = arm_at
        self.arm = arm if isinstance(arm, str) else tuple(arm)

    def _arm_faults(self, service: CorpusService) -> List[Fault]:
        """The faults to inject at ``arm_at``.

        The ``"kill-serving-replica"`` sentinel targets, per shard,
        the replica its router currently prefers (mirroring the
        selector's own ranking: cold first, then lowest EWMA, then
        index) — so the kill is guaranteed to land on the very next
        visit.  Killing a replica the routing would never look at
        again proves nothing about failover.
        """
        if not isinstance(self.arm, str):
            return list(self.arm)
        faults: List[Fault] = []
        for shard, stats in sorted(service.replica_stats().items()):
            def rank(index: int) -> Tuple[int, float, int]:
                ewma = stats[index]["ewma_ms"]
                return (0 if ewma is None else 1,
                        float(ewma) if ewma is not None else 0.0,
                        index)

            favorite = stats[min(range(len(stats)), key=rank)]
            faults.append(Fault(
                kind="replica_down",
                target=f"{shard}/{favorite['name']}",
                message="chaos: serving replica killed"))
        return faults

    def run(self, workload: Sequence[Tuple[str, ...]]
            ) -> Dict[str, Any]:
        from repro.serve import ServeConfig, start_in_thread
        collector = MetricsCollector()
        service = CorpusService(self.corpus_dir, collector=collector,
                                faults=self.faults, hedge=self.hedge,
                                executor="thread")
        handle = start_in_thread(service, ServeConfig(
            max_inflight=8, drain_timeout_s=30.0))
        violations: List[str] = []
        answered = 0
        partial = 0
        mismatches = 0
        overshoots = 0
        max_wall_ms = 0.0
        post_arm_searched = 0
        try:
            for position, query in enumerate(workload):
                if self.arm_at is not None \
                        and position == self.arm_at \
                        and isinstance(self.faults, FaultInjector):
                    for fault in self._arm_faults(service):
                        self.faults.inject(fault)
                watch = Stopwatch().start()
                try:
                    status, payload = _post_search(
                        handle.port,
                        {"keywords": list(query), "k": self.k,
                         "deadline_ms": self.deadline_ms})
                except (OSError, ValueError) as error:
                    violations.append(
                        f"[{self.name}] query {position} "
                        f"{' '.join(query)!r} got no answer: "
                        f"{type(error).__name__}: {error}")
                    continue
                wall_ms = watch.elapsed_ms
                max_wall_ms = max(max_wall_ms, wall_ms)
                if status != 200:
                    violations.append(
                        f"[{self.name}] query {position} "
                        f"{' '.join(query)!r} answered HTTP {status}: "
                        f"{payload.get('error')}")
                    continue
                answered += 1
                if self.arm_at is not None \
                        and position >= self.arm_at:
                    post_arm_searched += int(
                        (payload.get("corpus") or {})
                        .get("searched", 0))
                if wall_ms > self.deadline_ms + self.epsilon_ms:
                    overshoots += 1
                    violations.append(
                        f"[{self.name}] query {position} overshot its "
                        f"deadline: {wall_ms:.0f}ms > "
                        f"{self.deadline_ms:.0f}ms + "
                        f"{self.epsilon_ms:.0f}ms")
                if self.tail_ms is not None and wall_ms >= self.tail_ms:
                    violations.append(
                        f"[{self.name}] query {position} took "
                        f"{wall_ms:.0f}ms, at or past the "
                        f"{self.tail_ms:.0f}ms straggle: the hedge did "
                        f"not cut the tail")
                if payload.get("partial"):
                    partial += 1
                    if self.require_no_partial:
                        violations.append(
                            f"[{self.name}] query {position} "
                            f"{' '.join(query)!r} came back PARTIAL "
                            f"({payload.get('termination_reason')}) "
                            f"although failover should have absorbed "
                            f"the fault")
                    continue
                if _rows(payload) != self.oracle[query]:
                    mismatches += 1
                    violations.append(
                        f"[{self.name}] query {position} "
                        f"{' '.join(query)!r} diverged from the "
                        f"fault-free oracle")
        finally:
            handle.stop()
        hedges = {
            "fired": int(collector.counter("corpus.hedge.fired")),
            "won": int(collector.counter("corpus.hedge.won")),
            "lost": int(collector.counter("corpus.hedge.lost")),
        }
        if hedges["won"] + hedges["lost"] > hedges["fired"]:
            violations.append(
                f"[{self.name}] hedge counters inconsistent: "
                f"won {hedges['won']} + lost {hedges['lost']} > "
                f"fired {hedges['fired']}")
        if self.require_hedges and hedges["fired"] == 0:
            violations.append(
                f"[{self.name}] no hedge fired although every primary "
                f"visit straggled past the trigger")
        replicas = service.replica_stats()
        failures = sum(int(entry["failures"])
                       for stats in replicas.values()
                       for entry in stats)
        fired: Dict[str, int] = {}
        if isinstance(self.faults, FaultInjector):
            summary = self.faults.summary()["fired"]
            fired = dict(summary)  # type: ignore[arg-type]
            downs = int(fired.get("replica_down", 0)) \
                + int(fired.get("torn_replica", 0))
            if downs and failures == 0:
                violations.append(
                    f"[{self.name}] breaker counters inconsistent: "
                    f"{downs} replica faults fired but no replica "
                    f"recorded a failure")
            if self.arm and post_arm_searched > 0 \
                    and int(fired.get("replica_down", 0)) == 0:
                violations.append(
                    f"[{self.name}] armed replica kills never "
                    f"struck although {post_arm_searched} post-arm "
                    f"shard visits ran — the phase proved nothing "
                    f"about failover")
        return {"phase": self.name,
                "queries": len(workload),
                "answered": answered,
                "partial": partial,
                "mismatches": mismatches,
                "overshoots": overshoots,
                "max_wall_ms": round(max_wall_ms, 3),
                "hedges": hedges,
                "replica_failures": failures,
                "faults_fired": fired,
                "violations": list(violations)}


def run_chaos(corpus_dir: Union[str, "object"], seed: int = 7,
              queries: int = 12, k: int = 5,
              deadline_ms: float = DEFAULT_DEADLINE_MS,
              epsilon_ms: float = DEFAULT_EPSILON_MS,
              slow_ms: float = DEFAULT_SLOW_MS,
              hedge_ms: float = DEFAULT_HEDGE_MS) -> Dict[str, Any]:
    """Run the full chaos suite against ``corpus_dir``; returns the
    ``repro.chaos/v1`` report (``report["ok"]`` gates the CLI exit).

    Requires a corpus built with ``replicas >= 2`` — the whole point
    is proving that killing a replica of every shard changes nothing.
    Raises :class:`QueryError` for a caller's bad parameters before
    any phase runs, so they never read as invariant violations.
    """
    if queries < 1:
        raise QueryError(f"chaos needs at least one query, got {queries}")
    if deadline_ms <= 0:
        raise QueryError(f"deadline_ms must be positive, got "
                         f"{deadline_ms}")
    if epsilon_ms < 0:
        raise QueryError(f"epsilon_ms must be non-negative, got "
                         f"{epsilon_ms}")
    corpus_dir = str(corpus_dir)
    manifest = load_corpus_manifest(corpus_dir)
    if manifest.replicas < 2:
        raise QueryError(
            f"chaos needs a corpus built with --replicas 2 or more "
            f"(got {manifest.replicas}); replica failover is the "
            f"property under test")
    workload = _workload(corpus_dir, seed, queries)
    oracle = _oracle(corpus_dir, workload, k)

    phases = [
        _Phase("baseline", corpus_dir, oracle, k, deadline_ms,
               epsilon_ms),
        # Killing the serving replica of *every* shard mid-run must
        # be invisible: failover answers from the surviving replica
        # with zero PARTIAL outcomes.
        _Phase("replica-down", corpus_dir, oracle, k, deadline_ms,
               epsilon_ms,
               faults=FaultInjector([], seed=seed),
               require_no_partial=True,
               arm_at=max(1, queries // 3),
               arm="kill-serving-replica"),
        # Every primary visit straggles; the hedge races r1 and wins.
        _Phase("slow-replica-hedge", corpus_dir, oracle, k,
               deadline_ms, epsilon_ms,
               faults=FaultInjector(
                   [Fault(kind="slow_replica", target="r0",
                          delay_ms=slow_ms)], seed=seed),
               hedge=HedgePolicy(hedge_ms=hedge_ms),
               require_hedges=True, tail_ms=slow_ms),
        # Torn reads at a seeded rate, with the surviving replica's
        # clock running ahead (budgets shrink, never overshoot).
        _Phase("torn-skew", corpus_dir, oracle, k, deadline_ms,
               epsilon_ms,
               faults=FaultInjector(
                   [Fault(kind="torn_replica", target="r0", rate=0.5,
                          message="chaos: torn snapshot read"),
                    Fault(kind="clock_skew_ms", target="r1",
                          delay_ms=25.0)], seed=seed)),
    ]

    phase_reports = [phase.run(workload) for phase in phases]
    violations = [violation for report in phase_reports
                  for violation in report["violations"]]
    return {"format": CHAOS_FORMAT,
            "corpus": corpus_dir,
            "seed": seed,
            "k": k,
            "queries": queries,
            "replicas": manifest.replicas,
            "shards": manifest.shard_count,
            "deadline_ms": deadline_ms,
            "epsilon_ms": epsilon_ms,
            "phases": phase_reports,
            "violations": violations,
            "ok": not violations}
