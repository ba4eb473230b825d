"""CorpusService: bound-driven scatter-gather over shard services.

One :class:`CorpusService` wraps one :class:`~repro.service.QueryService`
per shard and answers the same ``search``/``batch_search`` contract the
single-document service does, so the HTTP serving layer (docs/SERVING.md)
can sit in front of either without knowing which it got.

A query runs as a *scatter* over the shards and a *gather* into one
global :class:`~repro.core.heap.TopKHeap`:

1. Every shard's query bound — the minimum over the query terms of its
   persisted per-term probability bounds (``BOUNDS.json``,
   :mod:`repro.corpus.builder`) — is computed up front, and shards are
   visited most-promising-first.
2. A shard whose bound is 0 has no world containing every term; it is
   skipped outright (``no_match``).
3. Once the global heap holds k results, a shard whose bound is
   *strictly below* the current k-th probability cannot contribute —
   an equal bound might still enter on the document-order tiebreak, so
   the comparison is strict (see :meth:`TopKHeap.threshold`) — and is
   pruned without being searched (``pruned``).  Prune decisions depend
   on completion order, but the answer set never does: a pruned shard
   provably cannot change it.
4. Every executor runs one completion-driven scatter loop: serial on
   an inline executor (one visit at a time), thread and process on a
   pool.  A shard-local answer's Dewey code rewrites to the global
   code by swapping its position component per the corpus manifest.

**Replication** (docs/CORPUS.md): a corpus built with ``replicas=N``
holds N bit-identical copies of every shard, and each shard visit
routes through a health-aware :class:`ReplicaSelector` — per-replica
circuit breaker plus EWMA latency, quarantined replicas skipped — with
failover: a replica failure (load error, injected fault, torn read)
records against that replica's breaker and the visit moves to the
next one.  A shard is PARTIAL only when *every* replica has failed.
On the pooled executors, a visit pending longer than the
:class:`HedgePolicy`'s trigger is **hedged**: the same visit is
speculatively re-issued to another replica and the first answer wins —
bit-identical by construction, since replicas share one content
fingerprint — while the loser is discarded (``corpus.hedge.*``
counters, ``corpus.hedge`` spans).

**Deadline budgets**: one :class:`~repro.resilience.Deadline` is the
whole query's budget.  Every shard visit draws a *child* budget from
its remaining wall clock (``Deadline.child``), so later shards,
failover retries and hedges can never collectively overshoot the
caller's deadline; once the budget is out, unvisited shards are
recorded ``deadline_skipped`` and no failover starts, on an
honestly-partial outcome, instead of searching past the deadline.

Per-shard failures degrade instead of failing the query: a failed
attempt fails over to the shard's next replica, and once every pooled
attempt has failed (a dead worker, a broken pool) the visit runs once
more in the coordinator on the inline executor — counted ``degraded``.
A shard that cannot be loaded at all (e.g. quarantined by fsck) is
reported in ``stats["corpus"]`` on a *partial* outcome while the
healthy shards still answer.  ``corpus.*`` metrics count searches,
prunes, skips, degradations, failovers, hedges, and failures.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.core import Algorithm
from repro.core.api import validate_query
from repro.core.heap import TopKHeap
from repro.core.result import SearchOutcome, SLCAResult
from repro.corpus.builder import (CorpusManifest, compute_bounds,
                                  load_corpus_manifest, read_bounds)
from repro.corpus.replication import (HedgeLike, HedgePolicy,
                                      ReplicaHealth,
                                      ReplicaSelector,
                                      DEFAULT_REPLICA_BREAKER_THRESHOLD,
                                      DEFAULT_REPLICA_COOLDOWN_S,
                                      as_hedge_policy, replica_dir_name,
                                      replica_name)
from repro.encoding.dewey import DeweyCode
from repro.exceptions import QueryError, ReproError, StorageError
from repro.index.fsck import FsckReport, fsck_database
from repro.index.tokenizer import normalize_query
from repro.obs.metrics import Collector, NULL_COLLECTOR, Stopwatch
from repro.resilience.deadline import (Deadline, DeadlineLike,
                                       REASON_DEADLINE, as_deadline)
from repro.resilience.faults import NULL_FAULTS, FaultsLike
from repro.resilience.retry import CircuitBreaker
from repro.service.service import (BatchOutcome, DEFAULT_CACHE_SIZE,
                                   QueryService)
from repro.service.worker import (InlineExecutor, Job, ShardSource,
                                  WorkerPool, check_executor,
                                  decode_rows, run_job)

_log = logging.getLogger("repro.corpus")

#: Termination reason when one or more shards could not contribute.
REASON_SHARD_FAILURE = "shard_failure"

#: Shard actions recorded per query in ``stats["corpus"]["detail"]``.
ACTION_SEARCHED = "searched"
ACTION_PRUNED = "pruned"
ACTION_NO_MATCH = "no_match"
ACTION_FAILED = "failed"
#: The query's deadline budget ran out before this shard was visited.
ACTION_DEADLINE = "deadline_skipped"
ACTIONS = (ACTION_SEARCHED, ACTION_PRUNED, ACTION_NO_MATCH,
           ACTION_FAILED, ACTION_DEADLINE)


@dataclass(frozen=True)
class CorpusState:
    """What :meth:`CorpusService.reload` returns: the corpus-level
    generation fingerprint and epoch the serving layer reports."""

    generation: str
    epoch: int


@dataclass(frozen=True)
class _ReplicaState:
    """One replica of one shard: its directory and (maybe) service.

    A replica that failed to load keeps its slot (``service is
    None``); ``error`` says why.  The selector routes around it and a
    later reload can revive it.
    """

    index: int
    name: str
    directory: str
    service: Optional[QueryService]
    error: Optional[str]


@dataclass(frozen=True)
class _ShardState:
    """One shard's immutable view: its replicas, bounds, and code map.

    Reload replaces whole ``_ShardState`` values — never mutates them
    — so a running query's snapshot stays coherent.  The ``selector``
    (per-replica breakers + EWMA latency) is the one mutable member:
    it is *routing* state, deliberately carried across queries, and
    thread-safe on its own lock.
    """

    position: int
    name: str
    replicas: Tuple[_ReplicaState, ...]
    selector: ReplicaSelector
    bounds: Dict[str, float]
    max_path_probability: float
    positions: Dict[int, int]

    @property
    def service(self) -> Optional[QueryService]:
        """The first healthy replica's service (None = shard down).

        Read paths that need *a* coherent view of the shard's content
        — bounds recomputes, result re-hydration, storage stats — use
        this; the scatter itself goes through the selector.
        """
        for replica in self.replicas:
            if replica.service is not None:
                return replica.service
        return None

    @property
    def directory(self) -> str:
        """The primary replica's directory (legacy shard layout)."""
        return self.replicas[0].directory

    @property
    def error(self) -> Optional[str]:
        """Why the shard is down (None while any replica serves)."""
        errors = []
        for replica in self.replicas:
            if replica.service is not None:
                return None
            errors.append(f"{replica.name}: {replica.error}")
        return "; ".join(errors)

    def query_bound(self, terms: Sequence[str]) -> float:
        """Upper bound on any answer probability this shard can
        contribute for ``terms`` (0 when any term is absent)."""
        bound = 1.0
        for term in terms:
            term_bound = self.bounds.get(term, 0.0)
            if term_bound < bound:
                bound = term_bound
            if bound <= 0.0:
                return 0.0
        return bound


class CorpusService:
    """Top-k keyword search over a sharded corpus directory.

    Args:
        directory: a corpus directory built by
            :func:`repro.corpus.build_corpus`.
        cache_size: per-shard query cache size (each shard's
            :class:`QueryService` gets its own caches).
        collector: shared metrics collector; receives the per-shard
            services' counters *and* the ``corpus.*`` family.
        verify: checksum-verify shard snapshots on load/reload.
        faults: a :class:`~repro.resilience.FaultInjector` whose
            replica-level faults (``replica_down``, ``slow_replica``,
            ``torn_replica``, ``clock_skew_ms``) fire on shard visits;
            defaults to the no-op injector.
        hedge: hedging policy for the pooled executors — a
            :class:`HedgePolicy`, a fixed millisecond trigger, or
            ``None`` (hedging off, the default).
        executor: the scatter model :meth:`search` uses when its call
            site does not choose one — ``serial`` (default),
            ``thread`` or ``process``.  The serving layer and the
            chaos harness construct the service once and rely on this
            default, since ``POST /search`` carries no executor field.
        replica_breaker_threshold: consecutive visit failures before a
            replica quarantines.
        replica_cooldown_s: quarantine cooldown before a half-open
            trial visit.

    A shard that fails to load does not fail construction: it is
    recorded as down, queries answer partially without it, and a later
    :meth:`reload` (say, after ``repro corpus fsck --repair``) revives
    it.  A *replica* that fails to load only narrows that shard's
    routing choices — the shard stays up while any replica serves.
    """

    def __init__(self, directory: Union[str, os.PathLike],
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 collector: Optional[Collector] = None,
                 verify: bool = True,
                 faults: FaultsLike = NULL_FAULTS,
                 hedge: HedgeLike = None,
                 executor: str = "serial",
                 replica_breaker_threshold: int =
                 DEFAULT_REPLICA_BREAKER_THRESHOLD,
                 replica_cooldown_s: float =
                 DEFAULT_REPLICA_COOLDOWN_S) -> None:
        check_executor(executor)
        self.collector = collector if collector is not None \
            else NULL_COLLECTOR
        self._directory = os.fspath(directory)
        self._cache_size = cache_size
        self._verify = verify
        self._faults = faults
        self._hedge = as_hedge_policy(hedge)
        self._default_executor = executor
        self._replica_breaker_threshold = replica_breaker_threshold
        self._replica_cooldown_s = replica_cooldown_s
        self._manifest = load_corpus_manifest(self._directory)
        self._reload_lock = threading.Lock()
        # Single-writer atomic-reference swap, same pattern as
        # QueryService._state: reload() builds replacement shard
        # states under _reload_lock and installs them in one
        # assignment; queries read the tuple once, lock-free.
        self._shards: Tuple[_ShardState, ...] = tuple(  # repro: guarded-by[_reload_lock, writes]
            self._load_shard(position)
            for position in range(self._manifest.shard_count))

    # -- shard loading ---------------------------------------------------------

    @property
    def manifest(self) -> CorpusManifest:
        return self._manifest

    @property
    def directory(self) -> str:
        return self._directory

    def _load_shard(self, position: int,
                    selector: Optional[ReplicaSelector] = None
                    ) -> _ShardState:
        """Load one shard's replicas; every replica failing yields a
        down-but-present shard state.  ``selector`` carries an existing
        selector's health history across a reload (routing state is
        deliberately *not* reset by a content swap)."""
        name = self._manifest.shard_names[position]
        positions = self._manifest.position_map(position)
        replicas: List[_ReplicaState] = []
        for index, directory in enumerate(
                self._manifest.replica_dirs(position)):
            replicas.append(self._load_replica(name, index, directory))
        if selector is None or len(selector) != len(replicas):
            selector = ReplicaSelector([
                ReplicaHealth(replica.name, replica.directory,
                              CircuitBreaker(
                                  threshold=self
                                  ._replica_breaker_threshold,
                                  cooldown_s=self._replica_cooldown_s))
                for replica in replicas])
        shard = _ShardState(position=position, name=name,
                            replicas=tuple(replicas),
                            selector=selector, bounds={},
                            max_path_probability=0.0,
                            positions=positions)
        if shard.service is None:
            _log.error("corpus shard %s failed to load: %s", name,
                       shard.error)
            if self.collector.enabled:
                self.collector.count("corpus.shard_load_failures")
            return shard
        return self._resolve_bounds(shard)

    def _load_replica(self, shard_name: str, index: int,
                      directory: str) -> _ReplicaState:
        """Load one replica; a failure yields a down-but-present slot
        the selector routes around."""
        rname = replica_name(index)
        try:
            service = QueryService(directory,
                                   cache_size=self._cache_size,
                                   collector=self.collector,
                                   verify=self._verify)
        except (ReproError, OSError, ValueError) as error:
            message = f"{type(error).__name__}: {error}"
            _log.warning("corpus replica %s/%s failed to load: %s",
                         shard_name, rname, message)
            if self.collector.enabled:
                self.collector.count("corpus.replica_load_failures")
            return _ReplicaState(index=index, name=rname,
                                 directory=directory, service=None,
                                 error=message)
        return _ReplicaState(index=index, name=rname,
                             directory=directory, service=service,
                             error=None)

    def _resolve_bounds(self, shard: _ShardState) -> _ShardState:
        """``shard`` with its persisted bounds, or a recompute when the
        persisted summary names a different snapshot generation; a
        shard with no serving replica comes back unchanged.

        Bounds come from the same replica that provides the service
        view, so a down primary cannot pair stale BOUNDS.json with a
        different replica's generation.
        """
        healthy = next((replica for replica in shard.replicas
                        if replica.service is not None), None)
        if healthy is None or healthy.service is None:
            return shard
        service = healthy.service
        generation = service.storage_stats()["generation"]
        payload = read_bounds(healthy.directory)
        if payload is not None and payload.get("generation") == generation:
            terms = payload["terms"]
            if isinstance(terms, dict):
                return replace(
                    shard, bounds={str(term): float(value)
                                   for term, value in terms.items()},
                    max_path_probability=float(
                        payload.get("max_path_probability", 1.0)))
        if self.collector.enabled:
            self.collector.count("corpus.bounds_recomputed")
        bounds, best = compute_bounds(service.current_index())
        return replace(shard, bounds=bounds, max_path_probability=best)

    # -- search ----------------------------------------------------------------

    def search(self, keywords: Iterable[str], k: int = 10,
               algorithm: Union[Algorithm, str] = Algorithm.EAGER,
               semantics: str = "slca",
               executor: Optional[str] = None,
               workers: Optional[int] = None,
               deadline: Optional[Union[Deadline, DeadlineLike,
                                        float, int]] = None,
               tracer: Optional[Any] = None) -> SearchOutcome:
        """Global top-k over every shard, merged under the shared
        result order (:mod:`repro.core.order`).

        Same contract as :meth:`QueryService.search` plus the fan-out
        controls: ``executor`` is one of ``serial``/``thread``/
        ``process`` and ``workers`` bounds a pool's in-flight shards
        (``serial`` visits one at a time).  Answers are bit-identical
        across executors, worker counts, and shard completion orders;
        only ``stats["corpus"]`` (which shards were searched vs
        pruned) varies with timing.
        """
        # Caller errors surface here, once, before any shard visit:
        # a QueryError raised inside a visit would otherwise read as a
        # replica failure and trip the replica breakers.
        keywords = validate_query(keywords, k, algorithm, semantics)
        terms = sorted(normalize_query(keywords))
        if not terms:
            raise QueryError("keyword query contains no terms")
        if executor is None:
            executor = self._default_executor
        check_executor(executor)
        if workers is not None and workers <= 0:
            raise QueryError(f"workers must be positive, got {workers}")
        algorithm_name = algorithm.value \
            if isinstance(algorithm, Algorithm) else str(algorithm)
        budget = as_deadline(deadline)
        shards = self._shards
        traced = tracer is not None and getattr(tracer, "enabled", False)

        with self.collector.time("corpus.search"):
            merge = _Merge(k)
            plan: List[Tuple[_ShardState, float]] = []
            for shard in shards:
                if shard.service is None:
                    merge.record(shard, 0.0, ACTION_FAILED,
                                 error=shard.error)
                    continue
                plan.append((shard, shard.query_bound(terms)))
            # Most-promising shard first: the sooner the heap holds k
            # strong answers, the more later shards the bound prunes.
            plan.sort(key=lambda entry: (-entry[1],
                                         entry[0].position))
            # The serial executor visits one shard at a time.
            width = 1 if executor == "serial" else workers \
                if workers is not None else min(4, max(1, len(plan)))

            span_ctx = tracer.span(
                "corpus.search", shards=len(shards),
                terms=" ".join(terms), k=k,
                executor=executor) if traced else nullcontext()
            with span_ctx as corpus_span:
                _Scatter(self, executor, width, merge, keywords, k,
                         algorithm_name, semantics, budget,
                         tracer if traced else None,
                         corpus_span).run(plan)
                if traced and corpus_span is not None:
                    corpus_span.attrs.update(merge.counts,
                                             hedged=merge.hedges["fired"])

            outcome = merge.outcome(
                shards_total=len(shards), executor=executor,
                workers=width, algorithm=algorithm_name,
                semantics=semantics, k=k, terms=terms,
                service_state=asdict(self._state_of(shards)))
        if self.collector.enabled:
            self.collector.count("corpus.searches")
            for action, total in merge.counts.items():
                if total:
                    self.collector.count(f"corpus.shards_{action}",
                                         total)
            if merge.degraded:
                self.collector.count("corpus.degraded", merge.degraded)
            self.collector.observe("corpus.searched_per_query",
                                   merge.counts[ACTION_SEARCHED])
            self.collector.observe("corpus.pruned_per_query",
                                   merge.counts[ACTION_PRUNED])
        return outcome

    # -- service-shaped surface ------------------------------------------------

    def batch_search(self, queries: Sequence[Sequence[str]],
                     k: int = 10,
                     algorithm: Union[Algorithm, str] = Algorithm.EAGER,
                     semantics: str = "slca",
                     workers: Optional[int] = None,
                     executor: str = "thread",
                     deadline_ms: Optional[float] = None,
                     tracer: Optional[Any] = None) -> BatchOutcome:
        """Many queries, each scattered over the shards.

        Queries run in submission order (the scatter inside each query
        is where the parallelism pays); ``deadline_ms`` budgets each
        query individually, and outcomes align with the input order.
        """
        watch = Stopwatch().start()
        outcomes: List[SearchOutcome] = []
        totals = dict.fromkeys(ACTIONS, 0)
        for query in queries:
            budget = Deadline.after_ms(deadline_ms) \
                if deadline_ms is not None else None
            outcome = self.search(query, k=k, algorithm=algorithm,
                                  semantics=semantics,
                                  executor=executor, workers=workers,
                                  deadline=budget, tracer=tracer)
            block = outcome.stats.get("corpus")
            if isinstance(block, dict):
                for action in totals:
                    totals[action] += int(block.get(action, 0))
            outcomes.append(outcome)
        return BatchOutcome(
            outcomes=outcomes, elapsed_ms=watch.elapsed * 1000.0,
            stats={"queries": len(outcomes), "executor": executor,
                   "workers": workers, "corpus": dict(totals)})

    def storage_stats(self) -> Dict[str, object]:
        """The corpus-level generation fingerprint/epoch plus every
        shard's own storage block (docs/STORAGE.md shape per shard)."""
        return self._summary([_storage_block(shard)
                              for shard in self._shards])

    def health_snapshot(self) -> Dict[str, object]:
        """One coherent health view: every shard contributes its own
        locked snapshot (:meth:`QueryService.health_snapshot`), and the
        corpus generation/epoch derive from those same snapshots — not
        from a second, possibly-torn read."""
        blocks: List[Dict[str, object]] = []
        for shard in self._shards:
            if shard.service is not None:
                snap = dict(shard.service.health_snapshot())
                snap["ok"] = True
            else:
                snap = {"generation": None, "epoch": 0, "ok": False,
                        "error": shard.error}
            snap["shard"] = shard.name
            snap["replicas"] = shard.selector.stats()
            quarantined = shard.selector.quarantined()
            if quarantined:
                snap["quarantined"] = quarantined
            blocks.append(snap)
        return self._summary(blocks, breaker=self.breaker_stats())

    def _summary(self, blocks: List[Dict[str, object]],
                 **extra: object) -> Dict[str, object]:
        """The corpus block over per-shard ``blocks``: their generation
        fingerprint, epoch and summed reload counters."""
        state = _corpus_state_of(blocks)
        return {"generation": state.generation,
                "directory": self._directory, "epoch": state.epoch,
                "reloads": _sum_reloads(blocks), **extra,
                "shards": blocks}

    def breaker_stats(self) -> Dict[str, object]:
        """Aggregated breaker view: the worst shard state wins, and
        the per-shard summaries ride along."""
        shards = self._shards
        severity = {"closed": 0, "half-open": 1, "open": 2}
        worst = "closed"
        failures = 0
        opens = 0
        per_shard: Dict[str, object] = {}
        for shard in shards:
            if shard.service is None:
                continue
            block = shard.service.breaker_stats()
            per_shard[shard.name] = block
            failures += int(block.get("failures", 0) or 0)
            opens += int(block.get("opens", 0) or 0)
            state = str(block.get("state", "closed"))
            if severity.get(state, 0) > severity.get(worst, 0):
                worst = state
        return {"state": worst, "failures": failures, "opens": opens,
                "shards": per_shard}

    def replica_stats(self) -> Dict[str, List[Dict[str, object]]]:
        """Per-shard replica health (EWMA latency, success/failure
        counts, breaker state), keyed by shard name.  The chaos
        harness and the per-shard-breaker-isolation tests read this;
        it is deliberately *routing* state, so a content reload does
        not reset it."""
        return {shard.name: shard.selector.stats()
                for shard in self._shards}

    def reload(self) -> CorpusState:
        """Reload every shard, reviving ones that were down.

        Each healthy shard hot-swaps through its own
        :meth:`QueryService.reload` (a per-shard rejection keeps that
        shard's old generation serving); a down shard is re-loaded
        from scratch.  Bounds are refreshed against the new
        generations.  Raises :class:`StorageError` only when *no*
        shard is serving afterwards.
        """
        with self._reload_lock:
            failures: List[str] = []
            rebuilt = tuple(self._reload_shard(shard, failures)
                            for shard in self._shards)
            self._shards = rebuilt
        if rebuilt and all(shard.service is None for shard in rebuilt):
            raise StorageError("corpus reload rejected: no shard is "
                               "serving (" + "; ".join(failures) + ")")
        if self.collector.enabled:
            self.collector.count("corpus.reloads")
            if failures:
                self.collector.count("corpus.reload_shard_failures",
                                     len(failures))
        return self._state_of(rebuilt)

    def _reload_shard(self, shard: _ShardState,
                      failures: List[str]) -> _ShardState:
        if shard.service is None:
            # Every replica is down: load the shard from scratch,
            # carrying the selector so breaker history survives.
            fresh = self._load_shard(shard.position,
                                     selector=shard.selector)
            if fresh.error is not None:
                failures.append(f"{shard.name}: {fresh.error}")
            return fresh
        replicas: List[_ReplicaState] = []
        for replica in shard.replicas:
            if replica.service is None:
                # A down replica revives through a fresh load.
                revived = self._load_replica(shard.name,
                                             replica.index,
                                             replica.directory)
                if revived.error is not None:
                    failures.append(f"{shard.name}/{replica.name}: "
                                    f"{revived.error}")
                replicas.append(revived)
                continue
            try:
                replica.service.reload(verify=self._verify)
            except StorageError as error:
                # This replica's previous generation keeps serving.
                failures.append(f"{shard.name}/{replica.name}: "
                                f"{error}")
            replicas.append(replica)
        return self._resolve_bounds(replace(shard,
                                            replicas=tuple(replicas)))

    def fsck(self, repair: bool = False) -> List[Tuple[str, FsckReport]]:
        """Per-shard storage triage (docs/STORAGE.md); see
        :func:`corpus_fsck`."""
        return corpus_fsck(self._directory, repair=repair,
                           collector=self.collector)

    @staticmethod
    def _state_of(shards: Tuple[_ShardState, ...]) -> CorpusState:
        return _corpus_state_of([_storage_block(shard)
                                 for shard in shards])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        healthy = sum(1 for shard in self._shards
                      if shard.service is not None)
        return (f"CorpusService(shards={len(self._shards)}, "
                f"healthy={healthy}, dir={self._directory!r})")


def corpus_fsck(directory: Union[str, os.PathLike],
                repair: bool = False,
                collector: Collector = NULL_COLLECTOR
                ) -> List[Tuple[str, FsckReport]]:
    """Run :func:`repro.index.fsck.fsck_database` over every replica
    of every shard.

    Returns ``(replica directory name, report)`` pairs in shard order,
    primary first (``s0000``, ``s0000.r1``, ...).  Replicas share one
    in-memory copy when their bytes match, so only this file-level
    check shows a damaged replica whose twin is intact.  Corruption in
    one replica never hides another's report, and with ``repair=True``
    each one quarantines/recovers independently — a corpus query after
    a repair answers from the healthy shards.
    """
    manifest = load_corpus_manifest(directory)
    reports: List[Tuple[str, FsckReport]] = []
    for position, name in enumerate(manifest.shard_names):
        for replica, replica_dir in enumerate(
                manifest.replica_dirs(position)):
            reports.append((replica_dir_name(name, replica),
                            fsck_database(replica_dir, repair=repair,
                                          collector=collector)))
    return reports


# -- the scatter loop ----------------------------------------------------------


class _Scatter:
    """One query's scatter: the completion-driven loop every executor
    runs, with the query's arguments bound once.

    Up to ``width`` shard visits are in flight — one on the serial
    executor, whose inline :meth:`submit` settles each visit before
    the next is considered.  Every completion merges immediately and
    the *next* submission re-checks the prune condition against the
    now-tighter global threshold, so late shards still benefit from
    early strong answers.

    A failed attempt **fails over** in :meth:`_gather_one` to the
    shard's next untried replica; once every pooled attempt has
    failed, the visit runs once more over the replicas on the inline
    executor (the last resort), and only a shard that fails every way
    is reported failed.  No attempt starts once the query budget is
    out.  On the pooled executors with a hedge policy, a visit pending
    past the policy's trigger is speculatively re-issued on another
    replica — the ``wait`` timeout is the hedge clock — and the first
    answer wins (bit-identical by construction).
    """

    def __init__(self, corpus: CorpusService, executor: str,
                 width: int, merge: "_Merge", keywords: List[str],
                 k: int, algorithm: str, semantics: str,
                 budget: DeadlineLike, tracer: Optional[Any],
                 parent_span: Optional[Any]) -> None:
        self.executor = executor
        self.width = width
        self.merge = merge
        self.keywords = keywords
        self.k = k
        self.algorithm = algorithm
        self.semantics = semantics
        self.budget = budget
        self.tracer = tracer
        self.parent_span = parent_span
        self.collector = corpus.collector
        self.faults = corpus._faults
        # A hedge races a straggler on a spare pool lane; the inline
        # executor has neither.
        self.hedge = corpus._hedge if executor != "serial" else None
        self.pending: Dict[Future, Tuple[_Visit, int, Stopwatch,
                                         bool]] = {}
        # Visits started and not yet resolved (answered or failed); a
        # hedge's second future does not take a scatter slot.
        self.active = 0
        # The last resort; run() installs the scatter's own executor.
        self.inline: Executor = InlineExecutor()
        self.pool = self.inline

    def run(self, plan: List[Tuple[_ShardState, float]]) -> None:
        """Visit ``plan`` (most promising first) into the merge."""
        queue = deque(plan)
        pending = self.pending
        # With hedging on, the pool gets one spare lane per scatter
        # slot: a hedge exists to race a straggler, so it must never
        # queue behind the very stragglers it is hedging against.
        # `active` still caps *visits* at `width`; the extra workers
        # carry hedge twins only.
        capacity = self.width * 2 if self.hedge is not None \
            else self.width
        scope = WorkerPool(self.executor, capacity)
        with scope as self.pool:
            try:
                while queue or pending:
                    while queue and self.active < self.width:
                        shard, bound = queue.popleft()
                        if self.merge.skip(shard, bound, self.budget):
                            continue
                        # A process visit's span is the coordinator's
                        # (queue wait + execution); serial and thread
                        # visits open theirs where they run.
                        span = self.tracer.begin(
                            "corpus.shard", parent=self.parent_span,
                            shard=shard.name, bound=round(bound, 9),
                            executor="process") \
                            if self.executor == "process" \
                            and self.tracer is not None else None
                        visit = _Visit(shard, bound, span)
                        self.active += 1
                        if not self._launch(visit):
                            self._fail(visit, visit.last_error
                                       or f"no replica of {shard.name} "
                                       f"is serving")
                    if not pending:
                        continue
                    if not self.active:
                        # Only discarded hedge losers remain: the merge
                        # is already complete, so the answer returns now
                        # and the pool lingers (set below), leaving the
                        # stragglers to finish in the background instead
                        # of blocking the query's tail latency on them —
                        # the whole point of hedging.
                        break
                    # Inline futures are settled on submit: harvest
                    # them without a wait.
                    done = [future for future in pending
                            if future.done()] \
                        or wait(set(pending), return_when=FIRST_COMPLETED,
                                timeout=self._hedge_timeout())[0]
                    for future in done:
                        self._gather_one(future, *pending.pop(future))
                    if self.hedge is not None:
                        self._fire_hedges()
            finally:
                # Abandoned futures (hedge losers, or stragglers on an
                # exception path) only feed routing state; nothing
                # correctness-bearing waits on them — but the time
                # they were observed pending does teach the selector
                # that the replica is slow.
                for visit, index, watch, _ in pending.values():
                    visit.shard.selector.record_straggler(
                        index, watch.elapsed_ms)
                scope.linger = bool(pending)

    def _launch(self, visit: "_Visit", hedge: bool = False) -> bool:
        """Start ``visit`` on its shard's next untried serving
        replica; False once every replica has been tried.

        A degraded visit runs on the inline executor.  A submit that
        raises — a broken pool, or a replica fault the process
        executor fires here in the coordinator, since worker processes
        do not share the injector — settles a failed future, so every
        failure reaches :meth:`_gather_one` the same way.
        """
        index = self._next_replica(visit)
        if index is None:
            return False
        replica = visit.shard.replicas[index]
        watch = Stopwatch().start()
        try:
            if self.executor == "process" and not visit.degraded:
                job = self._job(visit, replica)
                future = self.pool.submit(run_job, job)
            else:
                future = (self.inline if visit.degraded else self.pool) \
                    .submit(self._search_replica, visit, replica)
        except Exception as error:  # noqa: broad — a refused submit fails over
            future = Future()
            future.set_exception(error)
        visit.outstanding += 1
        self.pending[future] = (visit, index, watch, hedge)
        return True

    def _job(self, visit: "_Visit", replica: _ReplicaState) -> Job:
        """The process task for one replica attempt, after firing the
        replica's faults in the coordinator."""
        assert replica.service is not None
        # Infinite for no deadline or a step-only one: no wall budget.
        remaining = self._enter_visit(visit.shard, replica).remaining_ms
        # The worker loads the generation this replica's service is
        # serving, not whatever CURRENT names now.
        generation = replica.service.storage_stats()["generation"]
        trace_ctx = (self.tracer.trace_id, visit.span.span_id) \
            if self.tracer is not None and visit.span is not None \
            else None
        return Job(source=ShardSource(replica.directory, generation),
                   term_lists=[list(self.keywords)], k=self.k + 1,
                   algorithm=self.algorithm,
                   semantics=self.semantics,
                   deadline_ms=None if math.isinf(remaining)
                   else max(0.001, remaining), trace_ctx=trace_ctx)

    def _hedge_due_ms(self, visit: "_Visit") -> Optional[float]:
        """Milliseconds until ``visit`` becomes hedge-eligible (<= 0:
        now); ``None`` when it never will — hedging is off, the visit
        is resolved, degraded or already hedged, or no spare replica
        is left."""
        if self.hedge is None or visit.done or visit.hedged \
                or visit.degraded \
                or len(visit.tried) >= len(visit.shard.selector):
            return None
        delay = self.hedge.delay_ms(visit.shard.selector.tracker)
        return None if delay is None else delay - visit.watch.elapsed_ms

    def _hedge_timeout(self) -> Optional[float]:
        """Seconds until the earliest pending visit becomes hedge-
        eligible (``None`` = no hedge can fire; wait on completions)."""
        dues = [due for due in (self._hedge_due_ms(entry[0])
                                for entry in self.pending.values())
                if due is not None]
        return max(0.0, min(dues) / 1000.0) if dues else None

    def _fire_hedges(self) -> None:
        """Hedge every straggling visit (at most once per visit)."""
        for visit, _, _, _ in list(self.pending.values()):
            due = self._hedge_due_ms(visit)
            if due is None or due > 0 or visit.outstanding == 0:
                continue
            if self.budget.enabled and self.budget.out_of_time():
                return
            visit.hedged = True  # one hedge per visit, win or lose
            if not self._launch(visit, hedge=True):
                continue
            self.merge.hedges["fired"] += 1
            if self.collector.enabled:
                self.collector.count("corpus.hedge.fired")
            if self.tracer is not None:
                hedge_span = self.tracer.begin(
                    "corpus.hedge", parent=self.parent_span,
                    shard=visit.shard.name,
                    pending_ms=round(visit.watch.elapsed_ms, 3))
                self.tracer.finish(hedge_span)

    def _next_replica(self, visit: "_Visit") -> Optional[int]:
        """The index of the visit's next untried replica that has a
        service, charging every down replica it skips to its breaker;
        ``None`` once every replica has been tried."""
        shard = visit.shard
        while True:
            index = shard.selector.pick(exclude=visit.tried)
            if index is None:
                return None
            visit.tried.add(index)
            replica = shard.replicas[index]
            if replica.service is not None:
                return index
            shard.selector.record_failure(index)
            visit.last_error = f"{replica.name}: {replica.error}"

    def _gather_one(self, future: Future, visit: "_Visit", index: int,
                    watch: Stopwatch, is_hedge: bool) -> None:
        """Merge one settled future.

        A failure charges the replica's breaker and fails over; a
        success resolves the visit, and any still-racing hedge twin is
        discarded on arrival — its answer is bit-identical by
        construction, so dropping it never changes the merge.
        """
        visit.outstanding -= 1
        shard = visit.shard
        replica = shard.replicas[index]
        try:
            payload = future.result()
        except (KeyboardInterrupt, SystemExit, QueryError):
            raise
        except Exception as error:  # noqa: broad — any task death fails over
            self._replica_failed(visit, index, error)
            if not (visit.done or visit.outstanding > 0):
                self._fail_over(visit)
            return  # else a sibling future already won / is racing
        shard.selector.record_success(index, watch.elapsed_ms)
        worker_spans: List[Dict[str, object]] = []
        if isinstance(payload, SearchOutcome):
            outcome = payload
        else:
            rows, meta = payload
            outcome = decode_rows(rows)[0]
            worker_spans = meta["spans"]
            # Worker counters count like a thread visit's, hedge losers
            # included: the work really ran.
            if self.collector.enabled and meta["metrics"]:
                self.collector.merge_snapshot(meta["metrics"])
        if visit.done:
            if self.collector.enabled:
                self.collector.count("corpus.hedge.wasted")
            return
        visit.done = True
        self.active -= 1
        if visit.hedged:
            key = "won" if is_hedge else "lost"
            self.merge.hedges[key] += 1
            if self.collector.enabled:
                self.collector.count(f"corpus.hedge.{key}")
        if visit.degraded:
            self.merge.degraded += 1
        self.merge.absorb(shard, visit.bound, outcome,
                          replica=replica.name)
        if self.tracer is not None and visit.span is not None:
            self.tracer.adopt(worker_spans, parent=visit.span,
                              shift_ms=visit.span.start_ms)
            self.tracer.finish(visit.span, results=len(outcome.results),
                               replica=replica.name,
                               degraded=visit.degraded)

    def _fail_over(self, visit: "_Visit") -> None:
        """Restart ``visit`` after its last attempt failed: on the next
        untried replica, else once more over every replica on the
        inline executor (the last resort, after every pooled attempt
        has failed), else record the shard failed.  No attempt starts
        once the query budget is out."""
        if self.budget.enabled and self.budget.out_of_time():
            self._fail(visit, f"deadline exhausted failing over "
                       f"{visit.shard.name}: {visit.last_error}",
                       deadline=True)
        elif self._launch(visit):
            self.merge.failovers += 1
            if self.collector.enabled:
                self.collector.count("corpus.replica.failovers")
        elif visit.degraded or self.executor == "serial":
            self._fail(visit, visit.last_error)
        else:
            _log.warning("corpus shard %s: every pooled attempt failed "
                         "(%s); retrying in the coordinator",
                         visit.shard.name, visit.last_error)
            visit.degraded = True
            visit.tried.clear()
            if not self._launch(visit):
                self._fail(visit, visit.last_error)

    def _fail(self, visit: "_Visit", message: Optional[str],
              deadline: bool = False) -> None:
        """Record ``visit``'s shard failed and close its span."""
        self.active -= 1
        self.merge.record(visit.shard, visit.bound, ACTION_FAILED,
                          deadline=deadline, error=message)
        if self.tracer is not None and visit.span is not None:
            self.tracer.finish(visit.span, status="error", error=message)

    def _replica_failed(self, visit: "_Visit", index: int,
                        error: BaseException) -> None:
        """Charge one failed replica attempt to its breaker and keep
        the error as the visit's last."""
        replica = visit.shard.replicas[index]
        visit.shard.selector.record_failure(index)
        visit.last_error = (f"{replica.name}: "
                            f"{type(error).__name__}: {error}")
        if self.collector.enabled:
            self.collector.count("corpus.replica.failures")

    def _search_replica(self, visit: "_Visit",
                        replica: _ReplicaState) -> SearchOutcome:
        """Run one replica's query in the current thread (untraced on
        the degraded pass, whose span, if any, is the coordinator's).

        ``k + 1`` answers are requested because the shard's synthetic
        root can occupy one slot; after the merge filters it, the
        shard still contributes its full top-k.  The visit draws a
        *child* of the query's deadline (shrunk by any injected clock
        skew), so a straggling or retried visit cannot overshoot the
        caller's budget.
        """
        assert replica.service is not None
        tracer = None if visit.degraded else self.tracer
        visit_budget = self._enter_visit(visit.shard, replica)
        ctx = tracer.span("corpus.shard", parent=self.parent_span,
                          shard=visit.shard.name, replica=replica.name,
                          bound=round(visit.bound, 9)) \
            if tracer is not None else nullcontext()
        with ctx:
            return replica.service.search(
                self.keywords, k=self.k + 1, algorithm=self.algorithm,
                semantics=self.semantics,
                deadline=visit_budget if visit_budget.enabled
                else None,
                tracer=tracer)

    def _enter_visit(self, shard: _ShardState,
                     replica: _ReplicaState) -> DeadlineLike:
        """Fire the visit's replica faults and return its child budget:
        the query deadline's remaining wall clock, shrunk by any
        injected clock skew for this replica (budgets only shrink)."""
        budget = self.budget
        if budget.enabled:
            budget = budget.child(skew_ms=self.faults.replica_skew_ms(
                shard.name, replica.name))
        self.faults.on_replica_visit(shard.name, replica.name,
                                     terms=self.keywords, deadline=budget)
        return budget


# -- merge bookkeeping ---------------------------------------------------------


@dataclass(eq=False)
class _Visit:
    """Coordinator bookkeeping for one shard visit across its replica
    attempts and hedge twin.

    ``tried`` is the set of replica indexes submitted in this visit's
    current pass (failover and hedging both exclude it), ``degraded``
    marks the last-resort inline pass, ``outstanding`` counts futures
    still in flight, ``done`` flips when the first answer lands (later
    arrivals are discarded), and ``watch`` times the visit from its
    first submission — the clock the hedge trigger reads.
    """

    shard: _ShardState
    bound: float
    span: Optional[Any]
    tried: Set[int] = field(default_factory=set)
    hedged: bool = False
    degraded: bool = False
    done: bool = False
    outstanding: int = 0
    watch: Stopwatch = field(default_factory=lambda: Stopwatch().start())
    last_error: Optional[str] = None


class _Merge:
    """The gather side of one corpus query: the global heap, the
    origin map for re-hydrating answers, and the per-shard ledger."""

    def __init__(self, k: int) -> None:
        # The merge heap stays un-instrumented: heap.* counters keep
        # meaning "per-shard algorithm heaps", and corpus.* covers the
        # gather side.
        self.heap = TopKHeap(k)
        self.origins: Dict[Tuple[int, ...],
                           Tuple[_ShardState, DeweyCode]] = {}
        self.counts = dict.fromkeys(ACTIONS, 0)
        self.detail: List[Dict[str, object]] = []
        self.degraded = 0
        self.failovers = 0
        self.hedges = {"fired": 0, "won": 0, "lost": 0}
        self.partial = False
        self.reasons: Set[str] = set()

    def decide(self, bound: float) -> Optional[str]:
        """Whether a shard with ``bound`` can be skipped right now.

        Strictly-below comparison against the live k-th probability:
        an equal bound might still yield an answer that enters on the
        document-order tiebreak (:meth:`TopKHeap.threshold`), so only
        ``bound < threshold`` — or an impossible query (bound 0) —
        skips the shard.
        """
        if bound <= 0.0:
            return ACTION_NO_MATCH
        if bound < self.heap.threshold:
            return ACTION_PRUNED
        return None

    def skip(self, shard: _ShardState, bound: float,
             budget: DeadlineLike) -> bool:
        """Record and report a shard the query need not visit: the
        deadline budget ran out before it, or :meth:`decide` skips it.
        The budget is checked *before* every visit, so no shard is
        searched past the caller's deadline."""
        out_of_time = budget.enabled and budget.out_of_time()
        action = ACTION_DEADLINE if out_of_time else self.decide(bound)
        if action is None:
            return False
        self.record(shard, bound, action, deadline=out_of_time)
        return True

    def record(self, shard: _ShardState, bound: float, action: str,
               deadline: bool = False, **extra: object) -> None:
        """Ledger one shard that was not searched.  A failed or
        deadline-skipped shard might have contributed, so the answer
        is an honest partial — cut short by the deadline budget when
        ``deadline``."""
        self.counts[action] += 1
        if action in (ACTION_FAILED, ACTION_DEADLINE):
            self.partial = True
        if deadline:
            self.reasons.add(REASON_DEADLINE)
        self.detail.append({"shard": shard.name,
                            "bound": round(bound, 9),
                            "action": action, **extra})

    def absorb(self, shard: _ShardState, bound: float,
               outcome: SearchOutcome,
               replica: Optional[str] = None) -> None:
        """Merge one shard outcome: filter the synthetic root, rewrite
        codes to the global document positions, offer into the heap."""
        if outcome.partial:
            self.partial = True
            if outcome.termination_reason:
                self.reasons.add(outcome.termination_reason)
        merged = 0
        for result in outcome.results:
            positions = result.code.positions
            if len(positions) < 2:
                continue  # the shard's synthetic root
            global_position = shard.positions.get(positions[1])
            if global_position is None:
                continue  # a child slot the manifest does not know
            code = DeweyCode((positions[0], global_position)
                             + positions[2:], result.code.kinds)
            self.origins[code.positions] = (shard, result.code)
            if self.heap.offer(code, result.probability):
                merged += 1
        self.counts[ACTION_SEARCHED] += 1
        entry: Dict[str, object] = {"shard": shard.name,
                                    "bound": round(bound, 9),
                                    "action": ACTION_SEARCHED,
                                    "results": len(outcome.results),
                                    "merged": merged}
        if replica is not None:
            entry["replica"] = replica
        self.detail.append(entry)

    def outcome(self, shards_total: int, executor: str, workers: int,
                algorithm: str, semantics: str, k: int,
                terms: List[str],
                service_state: Dict[str, object]) -> SearchOutcome:
        results: List[SLCAResult] = []
        for result in self.heap.results():
            shard, local_code = self.origins[result.code.positions]
            node = None
            if shard.service is not None:
                try:
                    node = shard.service.current_index() \
                        .encoded.node_at(local_code)
                except ReproError:
                    node = None  # shard swapped mid-query; label falls
                    #              back to the code
            results.append(SLCAResult(code=result.code,
                                      probability=result.probability,
                                      node=node))
        reason: Optional[str] = None
        if REASON_DEADLINE in self.reasons:
            reason = REASON_DEADLINE
        elif self.counts[ACTION_FAILED]:
            reason = REASON_SHARD_FAILURE
        elif self.reasons:
            reason = sorted(self.reasons)[0]
        corpus_block: Dict[str, object] = {
            "shards": shards_total, **self.counts,
            "degraded": self.degraded,
            "failovers": self.failovers,
            "hedges": dict(self.hedges),
            "executor": executor, "workers": workers,
            "detail": self.detail,
        }
        return SearchOutcome(
            results=results,
            stats={"algorithm": algorithm, "semantics": semantics,
                   "k": k, "terms": terms, "corpus": corpus_block,
                   "service_state": service_state},
            partial=self.partial, termination_reason=reason)


def _storage_block(shard: _ShardState) -> Dict[str, object]:
    """One shard's storage block: its service's
    :meth:`~QueryService.storage_stats`, or a down block saying why."""
    if shard.service is not None:
        block = dict(shard.service.storage_stats())
    else:
        block = {"generation": None, "directory": shard.directory,
                 "epoch": 0, "error": shard.error}
    block["shard"] = shard.name
    return block


def _sum_reloads(blocks: List[Dict[str, object]]) -> Dict[str, object]:
    """The corpus reload counters: every shard's counters summed, and
    the first error in shard order — a down shard's, or a shard's last
    rejected reload."""
    reloads: Dict[str, object] = {"attempts": 0, "successes": 0,
                                  "rejected": 0}
    last_error: Optional[object] = None
    for block in blocks:
        shard_reloads = block.get("reloads")
        if isinstance(shard_reloads, dict):
            for key in ("attempts", "successes", "rejected"):
                reloads[key] = int(reloads[key]) \
                    + int(shard_reloads.get(key, 0))
            error = shard_reloads.get("last_error")
        else:
            error = block.get("error")
        if last_error is None:
            last_error = error
    reloads["last_error"] = last_error
    return reloads


def _corpus_state_of(blocks: List[Dict[str, object]]) -> CorpusState:
    """Fingerprint the per-shard generations of ``blocks`` (each with
    ``shard``, ``generation`` and ``epoch``) into one corpus-level
    generation string (stable, short, changes when any shard's
    generation does) and take the maximum shard epoch."""
    joined = "|".join(f"{block['shard']}:{block.get('generation') or 'down'}"
                      for block in blocks)
    digest = hashlib.sha256(joined.encode("utf-8")).hexdigest()[:12]
    epoch = max([int(block.get("epoch", 0) or 0) for block in blocks],
                default=1)
    return CorpusState(generation=f"corpus-{len(blocks)}x-{digest}",
                       epoch=max(1, epoch))
