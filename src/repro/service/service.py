"""The :class:`QueryService`: batched serving over one prepared index.

One service wraps one prepared :class:`~repro.index.storage.Database`
(or bare index) and executes single queries and whole batches without
repeating per-query preparation work:

* a bundle of :class:`repro.index.cache.QueryCaches` — the match
  columns keyed by the normalised term tuple — is threaded into every
  search it runs;
* a result-level LRU replays whole answers for repeated
  ``(terms, k, algorithm, semantics)`` queries, bypassed whenever the
  caller instruments, sanitizes or deadlines the query (those must
  really run);
* :meth:`QueryService.batch_search` executes many queries through the
  shared caches, sorting the execution order by term set so cache
  neighbours run back to back, optionally fanning out over
  ``concurrent.futures`` workers — threads share this service's hot
  caches (right for cache-heavy replay traffic), processes each build
  their own index copy once and then amortise it over their chunk
  (right for CPU-bound cold PrStack/EagerTopK work, which the GIL
  serialises under threads).

Batches degrade gracefully instead of failing wholesale
(docs/RESILIENCE.md): every query gets a per-query ``deadline_ms``
budget (expiry yields a marked *partial* outcome, never an exception),
a crashed or broken process-pool chunk is harvested around — completed
chunks keep their results — and its queries are retried serially, then
become per-query *error outcomes*, paced by
:class:`repro.resilience.RetryPolicy` and guarded by a
:class:`repro.resilience.CircuitBreaker` that stops re-spawning a
repeatedly-dying pool.  A seeded
:class:`repro.resilience.FaultInjector` (or the ``REPRO_FAULTS``
environment variable) can strike any of those failure paths
deterministically; everything is reported as ``resilience.*`` counters
through :mod:`repro.obs` and a ``resilience`` block in the batch
stats.

The service also supports **hot reload** (docs/STORAGE.md): the index,
caches and result LRU live together in one immutable
:class:`_ServiceState`, every query dereferences that state exactly
once, and :meth:`QueryService.reload` builds a *new* state — loading
and checksum-verifying a snapshot directory off to the side — before
swapping it in with a single atomic reference assignment.  In-flight
queries drain on the generation they started with; a reload that fails
verification is rejected while the old generation keeps serving.

Keyword order is canonicalised (terms are sorted) before any cache is
consulted, so ``["a", "b"]`` and ``["b", "a"]`` hit the same entries —
the answer set only depends on the term *set*, while raw match masks
depend on term order.  See docs/SERVICE.md for the full architecture.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    NoReturn, Optional, Sequence, Tuple, Union)

from repro.analysis.concurrency.witness import (InstrumentedLock,
                                                NULL_WITNESS,
                                                WitnessLike)
from repro.analysis.sanitizer import sanitize_from_env
from repro.core.api import (Algorithm, Source, _as_index,
                            _coerce_algorithm, topk_search,
                            validated_terms)
from repro.core.result import EncodedAnswer, SearchOutcome, encode_answer
from repro.exceptions import QueryError, StorageError
from repro.index.cache import (DEFAULT_CACHE_SIZE, LRUCache, QueryCaches)
from repro.index.inverted import InvertedIndex
from repro.index.storage import Database, load_database
from repro.obs.logging import get_logger
from repro.obs.metrics import (Collector, MetricsBuffer,
                               MetricsCollector, NULL_COLLECTOR,
                               Stopwatch)
from repro.obs.recorder import NULL_RECORDER, RecorderLike
from repro.obs.spans import (Span, STATUS_ERROR, STATUS_PARTIAL,
                             TracerLike)
from repro.resilience.deadline import (Deadline, DeadlineLike,
                                       REASON_DEADLINE,
                                       REASON_STEP_BUDGET)
from repro.resilience.faults import FaultsLike, faults_from_env
from repro.resilience.retry import (CircuitBreaker, DEFAULT_BACKOFF_MS,
                                    DEFAULT_MAX_RETRIES, RetryPolicy)
from repro.service.worker import (DEFAULT_EXECUTOR, DocumentSource, Job,
                                  SourceLoadError, WorkerPool,
                                  check_executor, decode_rows, run_job)

_log = get_logger("service")

#: One query of a batch: a whitespace-separated string or a keyword
#: sequence (exactly what ``topk_search`` accepts).
Query = Union[str, Sequence[str]]

#: ``termination_reason`` of a service-synthesised error outcome.
REASON_ERROR = "error"


@dataclass
class BatchOutcome:
    """All outcomes of one batch, in the caller's original order.

    Attributes:
        outcomes: one :class:`SearchOutcome` per input query, aligned
            with the input order (execution order is the service's
            business, not the caller's).  A query that exhausted its
            deadline is marked ``partial`` with its heap so far; a
            query whose every retry failed is an *error outcome* —
            empty results, ``termination_reason == "error"`` and the
            message in ``stats["error"]`` — never a raised traceback.
        elapsed_ms: wall time of the whole batch.
        stats: batch-level counters — query counts, distinct term
            sets, executor/worker shape, the service's cumulative
            cache counters after the batch, and a ``resilience`` block
            (retries, degradations, deadline expiries, breaker state;
            docs/RESILIENCE.md).
    """

    outcomes: List[SearchOutcome]
    elapsed_ms: float
    stats: Dict[str, object] = field(default_factory=dict)

    def __iter__(self) -> Iterator[SearchOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


class _ResilienceTracker:
    """Thread-safe counters for one batch's failure handling.

    Every bump is mirrored to the collector as a ``resilience.<name>``
    counter *and* event (a span on the batch tree when the batch is
    traced), so a metrics report shows the same numbers the batch
    stats block does, and is appended to the flight recorder's ring so
    a post-failure dump replays the exact retry/degradation sequence.
    """

    FIELDS = ("retries", "recovered_queries", "query_errors",
              "deadline_expired", "worker_crashes", "chunk_failures",
              "chunk_failure_queries", "pool_spawn_failures",
              "degraded_to_serial",
              "circuit_open_skips", "backoff_waits")

    __slots__ = ("counts", "collector", "recorder", "_lock")

    def __init__(self, collector: Collector,
                 recorder: RecorderLike = NULL_RECORDER) -> None:
        self.counts: Dict[str, int] = {name: 0 for name in self.FIELDS}
        self.collector = collector
        self.recorder = recorder
        self._lock = threading.Lock()

    def bump(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value
        if self.collector.enabled:
            self.collector.count(f"resilience.{name}", value)
            self.collector.event(f"resilience.{name}", value=value)
        if self.recorder.enabled:
            self.recorder.record("resilience", name, value=value)

    def backoff(self, policy: RetryPolicy, attempt: int) -> None:
        """Apply the policy's backoff for ``attempt``, counted and
        timed as ``resilience.backoff_waits`` / ``resilience.backoff``
        so retry pacing is visible in the merged report, not only in
        the wall clock."""
        delay = policy.delay_ms(attempt)
        if delay <= 0:
            return
        self.bump("backoff_waits")
        if self.collector.enabled:
            self.collector.observe_time("resilience.backoff",
                                        delay / 1000.0)
        time.sleep(delay / 1000.0)

    def note_partial(self, reason: str) -> None:
        """Count a deadline-cut outcome (not error outcomes)."""
        if reason in (REASON_DEADLINE, REASON_STEP_BUDGET):
            self.bump("deadline_expired")

    def summary(self, policy: RetryPolicy,
                deadline_ms: Optional[float], breaker: CircuitBreaker,
                injector: FaultsLike) -> Dict[str, object]:
        with self._lock:
            block: Dict[str, object] = dict(self.counts)
        block["max_retries"] = policy.max_retries
        block["deadline_ms"] = deadline_ms
        block["circuit_breaker"] = breaker.summary()
        if injector.enabled:
            block["faults"] = injector.summary()
        return block


@dataclass(frozen=True)
class _BatchRun:
    """One batch's query shape and failure handling: what every query,
    chunk and retry of the batch shares."""

    k: int
    algorithm: Algorithm
    semantics: str
    sanitize: Optional[bool]
    deadline_ms: Optional[float]
    injector: FaultsLike
    policy: RetryPolicy
    tracker: _ResilienceTracker
    tracer: Optional[TracerLike]
    batch_span: Optional[Span]


@dataclass(frozen=True)
class _ServiceState:
    """One served generation: index plus every cache warmed against it.

    Immutable and swapped wholesale by :meth:`QueryService.reload` —
    a query that captured this state keeps a consistent view (index,
    match/Dewey/path caches and result LRU all from the *same*
    generation) no matter how many reloads land while it runs.  Caches
    are never shared across states: a cached answer from generation N
    replayed against generation N+1 could be silently wrong.

    Attributes:
        index: the inverted index being served.
        caches: the per-term and per-query caches for this index.
        results: the whole-answer replay LRU for this index.
        generation: snapshot generation name (``gNNNNNNNN``) when the
            state came from a snapshot directory, ``None`` otherwise.
        directory: the database directory the state was loaded from,
            enabling argument-less :meth:`QueryService.reload`.
        epoch: 1 for the state the service was constructed with,
            incremented by every successful reload.
    """

    index: InvertedIndex
    caches: QueryCaches
    results: LRUCache
    generation: Optional[str]
    directory: Optional[str]
    epoch: int


@dataclass
class Lookup:
    """The lookup half's verdict on one query (:meth:`QueryService.lookup`).

    Attributes:
        terms: the validated query terms, canonicalised (sorted).
        k/algorithm/semantics: the rest of the query's shape.
        replayable: whether the result cache may answer the query and
            keep its answer (no caller collector, sanitize or
            deadline).
        outcome: on a result-cache hit, the replayed answer, stamped
            with the generation it was read from; ``None`` otherwise.
        encoded: the encoded response fields
            (:class:`~repro.core.result.EncodedAnswer`) of the cache
            entry holding this query's answer, which the HTTP layer
            splices into the body: set by the lookup on a hit and by
            the compute half when it caches the answer it computed;
            ``None`` while no entry holds the answer.  The only field
            that changes after the lookup.
    """

    terms: List[str]
    k: int
    algorithm: Algorithm
    semantics: str
    replayable: bool
    outcome: Optional[SearchOutcome] = None
    encoded: Optional[EncodedAnswer] = None

    @property
    def key(self) -> Tuple[Tuple[str, ...], int, str, str]:
        """The result-cache key."""
        return _result_key(self.terms, self.k, self.algorithm,
                           self.semantics)


def _result_key(terms: List[str], k: int, algorithm: Algorithm,
                semantics: str) -> Tuple[Tuple[str, ...], int, str, str]:
    return (tuple(terms), k, algorithm.value, semantics)


#: What :class:`QueryService` and :meth:`QueryService.reload` accept as
#: a data source: everything ``topk_search`` does, plus a database
#: directory path (loaded — and checksum-verified — via
#: :func:`repro.index.storage.load_database`).
ServiceSource = Union[Source, str, "os.PathLike[str]"]


class QueryService:
    """Persistent query execution over one prepared database.

    Args:
        source: what :func:`repro.core.api.topk_search` accepts — a
            p-document (indexed once, here), a prepared
            :class:`Database`, or a bare :class:`InvertedIndex` — or a
            database *directory* path, loaded and checksum-verified
            like ``load_database`` would (and hot-reloadable later via
            :meth:`reload`).
        cache_size: capacity of the match-entry and result caches (the
            per-term Dewey cache is proportionally larger; see
            :class:`repro.index.cache.QueryCaches`).
        collector: service-level :class:`repro.obs.MetricsCollector`
            receiving cache hit/miss/eviction counters
            (``service.cache.*``), query/batch counts and timings, and
            the ``resilience.*`` failure-handling counters.  Distinct
            from a per-query collector passed to :meth:`search`, which
            instruments that query alone and bypasses the result
            cache.
        breaker: the :class:`repro.resilience.CircuitBreaker` guarding
            process-pool respawns across this service's batches; the
            default opens after 2 consecutive pool breakages and
            half-opens after 30 s.
        recorder: a :class:`repro.obs.FlightRecorder` ring buffer fed
            by reloads and every ``resilience.*`` event; the CLI dumps
            it on error / partial / breaker-open / ``SIGUSR2``
            (docs/OBSERVABILITY.md).  Defaults to the no-op recorder.
        witness: an opt-in
            :class:`repro.analysis.concurrency.LockWitness`; when
            enabled the reload/stats locks and every per-state cache
            lock become named :class:`InstrumentedLock` wrappers, so
            stress tests can assert the declared lock order and the
            guarded-access discipline at runtime (docs/ANALYSIS.md).
            Defaults to :data:`~repro.analysis.concurrency.NULL_WITNESS`
            — plain locks, zero overhead.
    """

    def __init__(self, source: ServiceSource,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 collector: Optional[Collector] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 verify: bool = True,
                 recorder: Optional[RecorderLike] = None,
                 witness: Optional[WitnessLike] = None) -> None:
        self.collector = collector if collector is not None \
            else NULL_COLLECTOR
        self.recorder = recorder if recorder is not None \
            else NULL_RECORDER
        self._witness = witness if witness is not None else NULL_WITNESS
        self._cache_size = cache_size
        # REPRO_SANITIZE is read once per service, not per query; a
        # reload keeps it.
        self._sanitize = sanitize_from_env()
        self._breaker = breaker if breaker is not None \
            else CircuitBreaker()
        if self._witness.enabled:
            self._reload_lock: Any = InstrumentedLock(
                "QueryService._reload_lock", self._witness)
            self._stats_lock: Any = InstrumentedLock(
                "QueryService._stats_lock", self._witness)
        else:
            self._reload_lock = threading.Lock()
            self._stats_lock = threading.Lock()
        self._reload_counts = {  # repro: guarded-by[_stats_lock]
            "attempts": 0, "successes": 0, "rejected": 0}
        self._reload_last_error: Optional[str] = None  # repro: guarded-by[_stats_lock]
        # Single-writer atomic-reference swap: writes happen under
        # _reload_lock (and _stats_lock, beside the success count),
        # reads are deliberately lock-free (a query captures one
        # immutable generation and drains on it).
        self._state = self._build_state(  # repro: guarded-by[_reload_lock, writes]
            source, epoch=1, verify=verify)

    # -- state construction / hot reload --------------------------------------

    def _build_state(self, source: ServiceSource, epoch: int,
                     verify: bool = True) -> _ServiceState:
        """Load/index ``source`` into a fresh, fully-independent state."""
        generation: Optional[str] = None
        directory: Optional[str] = None
        if isinstance(source, (str, os.PathLike)):
            source = load_database(source, verify=verify,
                                   collector=self.collector)
        if isinstance(source, Database):
            generation = source.generation
            directory = source.directory
        return _ServiceState(
            index=_as_index(source),
            caches=QueryCaches(self._cache_size,
                               collector=self.collector,
                               witness=self._witness),
            results=LRUCache("results", self._cache_size,
                             self.collector, self._witness),
            generation=generation, directory=directory, epoch=epoch)

    def reload(self, source: Optional[ServiceSource] = None,
               verify: bool = True,
               faults: Optional[FaultsLike] = None) -> _ServiceState:
        """Hot-swap the served database without dropping a query.

        The replacement is built entirely off to the side — loaded,
        checksum-verified (unless ``verify=False``) and indexed, with
        fresh empty caches — and only then installed by one atomic
        reference assignment.  Queries already running keep the state
        they captured and drain on the old generation; queries that
        start after the swap see the new one.  Any failure (a missing
        directory, checksum mismatch, version error, or an injected
        ``reload_corrupt`` fault) *rejects* the reload: the old
        generation keeps serving untouched and a
        :class:`~repro.exceptions.StorageError` reports why.

        Args:
            source: the replacement — most usefully a database
                directory path; defaults to re-reading the directory
                the current generation was loaded from (picking up a
                newly-committed snapshot generation).
            verify: forwarded to ``load_database`` for path sources.
            faults: a :class:`repro.resilience.FaultInjector` whose
                ``reload_corrupt`` hook fires before the load, for
                rejection-path testing; the default consults
                ``REPRO_FAULTS``.

        Returns:
            The installed state (its ``generation``/``epoch`` feed
            :meth:`storage_stats`).
        """
        injector = faults if faults is not None else faults_from_env()
        with self._reload_lock:
            old = self._state
            with self._stats_lock:
                self._reload_counts["attempts"] += 1
            if self.collector.enabled:
                self.collector.count("service.reload.attempts")
            if source is None:
                source = old.directory
            if source is None:
                self._note_reload_rejected(
                    "no source: the service was not built from a "
                    "database directory, so reload() needs an "
                    "explicit one")
                raise StorageError(
                    "reload rejected: no source given and the current "
                    "database was not loaded from a directory; the "
                    "previous generation keeps serving")
            try:
                if injector.enabled:
                    injector.before_reload()
                with self.collector.time("service.reload"):
                    state = self._build_state(source,
                                              epoch=old.epoch + 1,
                                              verify=verify)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                self._note_reload_rejected(message)
                raise StorageError(
                    f"reload rejected ({message}); the previous "
                    f"generation keeps serving") from error
            # The swap and its success count land together, so a
            # health snapshot (which takes only _stats_lock) never
            # sees one without the other.
            with self._stats_lock:
                self._state = state
                self._reload_counts["successes"] += 1
            if self.collector.enabled:
                self.collector.count("service.reload.successes")
            if self.recorder.enabled:
                self.recorder.record("event", "service.reload",
                                     generation=state.generation,
                                     epoch=state.epoch)
            _log.info("reload: now serving generation %s (epoch %d) "
                      "from %s", state.generation, state.epoch,
                      state.directory)
            return state

    def _note_reload_rejected(self, message: str) -> None:
        # Takes _stats_lock itself (callers hold _reload_lock, which
        # orders before _stats_lock in the declared lock order).
        with self._stats_lock:
            self._reload_counts["rejected"] += 1
            self._reload_last_error = message
        if self.collector.enabled:
            self.collector.count("service.reload.rejected")
        if self.recorder.enabled:
            self.recorder.record("event", "service.reload.rejected",
                                 error=message)
        _log.error("reload rejected: %s", message)

    def storage_stats(self) -> Dict[str, object]:
        """Where answers come from right now, and how they got here:
        the served generation/directory, the state epoch, and the
        cumulative reload counters (docs/STORAGE.md).

        :meth:`reload` installs a new state and counts its success
        together under ``_stats_lock``, and this reads both under that
        lock, so the view is coherent: ``epoch == 1 +
        reloads["successes"]`` always holds.  It never takes
        ``_reload_lock``, so it answers at once while a reload is
        loading, with the generation still being served.
        """
        with self._stats_lock:
            state = self._state
            reloads: Dict[str, object] = dict(self._reload_counts)
            reloads["last_error"] = self._reload_last_error
        return {"generation": state.generation,
                "directory": state.directory,
                "epoch": state.epoch,
                "reloads": reloads}

    def breaker_stats(self) -> Dict[str, object]:
        """The process-pool circuit breaker's summary block
        (``state``/``failures``/... — see
        :meth:`repro.resilience.CircuitBreaker.summary`).  Served on
        ``GET /health`` by the HTTP layer."""
        summary: Dict[str, object] = dict(self._breaker.summary())
        return summary

    def health_snapshot(self) -> Dict[str, object]:
        """One health view: :meth:`storage_stats` (coherent, and never
        waiting for a reload) plus the breaker state.  The serving
        layer's ``/health`` and JSON ``/metrics`` call it on the event
        loop."""
        snapshot = self.storage_stats()
        snapshot["breaker"] = self.breaker_stats()
        return snapshot

    def current_index(self) -> InvertedIndex:
        """The live generation's index — one atomic state read (the
        corpus layer recomputes shard bounds from this)."""
        return self._state.index

    # -- single queries -------------------------------------------------------

    def search(self, keywords: Iterable[str], k: int = 10,
               algorithm: Union[Algorithm, str] = Algorithm.EAGER,
               semantics: str = "slca",
               collector: Optional[Union[MetricsCollector,
                                         MetricsBuffer]] = None,
               sanitize: Optional[bool] = None,
               deadline: "Optional[Union[Deadline, DeadlineLike, float, int]]" = None,
               tracer: Optional[TracerLike] = None,
               lookup: Optional[Lookup] = None) -> SearchOutcome:
        """One query through the shared caches.

        Same contract as :func:`repro.core.api.topk_search` (which
        delegates here when handed a service), with two service-layer
        behaviours on top: keyword order is canonicalised before the
        caches are consulted, and an uninstrumented, unsanitized,
        un-deadlined query repeated with the same
        ``(terms, k, algorithm, semantics)`` replays the cached outcome
        (marked ``stats["service"] == "result_cache"``) without running
        any algorithm.  Passing ``collector``/``sanitize``/``deadline``
        bypasses the result cache so the instrumentation (or the
        budget) really applies; a partial outcome is never cached — a
        replay must not masquerade as complete.

        A search is its two halves: :meth:`lookup` (validate,
        canonicalise, consult the result cache) and the compute half
        (:meth:`_compute`), which replays a hit or runs the algorithm.
        ``lookup`` is this query's verdict when the caller already took
        it (the HTTP layer looks up on its event loop and sends only
        misses to a worker thread); the compute half then uses it
        instead of looking the key up a second time, so every query
        counts one ``service.queries`` and at most one result-cache
        hit or miss.  A corpus shard visit passes a verdict its corpus
        built once for the whole query — canonical terms, not
        replayable — so a visit neither validates again nor touches
        the result cache, and counts no ``service.queries``.

        ``tracer`` hangs the query's span tree under the caller's
        tracer (the HTTP serving layer passes a per-request
        :class:`~repro.obs.spans.SpanTracer` here when the request
        asks for spans, so a served query produces the same spans as a
        CLI query); a cache replay shows up as a zero-work ``query``
        span marked ``cache=result_cache``.  A disabled tracer records
        nothing.  Which collector the engines run on is
        :meth:`_compute`'s rule.
        Every outcome's ``stats["service_state"]`` records the
        generation/epoch it ran against.
        """
        if lookup is None:
            lookup = self.lookup(keywords, k, algorithm, semantics,
                                 collector, sanitize, deadline)
        return self._compute(lookup, collector, sanitize, deadline,
                             tracer)

    def lookup(self, keywords: Iterable[str], k: int = 10,
               algorithm: Union[Algorithm, str] = Algorithm.EAGER,
               semantics: str = "slca",
               collector: Optional[MetricsCollector] = None,
               sanitize: Optional[bool] = None,
               deadline: object = None) -> Lookup:
        """The lookup half of :meth:`search`: validate and canonicalise
        the query, then, when the result cache may answer it (no
        caller ``collector``, no sanitize, no ``deadline``), read the
        live state once and look its key up once.

        It never runs an algorithm, touches disk or takes the reload
        lock, so the HTTP layer calls it on its event-loop thread.
        Counts the query into ``service.queries``.  A bad query raises
        :class:`~repro.exceptions.QueryError`, as :meth:`search` does.
        """
        terms, coerced = validated_terms(keywords, k, algorithm,
                                         semantics)
        return self._lookup(sorted(terms), k, coerced, semantics,
                            collector, sanitize, deadline)

    def _lookup(self, terms: List[str], k: int, algorithm: Algorithm,
                semantics: str, collector: Optional[MetricsCollector],
                sanitize: Optional[bool], deadline: object) -> Lookup:
        """:meth:`lookup` on a validated query (canonical terms, coerced
        algorithm)."""
        if self.collector.enabled:
            self.collector.count("service.queries")
        effective_sanitize = sanitize if sanitize is not None \
            else self._sanitize
        replayable = (collector is None and not effective_sanitize
                      and deadline is None)
        if replayable:
            state = self._state
            cached = state.results.get(
                _result_key(terms, k, algorithm, semantics))
            if cached is not None:
                replayed = _replay(cached.outcome)
                _annotate_state(replayed, state)
                return Lookup(terms, k, algorithm, semantics, True,
                              replayed, cached.encoded)
        return Lookup(terms, k, algorithm, semantics, replayable)

    def _compute(self, found: Lookup,
                 collector: Optional[Union[MetricsCollector,
                                           MetricsBuffer]],
                 sanitize: Optional[bool],
                 deadline: object = None,
                 tracer: Optional[TracerLike] = None) -> SearchOutcome:
        """The compute half: return ``found``'s replay, or run the
        query it missed (or could not replay) and cache the answer.

        The service state is dereferenced exactly once here, so a
        computed answer — index, caches and result LRU — comes from a
        single generation even if a reload swaps the state mid-flight
        (a replay carries the generation its lookup read).

        One rule picks the collector the engines run on:

        * a caller's ``collector`` — that one.  A
          :class:`MetricsCollector`'s snapshot lands in
          ``stats["metrics"]``.  A :class:`MetricsBuffer` is a stage
          its owner folds (a corpus shard visit's: the corpus folds the
          whole query into its collector once), so it gets no snapshot
          and the query no ``service.search`` time;
        * a live ``tracer`` — an ephemeral :class:`MetricsCollector`
          carrying it, so every engine timer becomes a span under this
          query's span, merged into the service collector afterwards;
        * otherwise the enabled service collector itself, with no
          per-query collector, merge or snapshot — how every untraced
          served or batched query reaches ``/metrics``.

        Result-cache replayability is the lookup's (it keys off the
        *caller's* instrumentation): a replayed query shows up as a
        zero-work ``query`` span marked ``cache=result_cache``.  Caching
        a computed answer sets ``found.encoded`` to the new entry's
        encoded fields, so its caller's body splices the same bytes
        every replay of it will.
        """
        terms = found.terms
        if tracer is not None and not tracer.enabled:
            tracer = None
        if found.outcome is not None:
            if tracer is not None:
                tracer.finish(tracer.begin(
                    "query", terms=" ".join(terms),
                    cache="result_cache"))
            return found.outcome
        state = self._state
        run_collector = collector
        if collector is None:
            if tracer is not None:
                run_collector = MetricsCollector(tracer=tracer)
            elif self.collector.enabled:
                run_collector = self.collector
        staged = isinstance(collector, MetricsBuffer)
        query_ctx = tracer.span("query", terms=" ".join(terms),
                                algorithm=found.algorithm.value,
                                k=found.k) \
            if tracer is not None else nullcontext()
        with query_ctx as query_span:
            with nullcontext() if staged \
                    else self.collector.time("service.search"):
                outcome = topk_search(state.index, terms, found.k,
                                      found.algorithm,
                                      semantics=found.semantics,
                                      collector=run_collector,
                                      sanitize=self._sanitize
                                      if sanitize is None else sanitize,
                                      caches=state.caches,
                                      deadline=deadline,
                                      _attach_metrics=not staged
                                      and collector is not None,
                                      _checked=True)
            if query_span is not None:
                if outcome.partial:
                    query_span.status = STATUS_PARTIAL
                    query_span.annotate(
                        reason=outcome.termination_reason)
                query_span.annotate(results=len(outcome.results))
        if tracer is not None and collector is None \
                and self.collector.enabled:
            self.collector.merge(run_collector)
        _annotate_state(outcome, state)
        if found.replayable and not outcome.partial:
            entry = _cache_entry(outcome)
            state.results.put(found.key, entry)
            found.encoded = entry.encoded
        return outcome

    # -- batches --------------------------------------------------------------

    def batch_search(self, queries: Sequence[Query], k: int = 10,
                     algorithm: Union[Algorithm, str] = Algorithm.EAGER,
                     semantics: str = "slca",
                     workers: Optional[int] = None,
                     executor: str = DEFAULT_EXECUTOR,
                     sanitize: Optional[bool] = None,
                     deadline_ms: Optional[float] = None,
                     max_retries: int = DEFAULT_MAX_RETRIES,
                     backoff_ms: float = DEFAULT_BACKOFF_MS,
                     faults: Optional[FaultsLike] = None,
                     tracer: Optional[TracerLike] = None
                     ) -> BatchOutcome:
        """Execute many queries against the shared caches.

        Every query is validated up front — one malformed query fails
        the whole batch before any work runs; that is the *caller's*
        bug and the one failure this method still raises for.  Runtime
        failures after validation never abort the batch: the affected
        queries come back as partial or error outcomes and everything
        else keeps its answer.  Execution order sorts the queries by
        canonical term set, so identical and overlapping queries run
        back to back and hit the caches while they are warm; the
        returned outcomes are realigned with the *input* order.

        Args:
            queries: each a keyword sequence or a whitespace-separated
                string (one line of a query file).
            workers: fan-out width; ``None``/``1`` runs serially on
                the calling thread.
            executor: ``"serial"`` (the default, and the fastest on
                CPU-bound queries), ``"thread"`` (workers share this
                service and its hot caches — best for replay-heavy
                traffic), or ``"process"`` (each worker parses its own
                copy of the document once and serves its contiguous
                chunk — best for CPU-bound cold queries, which the GIL
                would serialise under threads).
            sanitize: per-query sanitizer flag, forwarded verbatim.
            deadline_ms: per-query wall-clock budget; an expired query
                returns its heap so far, marked partial
                (docs/RESILIENCE.md).  ``None`` never expires.
            max_retries: serial recovery attempts per failed query
                before it becomes an error outcome.  A failed process
                chunk's queries re-run serially on the calling thread,
                the chunk's failure counting as their first attempt;
                serial/thread failures re-run in place.  0 fails
                straight to error outcomes.
            backoff_ms: first-retry backoff (exponential, capped; see
                :class:`repro.resilience.RetryPolicy`).  0 disables
                pacing.
            faults: a :class:`repro.resilience.FaultInjector` for
                deterministic failure testing; the default consults
                the ``REPRO_FAULTS`` environment variable and injects
                nothing when it is unset.
            tracer: a :class:`repro.obs.SpanTracer`; when given, the
                batch records an end-to-end span tree — batch → chunk
                → query → engine phases, including spans recorded
                *inside* process workers (serialized back with the
                rows and re-parented under their chunk span) and the
                serial ``degrade`` tier a failed chunk fell back to
                (docs/OBSERVABILITY.md).  The trace id lands in
                ``stats["trace_id"]``.

        Returns:
            A :class:`BatchOutcome`; ``outcome.outcomes[i]`` answers
            ``queries[i]`` — exactly one outcome per input query, no
            matter what failed underneath.
        """
        check_executor(executor, "batch executor")
        if workers is not None and workers < 0:
            raise QueryError(f"workers must be non-negative, "
                             f"got {workers}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise QueryError(f"deadline_ms must be positive, "
                             f"got {deadline_ms}")
        policy = RetryPolicy(max_retries=max_retries,
                             backoff_ms=backoff_ms)
        injector = faults if faults is not None else faults_from_env()
        algorithm = _coerce_algorithm(algorithm)
        prepared: List[List[str]] = []
        for query in queries:
            keywords = query.split() if isinstance(query, str) \
                else list(query)
            terms, _ = validated_terms(keywords, k, algorithm, semantics)
            prepared.append(sorted(terms))

        order = sorted(range(len(prepared)),
                       key=lambda position: prepared[position])
        width = min(workers or 1, len(order)) if order else 0
        serial = executor == "serial" or width <= 1
        outcomes: List[Optional[SearchOutcome]] = [None] * len(prepared)
        if tracer is not None and not tracer.enabled:
            tracer = None
        # A traced batch counts its resilience events on a collector
        # carrying the tracer, so they land on the batch span tree, and
        # merges those counts into the service collector afterwards.
        tracker = _ResilienceTracker(
            MetricsCollector(tracer=tracer) if tracer is not None
            else self.collector, self.recorder)
        merged_pids: List[int] = []
        if self.collector.enabled:
            self.collector.count("service.batches")
            self.collector.count("service.batch_queries", len(prepared))
        with Stopwatch() as watch:
            batch_ctx = tracer.span(
                "batch", queries=len(prepared),
                executor="serial" if serial else executor,
                workers=1 if serial else width, k=k) \
                if tracer is not None else nullcontext()
            with batch_ctx as batch_span:
                run = _BatchRun(k, algorithm, semantics, sanitize,
                                deadline_ms, injector, policy, tracker,
                                tracer, batch_span)
                if serial:
                    for position in order:
                        outcomes[position] = self._resilient_query(
                            prepared[position], run)
                elif executor == "thread":
                    self._run_threads(outcomes, order, prepared, width,
                                      run)
                else:
                    self._run_processes(outcomes, order, prepared,
                                        width, run, merged_pids)
        if tracer is not None and self.collector.enabled:
            self.collector.merge(tracker.collector)
        stats: Dict[str, object] = {
            "queries": len(prepared),
            "distinct_term_sets":
                len({tuple(terms) for terms in prepared}),
            "executor": "serial" if serial else executor,
            "workers": 1 if serial else width,
            "k": k,
            "algorithm": algorithm.value,
            "semantics": semantics,
            "cache": self.cache_stats(),
            "storage": self.storage_stats(),
            "resilience": tracker.summary(policy, deadline_ms,
                                          self._breaker, injector),
        }
        if tracer is not None:
            stats["trace_id"] = tracer.trace_id
        if merged_pids:
            stats["workers_merged"] = {
                "pids": sorted(set(merged_pids)),
                "merged_snapshots": len(merged_pids)}
        _log.debug("batch: %d queries (%s distinct term sets) via %s "
                   "x%s in %.1f ms", stats["queries"],
                   stats["distinct_term_sets"], stats["executor"],
                   stats["workers"], watch.elapsed_ms)
        # Every input position was executed exactly once (order is a
        # permutation of range(len(prepared)), and every failure path
        # substitutes an error outcome), so the list is dense.
        return BatchOutcome(
            outcomes=[outcome for outcome in outcomes
                      if outcome is not None],
            elapsed_ms=watch.elapsed_ms, stats=stats)

    # -- guarded execution ----------------------------------------------------

    def _guarded_query(self, terms: List[str], run: _BatchRun
                       ) -> Tuple[Optional[SearchOutcome],
                                  Optional[BaseException]]:
        """One attempt at one query: ``(outcome, None)`` on success
        (partial counts as success — the budget did its job),
        ``(None, error)`` on a runtime failure.  The per-query deadline
        starts here, *before* the fault hook, so an injected stall eats
        its own query's budget and nobody else's.

        Batch queries take :meth:`_compute`'s collector rule, so
        their engine counters reach the service collector — that is
        what makes a batch report's engine totals executor-independent
        instead of coordinator-only.
        """
        deadline = (Deadline(budget_ms=run.deadline_ms)
                    if run.deadline_ms is not None else None)
        try:
            if run.injector.enabled:
                run.injector.before_query(terms)
            found = self._lookup(terms, run.k, run.algorithm,
                                 run.semantics, None, run.sanitize,
                                 deadline)
            outcome = self._compute(found, None, run.sanitize, deadline,
                                    tracer=run.tracer)
            if outcome.partial:
                run.tracker.note_partial(outcome.termination_reason)
            return outcome, None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            return None, error

    def _resilient_query(self, terms: List[str], run: _BatchRun,
                         failure: Optional[BaseException] = None
                         ) -> SearchOutcome:
        """One query with in-place retries on the calling thread.

        Retries up to ``policy.max_retries`` times, backing off after
        each failed attempt, then substitutes an error outcome — a
        query can fail, a batch cannot.  ``failure`` is the error of an
        attempt already made elsewhere (a failed process chunk, whose
        caller backs off once for the whole chunk): the query then
        starts at its first retry, and an error outcome names that
        failure when no retry is left.
        """
        attempt = 0 if failure is None else 1
        error = failure
        while attempt <= run.policy.max_retries:
            if attempt:
                run.tracker.bump("retries")
                _log.warning("query %r failed (%s); retry %d/%d",
                             " ".join(terms), error, attempt,
                             run.policy.max_retries)
            outcome, error = self._guarded_query(terms, run)
            if outcome is not None:
                if attempt:
                    run.tracker.bump("recovered_queries")
                return outcome
            attempt += 1
            if attempt <= run.policy.max_retries:
                run.tracker.backoff(run.policy, attempt)
        return self._error_outcome(terms, error, run)

    @staticmethod
    def _error_outcome(terms: List[str], error: Optional[BaseException],
                       run: _BatchRun) -> SearchOutcome:
        """The terminal failure substitute: empty, marked, attributed."""
        tracker = run.tracker
        tracker.bump("query_errors")
        message = (f"{type(error).__name__}: {error}"
                   if error is not None else "unknown failure")
        if tracker.recorder.enabled:
            tracker.recorder.record("event", "query.error",
                                    terms=" ".join(terms),
                                    error=message)
        _log.error("query %r exhausted its retries: %s",
                   " ".join(terms), message)
        return SearchOutcome(
            results=[],
            stats={"algorithm": run.algorithm.value,
                   "terms": len(terms), "error": message},
            partial=True, termination_reason=REASON_ERROR)

    # -- thread executor ------------------------------------------------------

    def _run_threads(self, outcomes: List[Optional[SearchOutcome]],
                     order: List[int], prepared: List[List[str]],
                     width: int, run: _BatchRun) -> None:
        """Contiguous chunks of the sorted order across a thread pool.

        Chunking (instead of one task per query) keeps each thread on
        neighbouring term sets, so the sort's cache locality survives
        the fan-out.  The caches are lock-guarded, so sharing this
        service across the pool is safe.  Each query runs through the
        resilient wrapper, so a chunk never raises.  Chunk spans open
        *inside* the worker thread (the tracer's current-span context
        is per thread), with the batch span as their explicit parent.
        """
        chunks = _chunked(order, width)

        def serve(chunk: List[int]) -> List[SearchOutcome]:
            ctx = run.tracer.span("chunk", parent=run.batch_span,
                                  tier="thread", queries=len(chunk)) \
                if run.tracer is not None else nullcontext()
            with ctx:
                return [self._resilient_query(prepared[position], run)
                        for position in chunk]

        # The pool is sized to the narrower of the user's cap and the
        # actual chunk count — never to len(chunks) alone, which would
        # ignore the workers=N cap whenever re-splitting produced more
        # chunks than workers.
        with WorkerPool("thread", min(width, len(chunks))) as pool:
            for chunk, results in zip(chunks, pool.map(serve, chunks)):
                for position, outcome in zip(chunk, results):
                    outcomes[position] = outcome

    # -- process executor -----------------------------------------------------

    def _run_processes(self, outcomes: List[Optional[SearchOutcome]],
                       order: List[int], prepared: List[List[str]],
                       width: int, run: _BatchRun,
                       merged_pids: List[int]) -> None:
        """Contiguous chunks across a process pool, then the serial tier.

        Each worker loads the serialised document once and serves its
        whole chunk (:func:`repro.service.worker.run_job`) — the parse
        cost is amortised over the chunk, and the CPU-bound table work
        runs truly in parallel.

        Chunks are independent futures: when one worker crashes and
        breaks the pool, every chunk that already finished keeps its
        results, and only the failed chunks' queries fall back to the
        serial tier — :meth:`_resilient_query` on the calling thread,
        inside one ``degrade`` span, their chunk's failure counting as
        the first attempt (docs/RESILIENCE.md).  When the circuit
        breaker is open, no pool is spawned at all and the whole batch
        runs serially.
        """
        chunks = _chunked(order, width)
        errors: Dict[int, BaseException] = {}
        tracker = run.tracker
        if not self._breaker.allow():
            tracker.bump("circuit_open_skips")
            if self.recorder.enabled:
                self.recorder.record("resilience", "breaker_open_skip",
                                     state=self._breaker.state,
                                     queries=len(order))
            _log.warning("process-pool circuit breaker is %s; degrading "
                         "%d queries without spawning a pool",
                         self._breaker.state, len(order))
            failed = list(order)
        else:
            failed = self._run_pool(outcomes, chunks, prepared, run,
                                    errors, merged_pids)
        if not failed:
            return
        # With no retry left a failed chunk's queries turn straight
        # into error outcomes: nothing re-runs, so no serial tier.
        rerun = bool(run.policy.max_retries) or not errors
        if rerun:
            tracker.bump("degraded_to_serial", len(failed))
            _log.warning("retrying %d queries serially", len(failed))
        if errors and run.policy.max_retries:
            tracker.backoff(run.policy, 1)
        tier_ctx = run.tracer.span("degrade", parent=run.batch_span,
                                   tier="serial", queries=len(failed)) \
            if rerun and run.tracer is not None else nullcontext()
        with tier_ctx:
            for position in failed:
                outcomes[position] = self._resilient_query(
                    prepared[position], run,
                    failure=errors.get(position))

    def _run_pool(self, outcomes: List[Optional[SearchOutcome]],
                  chunks: List[List[int]], prepared: List[List[str]],
                  run: _BatchRun, errors: Dict[int, BaseException],
                  merged_pids: List[int]) -> List[int]:
        """One process-pool round; returns the failed positions.

        Completed chunks are always harvested — a ``BrokenProcessPool``
        from one chunk's future must not discard the results of the
        chunks that finished before the pool died.  Each failed
        chunk's exception is recorded against its queries in
        ``errors``, so a query that later exhausts its retries names
        the failure that actually took it down.

        Observability: every chunk gets a span opened at submit time
        and closed at harvest (its duration therefore includes queue
        wait); each worker ships back ``(rows, meta)`` where ``meta``
        carries its pid, its collector snapshot — merged into the
        service collector, which is what makes ``--metrics-json``
        totals include worker-side counters — and its serialized
        spans, re-parented under the chunk span with the worker clock
        shifted onto the coordinator's.
        """
        from repro.prxml.serializer import serialize_pxml
        # One state capture for the whole pool round: the payload the
        # workers parse and the encoding the parent hydrates results
        # from must describe the same generation.
        state = self._state
        injector, tracker, tracer = run.injector, run.tracker, run.tracer
        payload = serialize_pxml(state.index.encoded.document)
        if injector.enabled:
            payload = injector.corrupt(payload)
        source = DocumentSource(payload)
        chunk_spans: List[Optional[Span]] = []
        jobs: List[Job] = []
        for chunk in chunks:
            span = tracer.begin("chunk", parent=run.batch_span,
                                tier="process", queries=len(chunk)) \
                if tracer is not None else None
            chunk_spans.append(span)
            jobs.append(Job(
                source=source,
                term_lists=[prepared[position] for position in chunk],
                k=run.k, algorithm=run.algorithm.value,
                semantics=run.semantics, sanitize=run.sanitize,
                deadline_ms=run.deadline_ms,
                instrument=self.collector.enabled,
                trace_ctx=(tracer.trace_id, span.span_id)
                if tracer is not None and span is not None else None,
                faults=(injector.spec(), injector.seed),
                cache_size=state.caches.match_entries.capacity))
        failed: List[int] = []
        try:
            scope = WorkerPool("process", len(jobs))
        except Exception as error:
            tracker.bump("pool_spawn_failures")
            self._breaker.record_failure()
            _log.error("cannot spawn a process pool (%s); degrading "
                       "the whole batch", error)
            if tracer is not None:
                for span in chunk_spans:
                    tracer.finish(span, status=STATUS_ERROR,
                                  error="pool_spawn")
            for chunk in chunks:
                for position in chunk:
                    errors[position] = error
            return [position for chunk in chunks for position in chunk]
        broken = False
        with scope as pool:
            futures: List[Future] = []
            for job in jobs:
                try:
                    futures.append(pool.submit(run_job, job))
                except Exception as error:  # a broken or unstartable pool
                    futures.append(Future())
                    futures[-1].set_exception(error)
            for chunk, chunk_span, future in zip(chunks, chunk_spans,
                                                 futures):
                try:
                    rows, meta = future.result()
                except Exception as error:
                    # Record the failed chunk: its positions, the error
                    # its queries will name, and its span's close.
                    # A source that does not load fails every
                    # chunk alike: a crash, like a broken pool.
                    broken = broken or isinstance(
                        error, (BrokenExecutor, SourceLoadError))
                    failed.extend(chunk)
                    errors.update(dict.fromkeys(chunk, error))
                    if tracer is not None and chunk_span is not None:
                        tracer.finish(chunk_span, status=STATUS_ERROR,
                                      error=type(error).__name__)
                    tracker.bump("chunk_failures")
                    tracker.bump("chunk_failure_queries", len(chunk))
                    _log.warning("process chunk of %d queries failed: "
                                 "%s", len(chunk), error)
                    continue
                if self.collector.enabled and meta.get("metrics"):
                    self.collector.merge_snapshot(meta["metrics"])
                    merged_pids.append(meta.get("pid", 0))
                if tracer is not None and chunk_span is not None:
                    tracer.adopt(meta.get("spans", ()),
                                 parent=chunk_span,
                                 shift_ms=chunk_span.start_ms)
                    tracer.finish(chunk_span, pid=meta.get("pid", 0))
                decoded = decode_rows(rows, state.index.encoded)
                for position, outcome in zip(chunk, decoded):
                    _annotate_state(outcome, state)
                    outcomes[position] = outcome
                    if outcome.partial:
                        tracker.note_partial(outcome.termination_reason)
        if broken:
            tracker.bump("worker_crashes")
            self._breaker.record_failure()
            if self.recorder.enabled:
                self.recorder.record("resilience", "breaker",
                                     state=self._breaker.state,
                                     failures=self._breaker.failures)
        else:
            self._breaker.record_success()
        return failed

    # -- cache management -----------------------------------------------------

    def cache_stats(self) -> Dict[str, object]:
        """Cumulative per-cache counters (``match_entries``,
        ``results``) of the *current* generation's caches (a reload
        starts fresh ones)."""
        state = self._state
        stats = state.caches.stats()
        stats["results"] = state.results.stats()
        return stats

    def clear_caches(self) -> None:
        """Drop every cached value (counters stay — cumulative)."""
        state = self._state
        state.caches.clear()
        state.results.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self._state
        extra = f", generation={state.generation}" \
            if state.generation else ""
        return (f"QueryService(terms={len(state.index)}, "
                f"cache_size={state.results.capacity}{extra})")


def _annotate_state(outcome: SearchOutcome, state: _ServiceState) -> None:
    """Stamp the generation/epoch the query actually ran against.

    The serving layer's drain/reload tests read this back to prove an
    in-flight request finished on the state it captured.
    """
    outcome.stats["service_state"] = {"generation": state.generation,
                                      "epoch": state.epoch}


class _FrozenDict(Dict[str, Any]):
    """A read-only dict: a cached answer's nested stats, shared by
    every replay.  It pickles (and copies) as a plain dict, so a
    shipped or copied replay is an ordinary mutable outcome."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("a cached answer's stats are read-only; "
                        "replace the top-level entry instead")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Tuple[type, Tuple[Dict[str, Any]]]:
        return (dict, (dict(self),))


#: Stats values that are immutable already (most of a stats dict), so
#: freezing passes them through without a call.
_SCALARS = frozenset((int, float, str, bool, type(None)))


def _freeze(value: Any) -> Any:
    """A read-only copy of a stats value: dicts become
    :class:`_FrozenDict`, lists tuples, recursively."""
    if isinstance(value, dict):
        return _FrozenDict({
            key: item if type(item) in _SCALARS else _freeze(item)
            for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(item if type(item) in _SCALARS else _freeze(item)
                     for item in value)
    return value


class _CacheEntry(NamedTuple):
    """One result-cache entry: a complete answer and the JSON of its
    fixed response fields, made together at insert and evicted
    together."""

    outcome: SearchOutcome
    encoded: EncodedAnswer


def _cache_entry(outcome: SearchOutcome) -> _CacheEntry:
    """The result cache's private copy of a computed answer, made once
    at insert: the answers as a tuple (each :class:`SLCAResult` is
    read-only) and the stats frozen, so nothing a caller does to the
    computed outcome or to any replay reaches the entry, plus their
    encoded response fields, which every replay shares."""
    return _CacheEntry(SearchOutcome(results=tuple(outcome.results),
                                     stats=_freeze(outcome.stats)),
                       encode_answer(outcome))


def _replay(entry: SearchOutcome) -> SearchOutcome:
    """A replay of a cache entry: it shares the entry's answers and
    nested stats, under a fresh top-level stats dict that the caller
    may annotate, marked ``stats["service"] == "result_cache"``.  Only
    complete outcomes are ever cached, so the replay is complete by
    construction."""
    stats = dict(entry.stats)
    stats["service"] = "result_cache"
    return SearchOutcome(results=entry.results, stats=stats)


def _chunked(order: List[int], width: int) -> List[List[int]]:
    """Split ``order`` into at most ``width`` contiguous chunks."""
    count = max(1, min(width, len(order)))
    size, extra = divmod(len(order), count)
    chunks: List[List[int]] = []
    start = 0
    for position in range(count):
        stop = start + size + (1 if position < extra else 0)
        if stop > start:
            chunks.append(order[start:stop])
        start = stop
    return chunks


def load_query_file(path: str) -> List[List[str]]:
    """Parse a batch query file: one query per line.

    Keywords are whitespace-separated; blank lines and ``#`` comments
    are skipped.  A file with no queries at all is rejected (an empty
    batch is almost certainly a wrong path, not an intention).
    """
    queries: List[List[str]] = []
    try:
        with open(path, "r", encoding="utf-8") as source:
            for line in source:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                queries.append(stripped.split())
    except OSError as error:
        raise QueryError(f"cannot read query file {path}: "
                         f"{error}") from error
    if not queries:
        raise QueryError(f"{path}: no queries (every line is blank or "
                         f"a comment)")
    return queries
