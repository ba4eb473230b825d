"""The process worker and the pool helper both services share.

:func:`run_job` is the one process-worker body, for
:class:`~repro.service.QueryService` batch chunks and
:class:`~repro.corpus.CorpusService` shard visits alike: it loads the
job's source once per worker process, runs :meth:`QueryService.search`
on each term list, and ships back plain rows — code strings and the
exact float probabilities — that :func:`decode_rows` re-hydrates in
the coordinator (shipping ``PNode`` objects would drag the whole
document through pickle).  Every executor is built by
:class:`WorkerPool`; the ``serial`` one is an :class:`InlineExecutor`.
"""

from __future__ import annotations

import os
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, TypeVar, Union)

from repro.core.result import SLCAResult, SearchOutcome
from repro.encoding.dewey import DeweyCode
from repro.exceptions import QueryError
from repro.index.cache import DEFAULT_CACHE_SIZE
from repro.index.storage import snapshot_path
from repro.obs.metrics import MetricsCollector
from repro.obs.spans import SpanTracer
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultsLike, parse_faults

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.encoding.encoder import EncodedDocument
    from repro.service.service import QueryService

#: Executor choices of :meth:`QueryService.batch_search` and
#: :meth:`CorpusService.search`.
EXECUTORS = ("serial", "thread", "process")


def check_executor(executor: str, label: str = "executor") -> None:
    """Reject an executor name outside :data:`EXECUTORS` (a caller
    error, so a :class:`~repro.exceptions.QueryError`)."""
    if executor not in EXECUTORS:
        choices = ", ".join(EXECUTORS)
        raise QueryError(f"unknown {label} {executor!r}; "
                         f"choose one of: {choices}")


_T = TypeVar("_T")


class InlineExecutor(Executor):
    """The ``serial`` executor: :meth:`submit` runs the call on the
    calling thread and returns an already-settled future, so serial
    work flows through the same completion-driven code as a pool's."""

    def submit(self, fn: Callable[..., _T], /, *args: Any,
               **kwargs: Any) -> "Future[_T]":
        future: "Future[_T]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: broad — settles like a pool task
            future.set_exception(error)
        return future


class WorkerPool:
    """One call's executor — inline for ``serial``, else a thread or
    process pool: ``with WorkerPool(executor, n) as pool`` yields it.
    Leaving the block by any exception, an interrupt included, cancels
    the queued work and returns at once; leaving it normally waits for
    the workers unless :attr:`linger` was set (only discarded hedge
    losers still run)."""

    def __init__(self, executor: str, max_workers: int) -> None:
        self.pool: Executor = (
            ProcessPoolExecutor(max_workers=max_workers)
            if executor == "process"
            else ThreadPoolExecutor(max_workers=max_workers)
            if executor == "thread" else InlineExecutor())
        self.linger = False

    def __enter__(self) -> Executor:
        return self.pool

    def __exit__(self, kind: object, error: object,
                 traceback: object) -> None:
        if kind is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        else:
            self.pool.shutdown(wait=not self.linger)


@dataclass(frozen=True)
class ShardSource:
    """A corpus shard: its database directory and the generation the
    coordinator serves (``None`` for a legacy flat directory).  The
    worker loads that generation, never whatever ``CURRENT`` names."""

    directory: str
    generation: Optional[str]


@dataclass(frozen=True)
class DocumentSource:
    """A batch: the serialized p-document (which the
    ``corrupt_payload`` fault can garble)."""

    payload: str


@dataclass(frozen=True)
class Job:
    """One process task: a source, the term lists to run on it, and
    their shared query shape.  ``deadline_ms`` budgets each query;
    ``instrument`` returns a metrics snapshot even when untraced;
    ``trace_ctx`` is ``(trace_id, parent_span_id)`` when traced;
    ``faults`` is the injector's spec string and seed."""

    source: Union[ShardSource, DocumentSource]
    term_lists: List[List[str]]
    k: int
    algorithm: str
    semantics: str
    sanitize: Optional[bool] = None
    deadline_ms: Optional[float] = None
    instrument: bool = False
    trace_ctx: Optional[Tuple[str, str]] = None
    faults: Tuple[str, int] = ("", 0)
    cache_size: int = DEFAULT_CACHE_SIZE


#: Per query: result code strings, their probabilities, JSON-safe
#: stats, and the partial marker + reason.
Row = Tuple[List[str], List[float], Dict[str, object], bool, str]

#: Per job: the worker's pid, metrics snapshot and serialized spans.
Meta = Dict[str, object]

#: Outcome stats a worker does not ship: the trace and estimates are
#: bulky, the metrics travel once in :data:`Meta`, and the coordinator
#: stamps the generation it served itself.
_LOCAL_STATS = ("trace", "estimates", "metrics", "service_state")


class SourceLoadError(RuntimeError):
    """A worker could not load its job's source.  A batch's workers
    share one source, so the batch counts this as a worker crash."""


#: This worker process's services, one per loaded source.
_SERVICES: Dict[Union[ShardSource, DocumentSource], "QueryService"] = {}

#: This worker process's fault injectors: ``times=`` counts per process.
_INJECTORS: Dict[Tuple[str, int], FaultsLike] = {}


def _service_for(source: Union[ShardSource, DocumentSource],
                 cache_size: int) -> "QueryService":
    """Load ``source`` on first use in this process, then reuse it;
    :class:`SourceLoadError` when it does not load."""
    # Imported here: repro.service.service imports this module.
    from repro.service.service import QueryService
    service = _SERVICES.get(source)
    if service is None:
        try:
            if isinstance(source, ShardSource):
                path = source.directory if source.generation is None \
                    else snapshot_path(source.directory,
                                       source.generation)
                # The coordinator verified this generation's checksums
                # when it loaded it; workers skip re-hashing every file.
                service = QueryService(path, cache_size=cache_size,
                                       verify=False)
            else:
                from repro.prxml.parser import parse_pxml
                service = QueryService(parse_pxml(source.payload),
                                       cache_size=cache_size)
        except Exception as error:
            raise SourceLoadError(
                f"worker cannot load its source: "
                f"{type(error).__name__}: {error}") from error
        _SERVICES[source] = service
    return service


def run_job(job: Job) -> Tuple[List[Row], Meta]:
    """The process-worker body: serve every term list of ``job``.

    When the coordinator instruments or traces, the queries run under
    the worker's own collector/tracer, whose snapshot and spans ride
    back in :data:`Meta`.  The worker's root span is pre-addressed —
    id ``<parent_span_id>.w`` under ``<parent_span_id>`` — so adopted
    spans slot under the right coordinator span with deterministic ids
    no other worker can collide with.
    """
    service = _service_for(job.source, job.cache_size)
    injector = _INJECTORS.get(job.faults)
    if injector is None:
        injector = _INJECTORS[job.faults] = parse_faults(*job.faults)
    if injector.enabled:
        injector.on_worker_chunk(job.term_lists)
    tracer: Optional[SpanTracer] = None
    if job.trace_ctx is not None:
        trace_id, parent_id = job.trace_ctx
        tracer = SpanTracer(trace_id=trace_id, root_id=f"{parent_id}.w",
                            root_parent=parent_id)
    collector = MetricsCollector(tracer=tracer) \
        if (job.instrument or tracer is not None) else None
    rows: List[Row] = []
    worker_ctx = tracer.span("worker", pid=os.getpid()) \
        if tracer is not None else nullcontext()
    with worker_ctx:
        for terms in job.term_lists:
            deadline = Deadline(budget_ms=job.deadline_ms) \
                if job.deadline_ms is not None else None
            if injector.enabled:
                injector.before_query(terms)
            outcome = service.search(terms, k=job.k,
                                     algorithm=job.algorithm,
                                     semantics=job.semantics,
                                     collector=collector,
                                     sanitize=job.sanitize,
                                     deadline=deadline, tracer=tracer)
            stats = {key: value for key, value in outcome.stats.items()
                     if key not in _LOCAL_STATS}
            rows.append(([str(result.code)
                          for result in outcome.results],
                         [result.probability
                          for result in outcome.results],
                         stats, outcome.partial,
                         outcome.termination_reason))
    meta: Meta = {"pid": os.getpid(),
                  "metrics": collector.snapshot()
                  if collector is not None else {},
                  "spans": tracer.export() if tracer is not None else []}
    return rows, meta


def decode_rows(rows: Sequence[Row],
                encoded: "Optional[EncodedDocument]" = None
                ) -> List[SearchOutcome]:
    """Rebuild outcomes from worker rows.  Codes parse back
    bit-identically and floats cross pickle exactly; ``encoded``, when
    given, re-attaches each result's p-document node."""
    outcomes: List[SearchOutcome] = []
    for codes, probabilities, stats, partial, reason in rows:
        results = []
        for text, probability in zip(codes, probabilities):
            code = DeweyCode.parse(text)
            results.append(SLCAResult(
                code=code, probability=probability,
                node=encoded.node_at(code)
                if encoded is not None else None))
        outcomes.append(SearchOutcome(results=results, stats=stats,
                                      partial=partial,
                                      termination_reason=reason))
    return outcomes
