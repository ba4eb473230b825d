"""The asyncio HTTP server around one :class:`QueryService`.

Stdlib only: ``asyncio.start_server`` accepts connections, request
heads are framed with ``readuntil(b"\\r\\n\\r\\n")``, bodies by
``Content-Length``, and connections are keep-alive until the client
opts out.  The event loop never runs a search algorithm: every
admitted request that must compute is handed to a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` (as many workers as
admission slots, so an admitted request never queues behind another),
keeping ``/health`` and ``/metrics`` responsive while searches run.
The one thing the loop answers itself is a ``/search`` whose answer
the result cache already holds: :meth:`QueryService.lookup` runs on the
loop, and a hit is replayed there, skipping the hop to a worker thread
and back.  Its body is a byte splice: the cache entry holds its
answer's encoded JSON, and only ``elapsed_ms`` and ``trace_id`` are
written per request (about 9 µs of Python for a ten-answer hit on a
2-CPU Xeon container, lookup included).  A miss — and every search
while the fault injector is armed, and every corpus search — takes
the executor path.

Request lifecycle (the admission order is deliberate)::

    rate limit (429 per client) -> admission slot (429 overloaded /
        503 draining) -> parse/validate (400, structured)
        -> result-cache lookup on the loop
        -> hit: replay on the loop -> 200
        -> miss: executor thread: fault hook, span, QueryService -> 200

Draining (SIGTERM or :meth:`ServeServer.request_stop`) closes the
listener, flips the admission latch, and proactively closes idle
keep-alive connections — their handlers are parked in ``readuntil()``
and would otherwise never observe the latch (on Python >= 3.12.1
``Server.wait_closed()`` waits for every handler, so shutdown never
awaits it).  In-flight requests finish on the generation they
captured (`stats["service_state"]` proves it) with ``Connection:
close`` on the response; connections still open after
``drain_timeout_s`` are cancelled, and the process exits 0.
``POST /reload`` delegates to the same
:meth:`QueryService.reload` hot-swap path the SIGHUP handler uses,
answering 409 while one is already in flight.

Every ``/search`` and ``/batch`` response carries a deterministic
content-derived ``trace_id``.  A span tree costs extra, so only a
``/search`` that sets ``spans`` runs under a
:class:`~repro.obs.spans.SpanTracer` — producing the same tree
(``http.request`` -> ``query`` -> engine timer spans) as a CLI query,
returned in the response.  Every other request gets a
:class:`~repro.obs.spans.NullTracer` that carries only the id, and its
engine metrics run straight into the service collector.

Every answered ``/search`` and ``/batch`` also stamps four always-on
layers — parse + admission, executor queue wait, service, JSON encode
+ write — and folds them once into the ``serve.layer.*_ms``
histograms, the remainder into ``serve.layer.unattributed_ms`` and
the whole into ``serve.request_ms`` (docs/OBSERVABILITY.md).

Single-writer loop-thread state: ``_reload_inflight`` and
``_sequence`` are only ever touched from the event-loop thread
(executor threads receive them as call arguments), so they need no
lock.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import QueryError, ReproError, StorageError
from repro.obs import (MetricsCollector, NullTracer, SpanTracer,
                       Stopwatch, TracerLike, build_report,
                       derive_trace_id, format_sample,
                       prometheus_lines, quantile_lines)
from repro.obs.logging import get_logger
from repro.resilience.deadline import Deadline
from repro.resilience.faults import NULL_FAULTS, FaultsLike
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (DEFAULT_MAX_BODY, ApiError,
                                  BatchRequest, HttpRequest,
                                  ProtocolError, SearchRequest,
                                  error_response, json_response,
                                  outcome_payload, parse_batch_request,
                                  parse_head, parse_search_request,
                                  query_error_to_api, render_response,
                                  search_body)
from repro.serve.ratelimit import (NULL_RATE_LIMITER, RateLimiter,
                                   RateLimiterLike)

_log = get_logger("serve")

#: Default Retry-After (seconds) for an overloaded 429 — long enough
#: to shed herd retries, short enough that a draining peer recovers.
DEFAULT_RETRY_AFTER_S = 1.0


@dataclass
class ServeConfig:
    """Knobs of one server instance (docs/SERVING.md).

    Attributes:
        host/port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`ServeServer.port`).
        max_inflight: global admission cap — requests running at
            once; overflow answers 429 with ``Retry-After``.
        rate/burst: per-client token bucket (requests/second and
            bucket depth); ``rate <= 0`` disables rate limiting.
        client_header: header naming the client for rate limiting —
            only consulted when ``trust_client_header`` is set
            (falls back to the peer address).
        trust_client_header: key rate-limit buckets on the
            client-supplied ``client_header`` value.  Off by default:
            an unauthenticated caller could rotate ids to dodge its
            own bucket and churn the bounded LRU, so identity is the
            peer address unless an authenticating proxy upstream
            pins the header (docs/SERVING.md).
        max_body: request body byte cap (413 beyond it).
        drain_timeout_s: how long shutdown waits for in-flight
            requests before cancelling the stragglers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    rate: float = 0.0
    burst: float = 20.0
    client_header: str = "x-client-id"
    trust_client_header: bool = False
    max_body: int = DEFAULT_MAX_BODY
    drain_timeout_s: float = 30.0


class _LayerClock:
    """The always-on layer stamps of one ``/search`` or ``/batch``.

    One :class:`Stopwatch`, started once the request head is read, is
    read at every layer boundary (milliseconds since that start):
    ``submitted`` when the loop thread hands the request to the
    executor, ``started``/``finished`` around the executor-thread
    body, ``encoding`` when the loop thread begins the JSON encode.
    The executor thread writes its two stamps before its future
    resolves and the loop thread reads them after awaiting it, so the
    future orders every access.  A ``/search`` replayed on the loop
    stamps ``submitted`` and ``started`` together before its lookup:
    its queue layer is 0 and its service layer is the lookup and the
    replay.
    """

    __slots__ = ("watch", "submitted", "started", "finished",
                 "encoding")

    def __init__(self) -> None:
        self.watch = Stopwatch().start()
        self.submitted = self.started = self.finished = 0.0
        #: Stamped only once the executor body answered: a request
        #: that failed before (4xx/5xx) folds no layers.
        self.encoding: Optional[float] = None

    def stamp(self) -> float:
        return self.watch.elapsed_ms

    def layers(self) -> Dict[str, List[float]]:
        """The request's layers, shaped for one ``observe_many``.

        ``unattributed`` is what no layer covers — the loop thread
        waking on the finished executor future and releasing the
        admission slot — so the layers sum to ``serve.request_ms``.
        """
        assert self.encoding is not None
        total = self.stamp()
        queue = self.started - self.submitted
        service = self.finished - self.started
        encode = total - self.encoding
        return {"serve.layer.parse_ms": [self.submitted],
                "serve.layer.queue_ms": [queue],
                "serve.layer.service_ms": [service],
                "serve.layer.encode_ms": [encode],
                "serve.layer.unattributed_ms":
                    [total - self.submitted - queue - service - encode],
                "serve.request_ms": [total]}


@dataclass
class _Connection:
    """Per-connection drain state (loop-thread-only, like the rest
    of the single-writer server state)."""

    writer: asyncio.StreamWriter
    #: True from request-head read until the response is written —
    #: drain closes only connections that are *not* busy.
    busy: bool = False


class ServeServer:
    """One HTTP front door over one :class:`QueryService`."""

    def __init__(self, service: Any,
                 config: Optional[ServeConfig] = None,
                 collector: Optional[MetricsCollector] = None,
                 faults: Optional[FaultsLike] = None,
                 ratelimiter: Optional[RateLimiterLike] = None) -> None:
        self._service = service
        self._config = config if config is not None else ServeConfig()
        if collector is not None:
            self._collector = collector
        elif getattr(service.collector, "enabled", False):
            self._collector = service.collector
        else:
            self._collector = MetricsCollector()
        self._faults = faults if faults is not None else NULL_FAULTS
        self._admission = AdmissionController(self._config.max_inflight)
        if ratelimiter is not None:
            self._ratelimit: RateLimiterLike = ratelimiter
        elif self._config.rate > 0:
            self._ratelimit = RateLimiter(self._config.rate,
                                          self._config.burst)
        else:
            self._ratelimit = NULL_RATE_LIMITER
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.max_inflight,
            thread_name_prefix="repro-serve")
        self._watch = Stopwatch().start()
        # Loop-thread-only state (see the module docstring).
        self._reload_inflight = False
        self._sequence = 0
        self._connections: "Dict[asyncio.Task, _Connection]" = {}
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------------

    async def run_async(self, ready: Optional[threading.Event] = None,
                        install_signals: bool = False,
                        on_ready: Optional[Any] = None) -> int:
        """Serve until stopped, then drain; returns the exit code (0).

        ``ready`` is set once the listener is bound (and
        :attr:`port` is readable); ``on_ready`` is called with the
        bound port at the same moment (the CLI prints the serving
        line from it).  ``install_signals`` arms SIGTERM / SIGINT as
        graceful-drain triggers and SIGHUP as a hot reload via
        ``loop.add_signal_handler`` (main thread only).
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        # A bind failure propagates to the caller; start_in_thread's
        # runner records it *before* its finally sets the ready event,
        # so the spawning thread always observes the error.
        server = await asyncio.start_server(
            self._on_connection, self._config.host, self._config.port,
            limit=self._config.max_body + (1 << 16))
        self.port = server.sockets[0].getsockname()[1]
        restored: List[int] = []
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._stop.set)
                restored.append(signum)
            if hasattr(signal, "SIGHUP"):
                loop.add_signal_handler(signal.SIGHUP,
                                        self._hup_reload)
                restored.append(signal.SIGHUP)
        if ready is not None:
            ready.set()
        if on_ready is not None:
            on_ready(self.port)
        _log.info("serving on http://%s:%d (max_inflight=%d)",
                  self._config.host, self.port,
                  self._config.max_inflight)
        try:
            await self._stop.wait()
        finally:
            self._admission.begin_drain()
            server.close()
            for signum in restored:
                loop.remove_signal_handler(signum)
        # The listener is closed but wait_closed() is deliberately
        # never awaited: on Python >= 3.12.1 it blocks until every
        # connection handler returns, and a handler parked in
        # readuntil() on an idle keep-alive connection would park
        # shutdown forever.  Closing idle connections wakes those
        # handlers; the bounded wait below is the real drain barrier.
        idle = self._close_idle_connections()
        _log.info("draining %d in-flight request(s); closed %d idle "
                  "connection(s)", self._admission.inflight(), idle)
        timed_out = False
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections),
                timeout=self._config.drain_timeout_s)
            if pending:
                timed_out = True
                _log.warning(
                    "cancelling %d connection(s) still open after the "
                    "%.1fs drain timeout", len(pending),
                    self._config.drain_timeout_s)
                for task in pending:
                    task.cancel()
                await asyncio.wait(pending, timeout=1.0)
        # A cancelled straggler's query thread cannot be interrupted;
        # let it finish on its own rather than blocking the exit.
        self._executor.shutdown(wait=not timed_out,
                                cancel_futures=timed_out)
        _log.info("drained; exiting")
        return 0

    def request_stop(self) -> None:
        """Trigger graceful drain from any thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # repro: ignore[R006] loop already closed: drain is done
                pass

    # -- connection handling --------------------------------------------------

    def _close_idle_connections(self) -> int:
        """Close every connection with no request mid-flight.

        Runs on the loop thread during drain.  Closing the transport
        wakes the handler out of its ``readuntil()`` with EOF; busy
        connections are left alone — they finish their request,
        observe the drain latch, and close themselves.
        """
        closed = 0
        for state in list(self._connections.values()):
            if not state.busy:
                state.writer.close()
                closed += 1
        return closed

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        state = _Connection(writer)
        if task is not None:
            self._connections[task] = state
        try:
            await self._handle_connection(reader, writer, state)
        finally:
            if task is not None:
                self._connections.pop(task, None)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter,
                                 state: _Connection) -> None:
        peer = writer.get_extra_info("peername")
        # The host element of the address tuple is carried separately
        # from the display string: an IPv6 host contains colons, so
        # anything that string-parses ``host:port`` back apart (the
        # rate limiter used to) would key ``::1:54321`` on ``::1:``'s
        # prefix instead of the host.
        if isinstance(peer, tuple) and len(peer) >= 2:
            client_host = str(peer[0])
            display_host = f"[{client_host}]" if ":" in client_host \
                else client_host
            client = f"{display_host}:{peer[1]}"
        else:
            client_host = ""
            client = "unknown"
        try:
            while True:
                if self._admission.draining:
                    return
                state.busy = False
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away between requests
                except asyncio.LimitOverrunError:
                    writer.write(error_response(
                        ApiError(400, "bad_request",
                                 "request head too large"),
                        keep_alive=False))
                    await writer.drain()
                    return
                state.busy = True
                clock = _LayerClock()
                try:
                    request = parse_head(head, client=client,
                                     client_host=client_host)
                except ProtocolError as error:
                    writer.write(error_response(
                        ApiError(400, "bad_request", str(error)),
                        keep_alive=False))
                    await writer.drain()
                    return
                raw_length = request.headers.get("content-length", "0")
                try:
                    length = int(raw_length)
                except ValueError:
                    length = -1
                if length < 0:
                    writer.write(error_response(
                        ApiError(400, "bad_request",
                                 f"malformed Content-Length: "
                                 f"{raw_length!r}"), keep_alive=False))
                    await writer.drain()
                    return
                if length > self._config.max_body:
                    # The body is not read, so the framing is lost —
                    # answer and close rather than desync.
                    writer.write(error_response(
                        ApiError(413, "payload_too_large",
                                 f"request body of {length} bytes "
                                 f"exceeds the {self._config.max_body}"
                                 f"-byte cap"), keep_alive=False))
                    await writer.drain()
                    return
                if length:
                    try:
                        request.body = await reader.readexactly(length)
                    except (asyncio.IncompleteReadError,
                            ConnectionError):
                        return
                response = await self._dispatch(request, clock)
                writer.write(response)
                await writer.drain()
                if clock.encoding is not None:
                    self._collector.observe_many(clock.layers())
                if not request.keep_alive or self._admission.draining:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # repro: ignore[R006] peer already gone on close
                pass

    # -- routing --------------------------------------------------------------

    def _keep(self, request: HttpRequest) -> bool:
        """Keep-alive unless the client opts out or we are draining —
        drain responses advertise ``Connection: close`` so the client
        does not park an idle connection on a dying server."""
        return request.keep_alive and not self._admission.draining

    async def _dispatch(self, request: HttpRequest,
                        clock: _LayerClock) -> bytes:
        """Route one request; every failure becomes a structured
        JSON error (the second satellite bugfix: a QueryError is the
        *client's* 400, never this server's 500)."""
        if self._collector.enabled:
            self._collector.count("serve.requests")
        try:
            if request.path == "/health":
                self._require_method(request, "GET")
                return json_response(200, self._health_payload(),
                                     keep_alive=self._keep(request))
            if request.path == "/metrics":
                self._require_method(request, "GET")
                return self._metrics_response(request)
            if request.path == "/search":
                self._require_method(request, "POST")
                return await self._search(request, clock)
            if request.path == "/batch":
                self._require_method(request, "POST")
                return await self._batch(request, clock)
            if request.path == "/reload":
                self._require_method(request, "POST")
                return await self._reload(request)
            raise ApiError(404, "not_found",
                           f"unknown path {request.path!r}")
        except ApiError as error:
            self._count_error(error.code)
            return error_response(error, keep_alive=self._keep(request))
        except QueryError as error:
            api = query_error_to_api(error)
            self._count_error(api.code)
            return error_response(api, keep_alive=self._keep(request))
        except Exception as error:  # noqa: BLE001 - boundary backstop
            _log.exception("unhandled error serving %s %s",
                           request.method, request.path)
            self._count_error("internal")
            return error_response(
                ApiError(500, "internal",
                         f"{type(error).__name__}: {error}"),
                keep_alive=self._keep(request))

    def _require_method(self, request: HttpRequest,
                        method: str) -> None:
        if request.method != method:
            raise ApiError(405, "method_not_allowed",
                           f"{request.path} only accepts {method}")

    def _count_error(self, code: str) -> None:
        if self._collector.enabled:
            self._collector.count(f"serve.errors.{code}")

    # -- admission ------------------------------------------------------------

    def _admit(self, request: HttpRequest) -> None:
        """Rate limit then claim a slot (raises the 429/503 family).

        Runs *before* the body is parsed, so a rejected client never
        costs a JSON decode on the event-loop thread.  The rate-limit
        identity is the host element of the peer's socket address
        tuple (one bucket per host, not per connection) — taken from
        ``client_host``, never parsed out of the display string, so an
        IPv6 peer like ``::1`` keys one bucket instead of one per
        source port.  The ``client_header`` value is honoured only
        under ``trust_client_header``, because an unauthenticated
        caller could rotate ids to dodge its bucket and churn the LRU.
        """
        client = request.client_host or request.client
        if self._config.trust_client_header:
            client = request.headers.get(self._config.client_header,
                                         "") or client
        delay = self._ratelimit.check(client)
        if delay is not None:
            raise ApiError(429, "rate_limited",
                           f"client {client!r} is over its request "
                           f"rate", retry_after=delay)
        if not self._admission.try_acquire():
            if self._admission.draining:
                # A drain is transient: a retrying client will reach
                # the restarted (or load-balanced sibling) server, so
                # 503 carries Retry-After exactly like the 429s do.
                raise ApiError(503, "draining",
                               "server is draining for shutdown",
                               retry_after=DEFAULT_RETRY_AFTER_S)
            raise ApiError(429, "overloaded",
                           f"server is at its in-flight cap of "
                           f"{self._config.max_inflight}",
                           retry_after=DEFAULT_RETRY_AFTER_S)

    # -- /search and /batch ---------------------------------------------------

    async def _search(self, request: HttpRequest,
                      clock: _LayerClock) -> bytes:
        self._admit(request)
        try:
            params = parse_search_request(request.json())
            # The deadline is stamped *here*, at admission on the
            # event-loop thread: the executor queue wait, the corpus
            # scatter and every per-shard child budget all draw from
            # this one shrinking wall clock, so the end-to-end request
            # cannot overshoot what the client asked for no matter
            # where the time goes.
            deadline = Deadline.after_ms(params.deadline_ms) \
                if params.deadline_ms is not None else None
            self._sequence += 1
            before_lookup = clock.stamp()
            found = None if self._faults.enabled else \
                self._service.lookup(params.keywords, k=params.k,
                                     algorithm=params.algorithm,
                                     semantics=params.semantics,
                                     deadline=deadline)
            if found is not None and found.outcome is not None:
                # A result-cache replay is answered here, on the loop:
                # its Python work is smaller than the hop to a worker
                # thread and back.
                clock.submitted = clock.started = before_lookup
                answer = self._answer_search(
                    params, deadline, self._sequence, request.client,
                    clock, found)
                if self._collector.enabled:
                    self._collector.count("serve.replays_on_loop")
            else:
                loop = asyncio.get_running_loop()
                clock.submitted = clock.stamp()
                answer = await loop.run_in_executor(
                    self._executor, self._run_search, params, deadline,
                    self._sequence, request.client, clock, found)
        finally:
            self._admission.release()
        clock.encoding = clock.stamp()
        return render_response(200, answer(),
                               keep_alive=self._keep(request))

    def _run_search(self, params: SearchRequest,
                    deadline: Optional[Deadline], sequence: int,
                    client: str, clock: _LayerClock,
                    found: Optional[Any]) -> Callable[[], bytes]:
        """Executor-thread body of one /search request: the query's
        compute half, on the loop's lookup verdict ``found`` (``None``
        for a corpus, or while faults are armed)."""
        clock.started = clock.stamp()
        return self._answer_search(params, deadline, sequence, client,
                                   clock, found)

    def _answer_search(self, params: SearchRequest,
                       deadline: Optional[Deadline], sequence: int,
                       client: str, clock: _LayerClock,
                       found: Optional[Any]) -> Callable[[], bytes]:
        """Answer one /search on whichever thread answers; returns its
        body builder, which the loop calls once it starts encoding.

        The span tree is built only when the request sets ``spans``;
        otherwise a :class:`NullTracer` carries just the trace id, so
        the body and every boundary reading ``tracer.trace_id`` still
        see it.  A body splices the encoded answer of the cache entry
        that holds its answer (``found.encoded``, set by a hit or by
        the compute half caching what it computed); a body whose
        answer no entry holds encodes its outcome.
        """
        trace_id = derive_trace_id(
            "serve", sequence, " ".join(params.keywords), params.k,
            params.algorithm, params.semantics)
        tracer: TracerLike = SpanTracer(trace_id=trace_id) \
            if params.spans else NullTracer(trace_id)
        with self._collector.time("serve.search"):
            with tracer.span("http.request", method="POST",
                             path="/search", client=client):
                self._faults.before_query(params.keywords)
                outcome = self._service.search(
                    params.keywords, k=params.k,
                    algorithm=params.algorithm,
                    semantics=params.semantics,
                    deadline=deadline, tracer=tracer, lookup=found)
        answer = functools.partial(
            search_body, outcome, clock.stamp() - clock.started,
            trace_id, tracer.export() if params.spans else None,
            found.encoded if found is not None else None)
        clock.finished = clock.stamp()
        return answer

    async def _batch(self, request: HttpRequest,
                     clock: _LayerClock) -> bytes:
        self._admit(request)
        try:
            params = parse_batch_request(request.json())
            self._sequence += 1
            loop = asyncio.get_running_loop()
            clock.submitted = clock.stamp()
            payload = await loop.run_in_executor(
                self._executor, self._run_batch, params,
                self._sequence, clock)
        finally:
            self._admission.release()
        clock.encoding = clock.stamp()
        return json_response(200, payload,
                             keep_alive=self._keep(request))

    def _run_batch(self, params: BatchRequest, sequence: int,
                   clock: _LayerClock) -> Dict[str, Any]:
        """Executor-thread body of one /batch request (never traced:
        a batch response has no ``spans`` field)."""
        clock.started = clock.stamp()
        trace_id = derive_trace_id(
            "serve.batch", sequence, params.k, params.algorithm,
            params.semantics,
            *(" ".join(query) for query in params.queries))
        with self._collector.time("serve.batch"):
            for query in params.queries:
                self._faults.before_query(query)
            batch = self._service.batch_search(
                params.queries, k=params.k,
                algorithm=params.algorithm,
                semantics=params.semantics,
                workers=params.workers, executor=params.executor,
                deadline_ms=params.deadline_ms)
        outcomes = [outcome_payload(outcome, None)
                    for outcome in batch.outcomes]
        payload = {"outcomes": outcomes,
                   "elapsed_ms": round(batch.elapsed_ms, 3),
                   "trace_id": trace_id,
                   "stats": {
                       "queries": len(batch.outcomes),
                       "partial": sum(1 for outcome in batch.outcomes
                                      if outcome.partial),
                       "errors": sum(
                           1 for outcome in batch.outcomes
                           if outcome.termination_reason == "error"),
                       "executor": batch.stats["executor"],
                       "workers": batch.stats["workers"],
                   }}
        clock.finished = clock.stamp()
        return payload

    # -- /health, /metrics, /reload -------------------------------------------

    def _service_snapshot(self) -> Dict[str, Any]:
        """One coherent service view for ``/health`` and JSON
        ``/metrics``: generation, epoch, reload counters and breaker
        taken together under the service's stats lock
        (:meth:`QueryService.health_snapshot`), so a concurrent reload
        can never yield a payload mixing old and new generations, and
        the loop never waits for a reload's load.
        Falls back to the field-by-field reads for service objects
        that predate ``health_snapshot``."""
        snapshot = getattr(self._service, "health_snapshot", None)
        if callable(snapshot):
            return dict(snapshot())
        storage = dict(self._service.storage_stats())
        storage["breaker"] = self._service.breaker_stats()
        return storage

    def _health_payload(self) -> Dict[str, Any]:
        service = self._service_snapshot()
        payload = {"status": ("draining" if self._admission.draining
                              else "ok"),
                   "generation": service["generation"],
                   "epoch": service["epoch"],
                   "reloads": service.get("reloads"),
                   "breaker": service.get("breaker"),
                   "admission": self._admission.stats(),
                   "ratelimit": self._ratelimit.stats(),
                   "reload_in_flight": self._reload_inflight,
                   "uptime_ms": round(self._watch.elapsed * 1000.0, 3)}
        # A corpus service reports its per-shard generations/epochs.
        if "shards" in service:
            payload["shards"] = service["shards"]
        return payload

    def _serve_sample_lines(self) -> List[str]:
        """Serve-layer gauges, incl. a labelled generation info sample
        (label values are escaped — the first satellite bugfix)."""
        storage = self._service.storage_stats()
        lines = [format_sample(
            "serve.generation.info", 1,
            {"generation": storage["generation"] or "adhoc",
             "directory": storage["directory"] or ""})]
        for name, value in sorted(self._admission.stats().items()):
            lines.append(format_sample(f"serve.admission.{name}",
                                       value))
        for name, value in sorted(self._ratelimit.stats().items()):
            lines.append(format_sample(f"serve.ratelimit.{name}",
                                       value))
        return lines

    def _metrics_response(self, request: HttpRequest) -> bytes:
        collector = self._collector
        if request.query.get("format") == "json":
            from repro.core.result import SearchOutcome
            outcome = SearchOutcome(stats={
                "metrics": collector.snapshot(),
                "quantiles": collector.quantile_snapshot(),
                "serve": {"admission": self._admission.stats(),
                          "ratelimit": self._ratelimit.stats(),
                          "service": self._service_snapshot()},
            })
            report = build_report(
                [], 0, "serve", "slca", outcome,
                elapsed_ms=self._watch.elapsed * 1000.0)
            return json_response(200, report,
                                 keep_alive=self._keep(request))
        lines = prometheus_lines(collector.snapshot())
        lines.extend(quantile_lines(collector.quantile_snapshot()))
        lines.extend(self._serve_sample_lines())
        body = ("\n".join(lines) + "\n").encode("utf-8")
        return render_response(
            200, body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=self._keep(request))

    def _hup_reload(self) -> None:
        """The SIGHUP handler: same hot-swap path as ``POST /reload``
        (a signal while one is in flight is logged and dropped)."""
        if self._reload_inflight or self._loop is None:
            _log.warning("SIGHUP reload skipped: one is in flight")
            return
        self._reload_inflight = True
        future = self._loop.run_in_executor(None, self._service.reload)

        def finished(fut: "asyncio.Future[Any]") -> None:
            self._reload_inflight = False
            try:
                state = fut.result()
            except ReproError as error:
                _log.error("SIGHUP reload rejected: %s", error)
            else:
                _log.info("SIGHUP reload: now serving generation %s "
                          "(epoch %d)", state.generation, state.epoch)

        future.add_done_callback(finished)

    async def _reload(self, request: HttpRequest) -> bytes:
        if self._reload_inflight:
            raise ApiError(409, "reload_in_flight",
                           "a reload is already in flight")
        self._reload_inflight = True
        try:
            loop = asyncio.get_running_loop()
            # The default executor, not the request pool: a reload
            # must not queue behind slow admitted queries.
            state = await loop.run_in_executor(None,
                                               self._service.reload)
        except StorageError as error:
            raise ApiError(500, "reload_failed", str(error)) from error
        except ReproError as error:
            raise ApiError(500, "reload_failed", str(error)) from error
        finally:
            self._reload_inflight = False
        return json_response(200,
                             {"generation": state.generation,
                              "epoch": state.epoch},
                             keep_alive=self._keep(request))


# -- embedding helpers --------------------------------------------------------


class ServeHandle:
    """A server running on a background thread (tests, benchmark)."""

    def __init__(self, server: ServeServer, thread: threading.Thread,
                 outcome: Dict[str, Any]) -> None:
        self.server = server
        self._thread = thread
        self._outcome = outcome

    @property
    def port(self) -> int:
        port = self.server.port
        if port is None:
            raise ReproError("server is not listening")
        return port

    def stop(self, timeout_s: float = 30.0) -> int:
        """Graceful drain; returns the server's exit code."""
        self.server.request_stop()
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise ReproError("server did not drain within "
                             f"{timeout_s}s")
        error = self._outcome.get("error")
        if error is not None:
            raise error
        return int(self._outcome.get("exit", 1))


def start_in_thread(service: Any,
                    config: Optional[ServeConfig] = None,
                    collector: Optional[MetricsCollector] = None,
                    faults: Optional[FaultsLike] = None,
                    ratelimiter: Optional[RateLimiterLike] = None
                    ) -> ServeHandle:
    """Run a :class:`ServeServer` on a daemon thread; returns once the
    listener is bound (``handle.port`` is the ephemeral port)."""
    server = ServeServer(service, config, collector=collector,
                         faults=faults, ratelimiter=ratelimiter)
    ready = threading.Event()
    outcome: Dict[str, Any] = {}

    def runner() -> None:
        try:
            outcome["exit"] = asyncio.run(server.run_async(ready=ready))
        except BaseException as error:  # noqa: BLE001 - reported via stop()
            outcome["error"] = error
        finally:
            ready.set()

    thread = threading.Thread(target=runner, daemon=True,
                              name="repro-serve")
    thread.start()
    if not ready.wait(30.0):
        raise ReproError("server failed to start within 30s")
    if "error" in outcome:
        raise ReproError(f"server failed to start: "
                         f"{outcome['error']}")
    if server.port is None:
        raise ReproError("server thread exited before binding")
    return ServeHandle(server, thread, outcome)
