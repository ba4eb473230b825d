"""Deterministic concurrency stress harness for :class:`QueryService`.

The static rules (R008-R012) prove lock *discipline*; this module
proves lock *behaviour*: many threads hammer one live service with
searches, batches, stats reads, hot reloads and (optionally) SIGUSR2
flight dumps while every lock in the system is wrapped in an
:class:`~repro.analysis.concurrency.witness.InstrumentedLock`
reporting to one shared :class:`LockWitness`.  Any acquisition that
inverts the declared lock order, any unguarded touch of a registered
guarded object, and any answer that drifts from the serially-computed
oracle fails the run.

Determinism: every thread gets its own seeded RNG, the query set and
its expected answers are computed serially before the storm, and all
threads leave a barrier together.  Thread interleaving itself is of
course not reproducible — the *checks* are what make failures crisp.

Shared by ``tests/test_concurrency_stress.py`` and
``repro check --concurrency`` (the CI gate).  Service imports are
lazy so ``repro.analysis.concurrency`` stays importable from the
low-level modules (``index.cache``, ``obs``) that the service itself
builds on.
"""

from __future__ import annotations

import random
import signal as _signal
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.concurrency.witness import (DEFAULT_LOCK_ORDER,
                                                LockWitness, wrap_lock)

#: Default worker-thread count (reloader excluded).
DEFAULT_THREADS = 6

#: Default operations per worker thread.
DEFAULT_ITERATIONS = 40

#: Hard per-phase timeout: a stress run that has not finished after
#: this many seconds is reported as hung rather than waited on forever.
JOIN_TIMEOUT_S = 120.0

_Answer = Tuple[str, float]


def _canonical(outcome: Any) -> List[_Answer]:
    """A search outcome reduced to an order-sensitive comparable form."""
    return [(str(result.code), round(result.probability, 9))
            for result in outcome.results]


def _sample_queries(service: Any, seed: int,
                    max_queries: int = 8) -> List[List[str]]:
    """Deterministic keyword queries drawn from the served index.

    The most frequent terms (ties broken lexicographically) become
    single-term queries plus adjacent two-term conjunctions, so the
    set exercises both the single-posting path and the multi-keyword
    SLCA merge regardless of which fixture database is loaded.
    """
    index = service.current_index()
    terms = sorted(index.vocabulary(),
                   key=lambda t: (-index.document_frequency(t), t))
    terms = terms[:max_queries]
    if not terms:
        return []
    queries: List[List[str]] = [[t] for t in terms[:max_queries // 2]]
    for i in range(min(max_queries - len(queries), len(terms) - 1)):
        queries.append([terms[i], terms[i + 1]])
    rng = random.Random(seed)
    rng.shuffle(queries)
    return queries


def run_stress(source: Any,
               threads: int = DEFAULT_THREADS,
               iterations: int = DEFAULT_ITERATIONS,
               k: int = 5,
               seed: int = 673,
               reload_every: int = 7,
               dump_dir: Optional[str] = None,
               witness: Optional[LockWitness] = None) -> Dict[str, Any]:
    """Hammer one :class:`QueryService` from many threads under the
    runtime witness and return a verdict summary.

    Args:
        source: anything :class:`QueryService` accepts (database
            directory, p-document, parsed database).
        threads: concurrent worker threads.
        iterations: operations per worker.
        k: answers requested per query.
        seed: base RNG seed; worker ``i`` uses ``seed * 1000 + i``.
        reload_every: a worker triggers a hot reload every this many
            operations (0 disables reloads).
        dump_dir: when set (and running on the main thread), SIGUSR2
            is registered via :func:`safe_signal` and raised twice
            mid-storm so flight dumps race the workers.
        witness: supply a pre-configured witness; by default a strict
            :class:`LockWitness` seeded with ``DEFAULT_LOCK_ORDER``.

    Returns:
        dict with ``ok`` (bool verdict), ``errors`` (answer drift,
        exceptions, hangs), ``ops`` counters, ``witness`` summary and
        the service's final cache/storage stats.
    """
    from repro.obs.metrics import MetricsCollector
    from repro.obs.recorder import FlightRecorder
    from repro.service.service import QueryService
    from repro.service.signals import on_main_thread, safe_signal

    if witness is None:
        witness = LockWitness(order=DEFAULT_LOCK_ORDER)
    collector = MetricsCollector()
    wrap_lock(collector, "_lock", "MetricsCollector._lock", witness)
    recorder = FlightRecorder(capacity=256)
    wrap_lock(recorder, "_lock", "FlightRecorder._lock", witness)
    service = QueryService(source, cache_size=64, collector=collector,
                           recorder=recorder, witness=witness)

    queries = _sample_queries(service, seed)
    expected: Dict[Tuple[str, ...], List[_Answer]] = {}
    for query in queries:
        expected[tuple(query)] = _canonical(service.search(query, k=k))

    errors: List[str] = []
    ops = {"searches": 0, "batches": 0, "reloads": 0,
           "stat_reads": 0, "dumps": 0}
    ops_lock = threading.Lock()
    start = threading.Barrier(threads + 1)

    def bump(name: str) -> None:
        with ops_lock:
            ops[name] += 1

    def fail(message: str) -> None:
        with ops_lock:
            errors.append(message)

    def worker(wid: int) -> None:
        rng = random.Random(seed * 1000 + wid)
        try:
            start.wait(timeout=30)
        except threading.BrokenBarrierError:
            fail(f"worker {wid}: start barrier broken")
            return
        for step in range(iterations):
            query = queries[rng.randrange(len(queries))]
            try:
                if reload_every and step % reload_every == reload_every - 1:
                    service.reload(source=source)
                    bump("reloads")
                    continue
                roll = rng.random()
                if roll < 0.6:
                    got = _canonical(service.search(query, k=k))
                    if got != expected[tuple(query)]:
                        fail(f"worker {wid}: answer drift for "
                             f"{query}: {got!r} != "
                             f"{expected[tuple(query)]!r}")
                    bump("searches")
                elif roll < 0.85:
                    sample = [queries[rng.randrange(len(queries))]
                              for _ in range(3)]
                    batch = service.batch_search(sample, k=k,
                                                 executor="thread",
                                                 workers=2)
                    if len(batch.outcomes) != len(sample):
                        fail(f"worker {wid}: batch returned "
                             f"{len(batch.outcomes)} outcomes for "
                             f"{len(sample)} queries")
                    bump("batches")
                else:
                    service.cache_stats()
                    service.storage_stats()
                    bump("stat_reads")
            except Exception as error:  # noqa: BLE001 - verdict capture
                fail(f"worker {wid} step {step}: "
                     f"{type(error).__name__}: {error}")
                return

    pool = [threading.Thread(target=worker, args=(wid,),
                             name=f"stress-{wid}", daemon=True)
            for wid in range(threads)]

    restore = lambda: None  # noqa: E731 - trivial no-op default
    dumps_wanted = (dump_dir is not None and on_main_thread()
                    and hasattr(_signal, "SIGUSR2"))
    if dumps_wanted:
        def handle(signum: int, frame: Any) -> None:
            # Reentrant by construction: FlightRecorder holds an RLock
            # (the R011 worked example in docs/ANALYSIS.md), so dumping
            # from a handler that interrupted a record() is safe.
            recorder.dump(dump_dir, "stress-sigusr2")
            bump("dumps")
        restore = safe_signal(_signal.SIGUSR2, handle,
                              "stress SIGUSR2 dump")

    try:
        for thread in pool:
            thread.start()
        start.wait(timeout=30)
        if dumps_wanted:
            # raise_signal delivers on this (main) thread at the next
            # bytecode boundary — deterministic, no kill() racing.
            _signal.raise_signal(_signal.SIGUSR2)
        for thread in pool:
            thread.join(timeout=JOIN_TIMEOUT_S)
        if dumps_wanted:
            _signal.raise_signal(_signal.SIGUSR2)
        hung = [thread.name for thread in pool if thread.is_alive()]
        if hung:
            fail(f"threads still alive after {JOIN_TIMEOUT_S:.0f}s: "
                 f"{hung} (likely deadlock; witness order edges: "
                 f"{witness.summary()['order_edges']})")
    finally:
        restore()

    summary: Dict[str, Any] = {
        "queries": len(queries),
        "ops": dict(ops),
        "errors": list(errors),
        "witness": witness.summary(),
        "cache_stats": service.cache_stats(),
        "reloads": service.storage_stats().get("reloads", {}),
    }
    summary["ok"] = not errors and not witness.violations
    return summary
