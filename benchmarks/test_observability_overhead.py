"""Null-object observability overhead on the batched-serving workload.

The acceptance bar for the tracing/flight-recorder work: with nothing
attached (``NULL_COLLECTOR`` / ``NULL_TRACER`` / ``NULL_RECORDER`` —
the library default) the instrumentation hooks must cost <2% of the
batched-serving workload of ``test_batch_service.py``.

Direct A/B timing against a hook-free build is impossible (the hooks
*are* the build), so the overhead is measured as a conservative upper
bound:

1. run the workload once with a **counting** collector that tallies
   every hook invocation the workload performs (an overcount of the
   null path, which skips the ``enabled``-guarded hooks entirely);
2. measure the per-call cost of the null hooks in a tight loop;
3. bound the overhead by ``hooks x null_cost / batch_time`` on a
   defaults (null-path) run of the same cold workload.

The attached-collector delta is reported alongside for context, but
only the null bound is asserted — wall-clock A/B deltas of a few
percent are noise on shared CI hardware.

The same method bounds the HTTP server's always-on layer timers
(``serve.layer.*``): every answered request performs one fixed hook
sequence — one clock, four stamps, one ``observe_many`` fold — so
the bound is requests x per-request hook cost over the served time
of the same ``/search`` requests, and must stay under 2%.
"""

import http.client
import json
import random

from repro.datagen.workload import WorkloadSpec, sample_workload
from repro.obs.metrics import (MetricsCollector, NULL_COLLECTOR,
                               Stopwatch)
from repro.serve import ServeConfig, start_in_thread
from repro.serve.server import _LayerClock
from repro.service import QueryService

DISTINCT_QUERIES = 15
REPETITIONS = 4
K = 10
SEED = 673  # test_batch_service.py's workload seed


class CountingCollector(MetricsCollector):
    """A real collector that also tallies every hook invocation."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def count(self, name, value=1):
        self.calls += 1
        super().count(name, value)

    def observe(self, name, value):
        self.calls += 1
        super().observe(name, value)

    def observe_time(self, name, seconds):
        self.calls += 1
        super().observe_time(name, seconds)

    def time(self, name):
        self.calls += 1
        return super().time(name)

    def event(self, name, **fields):
        self.calls += 1
        super().event(name, **fields)

    def mark(self, key, value=1):
        self.calls += 1
        super().mark(key, value)


def bench_workload(database):
    rng = random.Random(SEED)
    spec = WorkloadSpec(queries=DISTINCT_QUERIES, terms_per_query=2,
                        min_frequency=20, max_frequency=2000)
    workload = sample_workload(database.index, spec, rng=rng)
    queries = [list(query) for query in workload
               for _ in range(REPETITIONS)]
    rng.shuffle(queries)
    return queries


def run_cold_batch(database, queries, collector=None):
    service = QueryService(database, cache_size=256,
                           collector=collector)
    with Stopwatch() as watch:
        service.batch_search(queries, k=K)
    return watch.elapsed_ms


def null_hook_cost_ms(iterations=200_000):
    """Per-invocation cost of the three null hook shapes (counter,
    timer context, span mark), measured in a tight loop."""
    null = NULL_COLLECTOR
    with Stopwatch() as watch:
        for _ in range(iterations):
            null.count("bench.counter")
            with null.time("bench.timer"):
                pass
            null.mark("bench.mark")
    return watch.elapsed_ms / (3 * iterations)


def test_null_hooks_cost_under_two_percent(benchmark, dataset, report):
    database = dataset("doc1")
    queries = bench_workload(database)

    # Hook census on an attached run: every hook the workload can
    # perform, including the enabled-guarded ones the null path skips.
    counting = CountingCollector()
    attached_ms = run_cold_batch(database, queries, counting)
    hooks = counting.calls
    assert hooks > 0, "the workload must exercise the hook points"

    def run():
        return run_cold_batch(database, queries)

    # Median of repeated cold runs: the null-path denominator.
    null_ms = sorted(run() for _ in range(3))[1]
    benchmark.pedantic(run, rounds=1, iterations=1)

    per_hook_ms = null_hook_cost_ms()
    bound_ms = hooks * per_hook_ms
    overhead_pct = 100.0 * bound_ms / null_ms
    attached_pct = 100.0 * (attached_ms - null_ms) / null_ms

    assert overhead_pct < 2.0, (
        f"null-object hooks bound at {overhead_pct:.3f}% "
        f"({hooks} hooks x {per_hook_ms * 1e6:.0f} ns over "
        f"{null_ms:.1f} ms)")

    report.add_row(
        "Observability overhead (null hooks, batched-serving workload)",
        ["queries", "hooks", "hook_ns", "batch_ms", "bound_pct",
         "attached_delta_pct"],
        [len(queries), hooks, f"{per_hook_ms * 1e6:7.0f}",
         f"{null_ms:8.1f}", f"{overhead_pct:6.3f}%",
         f"{attached_pct:+6.1f}%"])


def layer_hooks_cost_ms(iterations=20_000):
    """Per-request cost of the serve layer timers: the exact hook
    sequence one answered request performs, in a tight loop."""
    collector = MetricsCollector()
    with Stopwatch() as watch:
        for _ in range(iterations):
            clock = _LayerClock()
            clock.submitted = clock.stamp()
            clock.started = clock.stamp()
            clock.finished = clock.stamp()
            clock.encoding = clock.stamp()
            collector.observe_many(clock.layers())
    return watch.elapsed_ms / iterations


def served_search_ms(port, queries):
    """Median round trip of one ``/search`` per query, over one
    keep-alive connection."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=60)
    times = []
    try:
        for query in queries:
            body = json.dumps({"keywords": query, "k": K})
            with Stopwatch() as watch:
                connection.request("POST", "/search", body=body)
                response = connection.getresponse()
                response.read()
            assert response.status == 200
            times.append(watch.elapsed_ms)
    finally:
        connection.close()
    return sorted(times)[len(times) // 2]


def test_serve_layer_timers_cost_under_two_percent(dataset, report):
    database = dataset("doc1")
    queries = bench_workload(database)
    collector = MetricsCollector()
    handle = start_in_thread(QueryService(database, cache_size=256,
                                          collector=collector),
                             ServeConfig(), collector=collector)
    try:
        search_ms = served_search_ms(handle.port, queries)
    finally:
        assert handle.stop() == 0
    # Hook census: every answered request folded its layers once.
    folded = collector.snapshot()["histograms"]["serve.request_ms"]
    assert folded["count"] == len(queries)

    per_request_ms = layer_hooks_cost_ms()
    overhead_pct = 100.0 * per_request_ms / search_ms
    assert overhead_pct < 2.0, (
        f"serve layer timers bound at {overhead_pct:.3f}% "
        f"({per_request_ms * 1e6:.0f} ns per request over a "
        f"{search_ms:.3f} ms served /search)")

    report.add_row(
        "Observability overhead (serve layer timers, served /search)",
        ["requests", "layer_ns_per_request", "search_ms", "bound_pct"],
        [len(queries), f"{per_request_ms * 1e6:7.0f}",
         f"{search_ms:8.3f}", f"{overhead_pct:6.3f}%"])
