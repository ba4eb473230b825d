"""Batched serving vs. the naive loop (the docs/SERVICE.md claim).

A shared-keyword workload (15 sampled 2-term queries, each repeated 4
times and shuffled) must run at least twice as fast through one cold
:class:`repro.service.QueryService` batch as through fresh per-query
``topk_search`` calls — and the batched answers must be exactly the
naive answers (codes and probabilities, no rounding), with sanitized
replays on the warm service matching uncached sanitized searches: the
caches must never change an answer.  With ``workers`` the same
queries also run as one thread-pool batch on a second cold service,
whose answers must equal the naive answers too.
"""

import random

import pytest

from repro.core.api import topk_search
from repro.datagen.workload import WorkloadSpec, sample_workload
from repro.obs.metrics import Stopwatch
from repro.service import QueryService

DISTINCT_QUERIES = 15
REPETITIONS = 4
K = 10
SEED = 673


def _signature(outcome):
    return [(str(result.code), result.probability)
            for result in outcome.results]


def run_batch_comparison(database, workers=None):
    rng = random.Random(SEED)
    spec = WorkloadSpec(queries=DISTINCT_QUERIES, terms_per_query=2,
                        min_frequency=20, max_frequency=2000)
    workload = sample_workload(database.index, spec, rng=rng)
    queries = [list(query) for query in workload
               for _ in range(REPETITIONS)]
    rng.shuffle(queries)

    with Stopwatch() as naive_watch:
        naive = [topk_search(database, query, K) for query in queries]
    service = QueryService(database)
    batch = service.batch_search(queries, k=K)
    measured = {
        "queries": len(queries),
        "naive_ms": naive_watch.elapsed_ms,
        "batch_ms": batch.elapsed_ms,
        "speedup": naive_watch.elapsed_ms / batch.elapsed_ms,
        "identical_results": all(
            _signature(batched) == _signature(plain)
            for batched, plain in zip(batch.outcomes, naive)),
        "sanitize_identical": all(
            _signature(service.search(query, K, sanitize=True)) ==
            _signature(topk_search(database, query, K, sanitize=True))
            for query in workload),
    }
    if workers:
        threaded = QueryService(database).batch_search(
            queries, k=K, workers=workers, executor="thread")
        measured["threads"] = {
            "batch_ms": threaded.elapsed_ms,
            "speedup": naive_watch.elapsed_ms / threaded.elapsed_ms,
            "identical_results": all(
                _signature(batched) == _signature(plain)
                for batched, plain in zip(threaded.outcomes, naive)),
        }
    return measured


@pytest.mark.parametrize("workers", [None, 4],
                         ids=["serial", "threads-4"])
def test_batch_beats_naive_loop(benchmark, dataset, report, workers):
    database = dataset("doc1")
    measured = benchmark.pedantic(
        run_batch_comparison, args=(database, workers),
        rounds=1, iterations=1)
    assert measured["identical_results"]
    assert measured["sanitize_identical"]
    assert measured["queries"] >= 50
    assert measured["speedup"] >= 2.0, measured
    shown = measured
    if workers:
        assert measured["threads"]["identical_results"], measured
        shown = measured["threads"]
    report.add_row(
        "Batched serving (QueryService vs naive loop, XMark x1)",
        ["mode", "queries", "naive_ms", "batch_ms", "speedup"],
        ["serial" if workers is None else f"threads-{workers}",
         measured["queries"],
         f"{measured['naive_ms']:9.1f}",
         f"{shown['batch_ms']:9.1f}",
         f"{shown['speedup']:6.2f}x"])
