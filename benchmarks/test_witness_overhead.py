"""Null-witness overhead on the batched-serving workload.

Acceptance bar for the concurrency pass: with no witness attached
(``NULL_WITNESS``, the library default) the instrumented-lock hook
points must cost <2% of the batched-serving workload of
``test_batch_service.py``.

The methodology mirrors ``test_observability_overhead.py``: a direct
A/B against a hook-free build is impossible (the ``witness.enabled``
branches *are* the build), so the bound is conservative:

1. run the workload with a **live** witness whose locks count every
   acquisition — an overcount of the null path, which constructs
   plain ``threading.Lock`` objects and never reaches a witness hook;
2. measure the per-call cost of the null path's only residual work
   (the ``enabled`` attribute check plus a null hook call) in a tight
   loop;
3. bound the overhead by ``acquisitions x null_cost / batch_time`` on
   a defaults (null-witness) run of the same cold workload.
"""

import random

from repro.analysis.concurrency import LockWitness, NULL_WITNESS
from repro.datagen.workload import WorkloadSpec, sample_workload
from repro.obs.metrics import Stopwatch
from repro.service import QueryService

DISTINCT_QUERIES = 15
REPETITIONS = 4
K = 10
SEED = 673  # test_batch_service.py's workload seed


def bench_workload(database):
    rng = random.Random(SEED)
    spec = WorkloadSpec(queries=DISTINCT_QUERIES, terms_per_query=2,
                        min_frequency=20, max_frequency=2000)
    workload = sample_workload(database.index, spec, rng=rng)
    queries = [list(query) for query in workload
               for _ in range(REPETITIONS)]
    rng.shuffle(queries)
    return queries


def run_cold_batch(database, queries, witness=None):
    service = QueryService(database, cache_size=256, witness=witness)
    with Stopwatch() as watch:
        service.batch_search(queries, k=K)
    return watch.elapsed_ms


def null_witness_cost_ms(iterations=200_000):
    """Per-acquisition cost of the null path: the ``enabled`` check a
    locking call site performs, plus one null hook call for margin."""
    null = NULL_WITNESS
    with Stopwatch() as watch:
        for _ in range(iterations):
            if null.enabled:  # pragma: no cover - never taken
                pass
            null.assert_holding("bench._lock")
    return watch.elapsed_ms / iterations


def test_null_witness_costs_under_two_percent(benchmark, dataset,
                                              report):
    database = dataset("doc1")
    queries = bench_workload(database)

    # Acquisition census on a witnessed run — every lock round-trip
    # the workload can perform; the null path skips all of them.
    witness = LockWitness(strict=False)
    witnessed_ms = run_cold_batch(database, queries, witness)
    acquisitions = sum(witness.acquisitions.values())
    assert acquisitions > 0, \
        "the workload must exercise the instrumented locks"
    assert witness.violations == [], \
        f"batch workload violated lock discipline: {witness.violations}"

    def run():
        return run_cold_batch(database, queries)

    null_ms = sorted(run() for _ in range(3))[1]
    benchmark.pedantic(run, rounds=1, iterations=1)

    per_acq_ms = null_witness_cost_ms()
    bound_ms = acquisitions * per_acq_ms
    overhead_pct = 100.0 * bound_ms / null_ms
    witnessed_pct = 100.0 * (witnessed_ms - null_ms) / null_ms

    assert overhead_pct < 2.0, (
        f"null-witness path bound at {overhead_pct:.3f}% "
        f"({acquisitions} acquisitions x {per_acq_ms * 1e6:.0f} ns "
        f"over {null_ms:.1f} ms)")

    report.add_row(
        "Lock-witness overhead (null witness, batched-serving workload)",
        ["queries", "acquisitions", "acq_ns", "batch_ms", "bound_pct",
         "witnessed_delta_pct"],
        [len(queries), acquisitions, f"{per_acq_ms * 1e6:7.0f}",
         f"{null_ms:8.1f}", f"{overhead_pct:6.3f}%",
         f"{witnessed_pct:+6.1f}%"])
