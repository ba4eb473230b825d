"""Hedged-scatter benchmark: tail latency and availability under
replica faults (``BENCH_chaos.json``).

Replica slowness is *routed around*: after one slow visit the
selector's EWMA steers every later query to the healthy replica, so
in steady state a slow replica barely shows in the percentiles.  The
regime hedging exists to cover is the **cold tail** — the visits that
land on the straggler *before* routing has learned (first contact,
fresh processes, post-deploy cache wipes).  The benchmark therefore
measures four passes over one seeded workload against a replicated
corpus, every answer checked bit-identical to a clean serial oracle:

``cold_unhedged``
    A fresh :class:`~repro.corpus.CorpusService` per query (cold
    router), every primary (``r0``) visit straggling ``slow_ms``.
    Each query eats the full straggle: this is the tail without
    hedging.
``cold_hedged``
    Identical, plus a fixed ``hedge_ms`` hedge trigger.  The hedge
    races the healthy replica, so the tail collapses from ``slow_ms``
    to roughly ``hedge_ms`` — ``p99_speedup`` is the ratio of the two
    passes' p99s, the acceptance number.
``steady_hedged``
    One service across the whole workload (warm router), hedge on.
    Routing learns from the hedged-over stragglers
    (``record_straggler``), so hedge fires decay after the first
    queries — reported as ``hedge.fired`` vs the worst case.
``replica_loss``
    One service, every ``r0`` visit *fails* (``replica_down``), no
    hedge.  Availability must be total: every query answered,
    zero PARTIAL, all answers bit-identical — the replicas-as-
    perfect-substitutes property under the harshest routing input.

``benchmarks/run_chaos_benchmark.py`` writes the report.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.corpus import (CorpusService, HedgePolicy, build_corpus,
                          concat_documents)
from repro.datagen.workload import WorkloadSpec, sample_workload
from repro.index.storage import Database
from repro.obs.metrics import MetricsCollector, Stopwatch
from repro.prxml.model import PDocument
from repro.resilience import Fault, FaultInjector

#: Version tag of the emitted report.
CHAOS_BENCH_SCHEMA_ID = "repro.bench/chaos-v1"

_METRIC = "bench.chaos"


def _signature(outcome) -> List[Tuple[str, float]]:
    return [(str(result.code), result.probability)
            for result in outcome.results]


def _quantiles(latencies: MetricsCollector,
               metric: str) -> Dict[str, float]:
    quantile = lambda q: round(  # noqa: E731
        latencies.percentile(metric, q, kind="histograms"), 3)
    return {"p50": quantile(0.5), "p99": quantile(0.99),
            "max": quantile(1.0)}


def _ratio(numerator: float, denominator: float) -> float:
    return round(numerator / denominator, 3) if denominator else 0.0


def _slow_faults(seed: int, slow_ms: float) -> FaultInjector:
    return FaultInjector(
        [Fault(kind="slow_replica", target="r0", delay_ms=slow_ms)],
        seed=seed)


def run_chaos_benchmark(documents: Sequence[Tuple[str, PDocument]],
                        directory: str,
                        shards: int = 3,
                        replicas: int = 2,
                        distinct_queries: int = 10,
                        k: int = 5,
                        workers: int = 4,
                        slow_ms: float = 120.0,
                        hedge_ms: float = 25.0,
                        seed: int = 673) -> Dict[str, object]:
    """One full hedged-scatter measurement; returns the JSON report."""
    import random
    rng = random.Random(seed)
    manifest = build_corpus(documents, directory, shards=shards,
                            replicas=replicas)
    index_db = Database.from_document(concat_documents(documents))
    spec = WorkloadSpec(queries=distinct_queries, terms_per_query=2,
                        min_frequency=2, max_frequency=800)
    workload = [list(query)
                for query in sample_workload(index_db.index, spec,
                                             rng=rng)]

    oracle_service = CorpusService(directory)
    oracle = [_signature(oracle_service.search(query, k=k))
              for query in workload]

    latencies = MetricsCollector()
    identical = True
    report: Dict[str, object] = {
        "schema": CHAOS_BENCH_SCHEMA_ID,
        "workload": {"distinct_queries": len(workload), "k": k,
                     "seed": seed},
        "corpus": {"shards": manifest.shard_count,
                   "replicas": manifest.replicas,
                   "documents": len(manifest.documents),
                   "nodes": sum(doc.nodes
                                for doc in manifest.documents)},
        "faults": {"slow_ms": slow_ms, "hedge_ms": hedge_ms},
    }

    # -- cold-router passes: the tail hedging exists to cover --------
    for name, hedge in (("cold_unhedged", None),
                        ("cold_hedged", HedgePolicy(hedge_ms))):
        metric = f"{_METRIC}.{name}"
        fired = won = 0
        for index, query in enumerate(workload):
            collector = MetricsCollector()
            service = CorpusService(
                directory, collector=collector,
                faults=_slow_faults(seed, slow_ms), hedge=hedge,
                executor="thread")
            watch = Stopwatch().start()
            outcome = service.search(query, k=k, workers=workers)
            latencies.observe(metric, watch.elapsed * 1000.0)
            if _signature(outcome) != oracle[index]:
                identical = False
            fired += int(collector.counter("corpus.hedge.fired"))
            won += int(collector.counter("corpus.hedge.won"))
        block: Dict[str, object] = {
            "latency_ms": _quantiles(latencies, metric)}
        if hedge is not None:
            block["hedge"] = {"fired": fired, "won": won,
                              "fire_rate": _ratio(fired,
                                                  len(workload))}
        report[name] = block

    cold = report["cold_unhedged"]["latency_ms"]  # type: ignore
    hedged = report["cold_hedged"]["latency_ms"]  # type: ignore
    report["p99_speedup"] = _ratio(cold["p99"], hedged["p99"])

    # -- steady state: one warm router learns around the straggler ---
    metric = f"{_METRIC}.steady_hedged"
    collector = MetricsCollector()
    service = CorpusService(directory, collector=collector,
                            faults=_slow_faults(seed, slow_ms),
                            hedge=HedgePolicy(hedge_ms),
                            executor="thread")
    for index, query in enumerate(workload):
        watch = Stopwatch().start()
        outcome = service.search(query, k=k, workers=workers)
        latencies.observe(metric, watch.elapsed * 1000.0)
        if _signature(outcome) != oracle[index]:
            identical = False
    steady_fired = int(collector.counter("corpus.hedge.fired"))
    worst_case = len(workload) * manifest.shard_count
    report["steady_hedged"] = {
        "latency_ms": _quantiles(latencies, metric),
        "hedge": {"fired": steady_fired,
                  "worst_case": worst_case,
                  # < 1.0 proves record_straggler taught the router.
                  "fire_rate": _ratio(steady_fired, worst_case)},
    }

    # -- availability: every primary dead, zero PARTIAL allowed ------
    collector = MetricsCollector()
    service = CorpusService(
        directory, collector=collector,
        faults=FaultInjector(
            [Fault(kind="replica_down", target="r0",
                   message="bench: primary replica down")],
            seed=seed),
        executor="thread")
    answered = partials = failovers = 0
    for index, query in enumerate(workload):
        outcome = service.search(query, k=k, workers=workers)
        answered += 1
        if outcome.partial:
            partials += 1
        if _signature(outcome) != oracle[index]:
            identical = False
        failovers += int(outcome.stats["corpus"].get("failovers", 0))
    report["replica_loss"] = {
        "queries": len(workload),
        "answered": answered,
        "partial": partials,
        "failovers": failovers,
        "available": partials == 0 and answered == len(workload),
    }

    report["identical_results"] = identical
    report["ok"] = bool(
        identical
        and report["replica_loss"]["available"]  # type: ignore
        and report["p99_speedup"] > 1.0)
    return report
