"""HTTP serving benchmark: sustained QPS, tail latency, overload.

Drives a real :class:`repro.serve.ServeServer` (ephemeral port,
in-process background thread) with keep-alive ``http.client``
workers, then measures three things:

* **sustained** — several client threads issue a fixed budget of
  ``POST /search`` requests from a shared-keyword workload; wall
  QPS plus p50/p99/mean/max latency out of the locked
  :meth:`~repro.obs.metrics.MetricsCollector.percentile` accessor
  (the same percentile path ``GET /metrics`` serves — the third
  satellite bugfix of the serving PR, exercised from both callers).
* **overload** — a second server with ``max_inflight=1`` and an
  injected ``slow_query`` fault is hit by more concurrent clients
  than it admits; the contract is 429 (with ``Retry-After``) for the
  overflow and a healthy server afterwards — never a crash or a
  silent drop.
* **identical_results** — one served query per workload entry is
  compared against in-process :func:`topk_search`: codes and
  probabilities must match exactly (JSON floats round-trip via
  shortest ``repr``, so "exactly" means bit-identical).

``benchmarks/run_serve_benchmark.py`` writes the report to
``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from typing import Dict, List, Tuple

from repro.core.api import topk_search
from repro.datagen.workload import WorkloadSpec, sample_workload
from repro.index.storage import Database
from repro.obs.metrics import MetricsCollector, Stopwatch
from repro.resilience import parse_faults
from repro.serve import ServeConfig, start_in_thread
from repro.service.service import QueryService

#: Version tag of the emitted report.
SERVE_SCHEMA_ID = "repro.bench/serve-v1"

#: Histogram the client-side latencies land in.
_LATENCY_METRIC = "serve.client"


def _signature(outcome) -> List[tuple]:
    return [(str(result.code), result.probability)
            for result in outcome.results]


def _wire_signature(payload: Dict[str, object]) -> List[tuple]:
    return [(result["code"], result["probability"])
            for result in payload["results"]]


def _post(connection: http.client.HTTPConnection, path: str,
          payload: Dict[str, object]) -> Tuple[int, Dict[str, object],
                                               Dict[str, str]]:
    body = json.dumps(payload).encode("utf-8")
    connection.request("POST", path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    raw = response.read()
    headers = {name.lower(): value
               for name, value in response.getheaders()}
    return response.status, json.loads(raw), headers


def run_serve_benchmark(database: Database,
                        distinct_queries: int = 10,
                        requests_per_client: int = 30,
                        clients: int = 4,
                        k: int = 10,
                        overload_clients: int = 8,
                        seed: int = 673) -> Dict[str, object]:
    """One full serving measurement; returns the JSON-ready report."""
    rng = random.Random(seed)
    spec = WorkloadSpec(queries=distinct_queries, terms_per_query=2,
                        min_frequency=20, max_frequency=2000)
    workload = [list(query)
                for query in sample_workload(database.index, spec,
                                             rng=rng)]

    report: Dict[str, object] = {
        "schema": SERVE_SCHEMA_ID,
        "workload": {
            "distinct_queries": len(workload),
            "clients": clients,
            "requests_per_client": requests_per_client,
            "k": k,
            "seed": seed,
        },
    }
    report["sustained"], identical = _sustained_phase(
        database, workload, requests_per_client, clients, k, rng)
    report["identical_results"] = identical
    report["overload"] = _overload_phase(database, workload, k,
                                         overload_clients)
    return report


def _sustained_phase(database: Database, workload: List[List[str]],
                     requests_per_client: int, clients: int, k: int,
                     rng: random.Random
                     ) -> Tuple[Dict[str, object], bool]:
    service = QueryService(database)
    handle = start_in_thread(
        service, ServeConfig(max_inflight=max(clients, 2)))
    latencies = MetricsCollector()
    errors: List[str] = []

    # Per-client shuffled request scripts, fixed up front so the
    # measurement loop does no RNG work.
    scripts = [[workload[rng.randrange(len(workload))]
                for _ in range(requests_per_client)]
               for _ in range(clients)]

    def client_loop(script: List[List[str]]) -> None:
        connection = http.client.HTTPConnection("127.0.0.1",
                                                handle.port, timeout=30)
        try:
            for keywords in script:
                watch = Stopwatch().start()
                status, payload, _ = _post(
                    connection, "/search",
                    {"keywords": keywords, "k": k})
                latencies.observe(_LATENCY_METRIC,
                                  watch.elapsed * 1000.0)
                if status != 200:
                    errors.append(f"{status}: {payload}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client_loop, args=(script,))
               for script in scripts]
    wall = Stopwatch().start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_ms = wall.elapsed * 1000.0

    # Bit-identical check over one connection, then drain the server.
    identical = True
    connection = http.client.HTTPConnection("127.0.0.1", handle.port,
                                            timeout=30)
    try:
        for keywords in workload:
            _, payload, _ = _post(connection, "/search",
                                  {"keywords": keywords, "k": k})
            local = topk_search(database, keywords, k)
            if _wire_signature(payload) != _signature(local):
                identical = False
    finally:
        connection.close()
    exit_code = handle.stop()

    total = sum(len(script) for script in scripts)
    quantile = lambda q: round(  # noqa: E731
        latencies.percentile(_LATENCY_METRIC, q, kind="histograms"), 3)
    phase: Dict[str, object] = {
        "requests": total,
        "errors": len(errors),
        "error_samples": errors[:3],
        "elapsed_ms": round(elapsed_ms, 3),
        "qps": round(total / (elapsed_ms / 1000.0), 1)
        if elapsed_ms else None,
        "latency_ms": {"p50": quantile(0.5), "p99": quantile(0.99),
                       "max": quantile(1.0)},
        "server_exit": exit_code,
    }
    return phase, identical


def _overload_phase(database: Database, workload: List[List[str]],
                    k: int, overload_clients: int) -> Dict[str, object]:
    service = QueryService(database)
    handle = start_in_thread(
        service,
        ServeConfig(max_inflight=1),
        faults=parse_faults("slow_query:delay_ms=150"))
    statuses: List[int] = []
    retry_after_seen = 0
    lock = threading.Lock()
    keywords = workload[0] if workload else ["a"]

    def one_request() -> None:
        nonlocal retry_after_seen
        connection = http.client.HTTPConnection("127.0.0.1",
                                                handle.port, timeout=30)
        try:
            status, _, headers = _post(connection, "/search",
                                       {"keywords": keywords, "k": k})
            with lock:
                statuses.append(status)
                if status == 429 and "retry-after" in headers:
                    retry_after_seen += 1
        finally:
            connection.close()

    threads = [threading.Thread(target=one_request)
               for _ in range(overload_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # The server must still be healthy after shedding the burst.
    connection = http.client.HTTPConnection("127.0.0.1", handle.port,
                                            timeout=30)
    try:
        connection.request("GET", "/health")
        healthy = connection.getresponse().status == 200
    finally:
        connection.close()
    exit_code = handle.stop()

    return {"max_inflight": 1,
            "clients": overload_clients,
            "accepted_200": statuses.count(200),
            "rejected_429": statuses.count(429),
            "other_statuses": sorted(set(statuses) - {200, 429}),
            "retry_after_seen": retry_after_seen,
            "healthy_after": healthy,
            "server_exit": exit_code}
