"""Served end-to-end benchmark: four traffic shapes over ``repro serve``.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--seed N] [--quick] [-o OUT.json]
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T

Without ``--workload`` every workload runs, and without ``--trace``
each runs twice: untraced for the end-to-end metrics, then traced for
the per-layer ones.  ``--seconds`` sets the measured time of one run
(the steps share it); without it the steps have their full lengths
(README.md).  Each run builds its inputs from the seed with the
program's public build functions, starts ``python -m repro serve
SOURCE --port 0`` (or ``traced_serve.py``) as a subprocess, and drives
it from this process over two keep-alive connections.

Every metric is printed with its unit; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` ones (``--trace 1``).  The exit code is non-zero when a
request failed or an answer differed from the in-process PrStack
reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (MANIFEST_JSON, ROOT, SRC, declared_metrics, load_json,
                    percentile)

DEFAULT_SEED = 1
SCHEMA = "repro.bench/e2e-v1"
RUNS_DIR = ROOT / ".e2e_runs"

UNITS = {
    "setup_s": "s", "setup_host_s": "s", "qps": "req/s", "cpu_ms": "ms",
    "cpu_ref_ms": "ms", "host.probe_ms": "ms", "rss_mb": "MB",
    "p50_ms": "ms", "p95_ms": "ms", "p99_ms": "ms", "fail_rate": "ratio",
    "reload_ms": "ms",
    "serve.wire_ms.p50": "ms", "serve.self_ms.p50": "ms",
    "serve.self_ms.p99": "ms", "serve.start_s": "s",
    "serve.rejected": "count",
    "service.self_ms.p50": "ms", "service.result_hit_rate": "ratio",
    "service.match_hit_rate": "ratio",
    "service.code_list_hit_rate": "ratio",
    "core.self_ms.p50": "ms", "core.self_ms.p99": "ms",
    "core.busy_share": "ratio",
    "index.match_ms.p50": "ms", "index.entries_per_query": "count",
    "index.build_s": "s", "index.load_s": "s",
    "corpus.self_ms.p50": "ms", "corpus.shard_ms.p50": "ms",
    "corpus.visits_per_query": "count", "corpus.prune_rate": "ratio",
    "corpus.wasted_visit_rate": "ratio", "corpus.failovers": "count",
    "corpus.hedges_fired": "count",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
    "gen.late_p99_ms": "ms", "host.calib_ms": "ms",
}


@dataclass(frozen=True)
class Plan:
    """Step lengths, set-up repetitions and the answer-gate depth."""

    closed_s: float
    open_s: float
    traced_s: float
    setups: int
    check_first: int


def make_plan(workload: Any, seconds: Optional[float],
              quick: bool) -> Plan:
    if quick:
        return Plan(2.0, 2.0, 2.0, setups=1, check_first=50)
    if seconds is not None:
        # The declared end-to-end metrics come from the closed step,
        # so it gets most of the time.
        return Plan(0.75 * seconds, 0.25 * seconds, 0.25 * seconds,
                    setups=3, check_first=50)
    return Plan(10.0, workload.open_s, 8.0, setups=3, check_first=300)


#: Closed-step slice length; the host probe runs between slices.
SLICE_S = 0.5
#: What :func:`host_probe_ms` reads on the reference host: the probe's
#: best reading on a quiet 2-vCPU test VM (README.md, "Host noise").
PROBE_REF_MS = 12.0


def host_probe_ms() -> float:
    """CPU milliseconds this thread spends on a fixed pure-Python loop.

    The loop does not touch the program under test, so its reading
    moves only with the host: how fast the vCPU runs the interpreter
    while other tenants load the machine.  A scaled metric multiplies
    a reading by ``PROBE_REF_MS / mean probe``, the mean taken over
    probes spread through the measured interval.  The host flips
    between fast and slow states second by second; the mean, unlike a
    median, follows the share of time spent in each.
    """
    start = time.thread_time()
    total = 0
    for value in range(150_000):
        total += value * value % 7
    return (time.thread_time() - start) * 1000.0


def host_calibration_ms() -> float:
    """Best of five probes."""
    return min(host_probe_ms() for _ in range(5))


def near_one_tie(served: Sequence[Any], expected: Sequence[Any]) -> bool:
    """Whether two answers differ only in how they break a tie at 1.

    The engine can compute 1.0000000000000002 where the exact value is
    1; PrStack ranks that row above an exact 1.0, Eager's bound stops
    at 1.0 and skips it, and the corpus merge keeps whichever its visit
    order met first.  So: some probability is above 1 but by no more
    than ``1e-14``, and the rows below 1 agree, except that one answer
    may cut them off earlier because it spent a place on the extra row.
    """
    probabilities = [p for _, p in list(served) + list(expected)]
    if not any(1.0 < p <= 1.0 + 1e-14 for p in probabilities) \
            or any(p > 1.0 + 1e-14 for p in probabilities):
        return False
    short, long = sorted(([row for row in answer if row[1] < 1.0]
                          for answer in (served, expected)), key=len)
    return long[:len(short)] == short


class WorkloadRun:
    """One workload, one seed, traced or not."""

    def __init__(self, workload: Any, seed: int, plan: Plan,
                 run_dir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.plan = plan
        self.run_dir = run_dir
        self.steps: List[Any] = []
        self.metrics: Dict[str, float] = {}

    # -- inputs -----------------------------------------------------------

    def _setup(self, stack: ExitStack, reps: int) -> Any:
        """Build and start ``reps`` times; keeps the last server."""
        from harness import Server
        from workloads import build, generate_documents
        documents = generate_documents(self.w)
        setups, builds, starts, probes = [], [], [], []
        for rep in range(reps):
            source = self.run_dir / f"data{rep}"
            probes.append(host_probe_ms())
            started = time.perf_counter()
            built = build(self.w, documents, str(source))
            build_s = time.perf_counter() - started
            server = stack.enter_context(
                Server(self._serve_argv(source), self.run_dir,
                       f"server{rep}"))
            start_s = server.start()
            setups.append(build_s + start_s)
            builds.append(build_s)
            starts.append(start_s)
            if rep < reps - 1:
                server.stop()
                shutil.rmtree(source)
        probes.append(host_probe_ms())
        setup_s = statistics.median(setups)
        self.source = source
        self.metrics.update({"setup_s": setup_s * PROBE_REF_MS
                             / statistics.mean(probes),
                             "setup_host_s": setup_s,
                             "index.build_s": statistics.median(builds),
                             "serve.start_s": statistics.median(starts)})
        self._streams(documents, built)
        return server

    def _serve_argv(self, source: Path,
                    spans: Optional[Path] = None) -> List[str]:
        if spans is None:
            head = [sys.executable, "-m", "repro", "serve"]
        else:
            head = [sys.executable,
                    str(Path(__file__).with_name("traced_serve.py")),
                    str(spans)]
        return head + [str(source), "--port", "0"]

    def _streams(self, documents: Any, built: Any) -> None:
        from workloads import (COLD_WARMUP, poisson_offsets,
                               reference_database, rng_for,
                               sample_queries, zipf_stream)
        w, seed, plan = self.w, self.seed, self.plan
        self.reference = reference_database(w, documents, built)
        self.open_offsets = poisson_offsets(
            w.open_rps, plan.open_s, rng_for(seed, w, "arrivals"))
        # Closed steps get room for far more requests than they send
        # today, so a faster server never runs out of stream.
        rate_cap = 5000 if w.repeats else 2000
        sizes = {"closed": math.ceil(rate_cap * plan.closed_s),
                 "open": len(self.open_offsets),
                 "traced": math.ceil(rate_cap * plan.traced_s)}
        self.stream: Dict[str, List[Any]] = {}
        if w.repeats:
            pool = sample_queries(self.reference, w, w.zipf_pool,
                                  rng_for(seed, w, "pool"))
            self.warm = list(pool)
            for step, size in sizes.items():
                self.stream[step] = zipf_stream(pool, size,
                                                rng_for(seed, w, step))
        else:
            self.warm = sample_queries(self.reference, w, COLD_WARMUP,
                                       rng_for(seed, w, "warm"))
            drawn = sample_queries(self.reference, w, sum(sizes.values()),
                                   rng_for(seed, w, "stream"),
                                   exclude=frozenset(self.warm))
            for step, size in sizes.items():
                self.stream[step], drawn = drawn[:size], drawn[size:]

    def _reloads(self, seconds: float) -> List[float]:
        """Reload offsets: one at the start of every ``reload_every_s``,
        so each step holds whole reload-and-refill cycles."""
        period = self.w.reload_every_s
        return [i * period for i in range(math.ceil(seconds / period))] \
            if period else []

    def _sliced_closed(self, client: Any) -> Tuple[Any, List[float]]:
        """The closed step, run as back-to-back slices of ``SLICE_S``
        with a host probe before each; returns the step, joined and
        indexed as if it had run unbroken, and the probes.

        The probe runs with no request in flight, so it neither slows
        the server nor is slowed by it, and its readings follow the
        host's speed through the step.
        """
        from harness import Step
        stream = self.stream["closed"]
        reloads = self._reloads(self.plan.closed_s)
        records: List[Any] = []
        probes: List[float] = []
        sent = reloaded = 0
        done_s = 0.0
        exhausted = False
        while done_s < self.plan.closed_s and not exhausted:
            length = min(SLICE_S, self.plan.closed_s - done_s)
            due = [r - done_s for r in reloads
                   if done_s <= r < done_s + length]
            probes.append(host_probe_ms())
            part = client.run_step("closed", stream[sent:], seconds=length,
                                   reloads=due)
            for record in part.records:
                record.index += sent if record.kind == "search" \
                    else reloaded
            sent += len(part.searches)
            reloaded += len(part.records) - len(part.searches)
            done_s += part.wall_s
            exhausted = part.exhausted
            records += part.records
        records.sort(key=lambda r: (r.kind, r.index))
        return Step("closed", records, done_s, exhausted), probes

    # -- the two kinds of run ---------------------------------------------

    def untraced(self) -> None:
        from harness import Client
        with ExitStack() as stack:
            server = self._setup(stack, self.plan.setups)
            gc.freeze()
            with Client(server.port) as client:
                self.steps.append(client.run_step("warm", self.warm))
                cpu = server.cpu_s()
                closed, probes = self._sliced_closed(client)
                cpu = server.cpu_s() - cpu
                opened = client.run_step(
                    "open", self.stream["open"],
                    offsets=self.open_offsets,
                    reloads=self._reloads(self.plan.open_s))
                self.steps += [closed, opened]
                rss = server.peak_rss_mb()
            self._expect_clean_exit(server)
        latencies = [r.latency_ms if r.ok else math.inf
                     for r in opened.searches]
        cpu_ms = cpu * 1000.0 / (closed.qps * closed.wall_s)
        probe = statistics.mean(probes)
        self.metrics.update({
            "qps": closed.qps,
            "cpu_ms": cpu_ms,
            "cpu_ref_ms": cpu_ms * PROBE_REF_MS / probe,
            "host.probe_ms": probe,
            "p50_ms": percentile(latencies, 0.50),
            "p95_ms": percentile(latencies, 0.95),
            "p99_ms": percentile(latencies, 0.99),
            "rss_mb": rss,
            "gen.late_p99_ms": percentile(
                [r.late_ms for r in opened.records], 0.99),
        })

    def traced(self) -> None:
        from harness import Client, Server
        from ledger import fold, read_spans
        with ExitStack() as stack:
            server = self._setup(stack, 1)
            gc.freeze()
            with Client(server.port) as client:
                self.steps.append(client.run_step("warm", self.warm))
                closed = client.run_step(
                    "closed", self.stream["closed"],
                    seconds=self.plan.closed_s,
                    reloads=self._reloads(self.plan.closed_s))
                self.steps.append(closed)
            self._expect_clean_exit(server)

            spans_path = self.run_dir / "spans.jsonl"
            traced = stack.enter_context(Server(
                self._serve_argv(self.source, spans_path), self.run_dir,
                "traced"))
            traced.start()
            with Client(traced.port) as client:
                before = client.counters()
                warm = client.run_step("traced-warm", self.warm)
                step = client.run_step(
                    "traced", self.stream["traced"],
                    seconds=self.plan.traced_s,
                    reloads=self._reloads(self.plan.traced_s))
                after = client.counters()
                self.steps += [warm, step]
            self._expect_clean_exit(traced)

        requests = [(r.trace_id, r.rt_ms)
                    for r in warm.searches + step.searches if r.ok]
        reloads = sum(1 for r in warm.records + step.records
                      if r.kind == "reload")
        self.metrics.update(fold(
            read_spans(spans_path), requests,
            {r.trace_id for r in step.searches if r.ok}, step.wall_s,
            1 + reloads, self.w.corpus))
        delta = {name: after.get(name, 0) - before.get(name, 0)
                 for name in set(after) | set(before)}
        self.metrics.update({
            "trace.overhead": 1.0 - step.qps / closed.qps,
            "corpus.failovers": delta.get("corpus.replica.failovers", 0),
            "corpus.hedges_fired": delta.get("corpus.hedge.fired", 0),
        })
        for metric, cache in (("result", "results"),
                              ("match", "match_entries"),
                              ("code_list", "code_lists")):
            hits = delta.get(f"service.cache.{cache}.hits", 0)
            misses = delta.get(f"service.cache.{cache}.misses", 0)
            self.metrics[f"service.{metric}_hit_rate"] = \
                hits / (hits + misses) if hits + misses else 0.0
        self._corpus_blocks(closed.searches + step.searches)

    def _corpus_blocks(self, records: Sequence[Any]) -> None:
        """Visit, prune and waste rates from the responses' corpus
        blocks (zero on a single document, which has no corpus layer)."""
        from workloads import document_shards
        blocks = [(r.corpus, r.answer) for r in records
                  if r.ok and r.corpus is not None]
        visits = pruned = wasted = slots = 0
        shard_of = document_shards(str(self.source)) if blocks else {}
        for block, answer in blocks:
            searched = {d["shard"] for d in block["detail"]
                        if d["action"] == "searched"}
            contributed = {shard_of[int(code.split(".")[1])]
                           for code, _ in answer}
            visits += len(searched)
            pruned += block["pruned"]
            wasted += len(searched - contributed)
            slots += block["shards"]
        self.metrics.update({
            "corpus.visits_per_query": visits / len(blocks)
            if blocks else 0.0,
            "corpus.prune_rate": pruned / slots if slots else 0.0,
            "corpus.wasted_visit_rate": wasted / visits if visits else 0.0,
        })

    def _expect_clean_exit(self, server: Any) -> None:
        code = server.stop()
        if code != 0:
            raise RuntimeError(f"{server.name} exited with {code}; see "
                               f"{self.run_dir / (server.name + '.stderr')}")

    # -- answers and failures ---------------------------------------------

    def check_answers(self) -> Dict[str, Any]:
        """Compare served answers with the in-process PrStack reference.

        Checked: every warm-up request, and the first ``check_first``
        requests of each measured step (every request of the workloads
        that repeat queries).  A mismatch fails its request, except a
        tie at probability 1 (:func:`near_one_tie`), which is counted
        as ``above_one`` and left to the engine's own tests.
        """
        from workloads import reference_answer
        references: Dict[Any, Any] = {}
        checked = mismatches = above_one = 0
        for step in self.steps:
            for record in step.searches:
                warm = step.name.endswith("warm")
                if record.answer is None or not (
                        warm or self.w.repeats
                        or record.index < self.plan.check_first):
                    continue
                if record.query not in references:
                    references[record.query] = reference_answer(
                        self.reference, self.w, record.query)
                expected = references[record.query]
                checked += 1
                if record.answer == expected:
                    continue
                if near_one_tie(record.answer, expected):
                    above_one += 1
                    continue
                mismatches += 1
                record.error = "wrong answer"
        warm = self.steps[0]
        digest = hashlib.sha256(json.dumps(sorted(
            [list(r.query[0]), r.query[1], r.answer]
            for r in warm.searches)).encode()).hexdigest()
        return {"checked": checked, "mismatches": mismatches,
                "above_one": above_one, "sha256": digest}


def run_workload(name: str, seed: int, trace: int,
                 seconds: Optional[float], quick: bool) -> Dict[str, Any]:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    plan = make_plan(workload, seconds, quick)
    run_dir = RUNS_DIR / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = WorkloadRun(workload, seed, plan, run_dir)
    run.metrics["host.calib_ms"] = host_calibration_ms()
    try:
        run.traced() if trace else run.untraced()
    finally:
        gc.unfreeze()
        for data in run_dir.glob("data*"):
            shutil.rmtree(data, ignore_errors=True)
    answers = run.check_answers()
    records = [r for step in run.steps for r in step.records]
    failed = sum(1 for r in records if not r.ok)
    run.metrics["fail_rate"] = failed / len(records)
    run.metrics["serve.rejected"] = sum(
        1 for r in records if r.status in (429, 503))
    wire = [r.rt_ms - r.elapsed_ms for step in run.steps
            if not step.name.startswith("traced") for r in step.searches
            if r.ok]
    run.metrics["serve.wire_ms.p50"] = percentile(wire, 0.50)
    reload_rts = [r.rt_ms for r in records if r.kind == "reload" and r.ok]
    if reload_rts:
        run.metrics["reload_ms"] = statistics.median(reload_rts)
    pinned = load_json(MANIFEST_JSON).get("answers_sha256", {}).get(name)
    sha_ok = seed != DEFAULT_SEED or pinned is None \
        or pinned == answers["sha256"]
    return {
        "workload": name, "seed": seed, "trace": trace,
        "plan": plan.__dict__, "run_dir": str(run_dir.relative_to(ROOT)),
        "metrics": {key: {"value": value, "unit": UNITS[key]}
                    for key, value in sorted(run.metrics.items())},
        "steps": [{"name": s.name, "sent": len(s.records),
                   "ok": sum(r.ok for r in s.records),
                   "failed": sum(not r.ok for r in s.records),
                   "wall_s": s.wall_s, "exhausted": s.exhausted}
                  for s in run.steps],
        "answers": dict(answers, pinned=pinned, pinned_ok=sha_ok),
        "attempted": len(records), "failed": failed,
        "correct": answers["mismatches"] == 0 and sha_ok,
        "errors": sorted({r.error for r in records if r.error})[:5],
    }


def print_run(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}")
    for step in result["steps"]:
        print(f"   step {step['name']:<12} sent={step['sent']} "
              f"ok={step['ok']} failed={step['failed']} "
              f"wall={step['wall_s']:.2f}s"
              + (" EXHAUSTED" if step["exhausted"] else ""))
    answers = result["answers"]
    print(f"   answers checked={answers['checked']} "
          f"mismatches={answers['mismatches']} "
          f"above_one={answers['above_one']} "
          f"sha256={answers['sha256'][:16]}"
          + ("" if answers["pinned_ok"] else " (PINNED HASH DIFFERS)"))
    for name, metric in result["metrics"].items():
        print(f"   {name:<28} {metric['value']:.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"   error: {error}")


def summary_line(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The last line of output: the declared metrics of every run, each
    prefixed with ``workload:`` when there are several runs."""
    metrics: Dict[str, Any] = {}
    for result in results:
        kind = "per_layer" if result["trace"] else "end_to_end"
        for declared in declared_metrics(kind):
            name = declared["name"]
            measured = result["metrics"].get(name)
            if measured is None or measured["unit"] != declared["unit"]:
                raise RuntimeError(f"{result['workload']}: declared metric "
                                   f"{name} ({declared['unit']}) was "
                                   f"not measured as declared")
            key = name if len(results) == 1 \
                else f"{result['workload']}:{name}"
            metrics[key] = measured
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="2 s steps, one set-up, small pools")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)

    def interrupted(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for name in names:
        for trace in traces:
            result = run_workload(name, args.seed, trace, args.seconds,
                                  args.quick)
            print_run(result)
            results.append(result)
    report = {"schema": SCHEMA, "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick,
              "host": {"nproc": os.cpu_count(),
                       "python": platform.python_version()},
              "runs": results}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    line = summary_line(results)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
