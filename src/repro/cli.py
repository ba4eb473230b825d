"""Command-line interface.

Subcommands::

    repro generate xmark --scale 1 --ratio 0.15 -o site.pxml
    repro index site.pxml site.db
    repro stats site.db
    repro search site.db united states graduate -k 10
    repro search site.db united states --profile --metrics-json m.json
    repro batch site.db queries.txt --workers 4 --cache-size 128
    repro batch site.db queries.txt --deadline-ms 50 --max-retries 2
    repro batch site.db queries.txt --faults 'worker_crash:times=1' \
        --workers 2 --executor process
    repro batch site.db queries.txt --trace-dir trace/ --workers 2
    repro trace trace/spans.jsonl
    repro trace trace/flight-001-query_errors.json
    repro explain site.db --code 1.2.3 united states graduate
    repro twig site.db 'person[profile/education ~ "graduate"]'
    repro worlds small.pxml
    repro lint src/repro --format json -o lint.json
    repro check site.db united states --sanitize
    repro fsck site.db --repair
    repro snapshot site.db --list
    repro batch site.db queries.txt --reload-on HUP
    repro corpus build a.pxml b.pxml c.pxml -o corpus.db --shards 4
    repro corpus search corpus.db united states -k 10 --executor thread
    repro corpus fsck corpus.db --repair
    repro serve corpus.db --port 8080

``python -m repro ...`` works identically.  The global ``-v/--verbose``
flag (before the subcommand) enables DEBUG logging for the whole
``repro`` logger hierarchy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.api import Algorithm, topk_search
from repro.exceptions import ReproError
from repro.index.storage import Database, load_database, save_database
from repro.obs import (FlightRecorder, MetricsCollector, NULL_TRACER,
                       SpanTracer, Stopwatch, build_report,
                       configure_logging, derive_trace_id,
                       render_prometheus, validate_report,
                       workers_block, write_spans)

# Each subcommand imports what only it uses (the XML parser and
# serializer, the data generators, explain, possible worlds, the
# linter), so a long-running `repro serve` never loads them.


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1, so a zero or
    negative value is a usage error, not a failure at start-up."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k keyword search over probabilistic XML data "
                    "(ICDE 2011 reproduction)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable DEBUG logging on the 'repro' "
                             "logger hierarchy (stderr)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="emit a synthetic p-document")
    generate.add_argument("corpus",
                          choices=("xmark", "mondial", "dblp"))
    generate.add_argument("--scale", type=int, default=1,
                          help="XMark size factor (default 1)")
    generate.add_argument("--publications", type=int, default=5000,
                          help="DBLP record count (default 5000)")
    generate.add_argument("--ratio", type=float, default=0.15,
                          help="distributional-node ratio (default 0.15)")
    generate.add_argument("--seed", type=int, default=673)
    generate.add_argument("-o", "--output", required=True,
                          help="output .pxml path")

    index = commands.add_parser(
        "index", help="encode and index a p-document into a database dir")
    index.add_argument("document", help="input .pxml file")
    index.add_argument("database", help="output database directory")

    stats = commands.add_parser(
        "stats", help="node-type breakdown (Table II row)")
    stats.add_argument("source", help="database directory or .pxml file")

    search = commands.add_parser(
        "search", help="top-k probabilistic SLCA keyword search")
    search.add_argument("source", help="database directory or .pxml file")
    search.add_argument("keywords", nargs="+")
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--algorithm", default="eager",
                        choices=[choice.value for choice in Algorithm])
    search.add_argument("--semantics", default="slca",
                        choices=("slca", "elca"),
                        help="result semantics (elca needs --algorithm "
                             "prstack or possible_worlds)")
    search.add_argument("--profile", action="store_true",
                        help="collect metrics + the query's span tree "
                             "and print the profile after the results")
    search.add_argument("--metrics-json", metavar="PATH",
                        help="write the query's repro.metrics/v2 JSON "
                             "report to PATH (docs/OBSERVABILITY.md)")
    search.add_argument("--sanitize", action="store_true",
                        help="run under the runtime invariant sanitizer "
                             "(docs/ANALYSIS.md); also enabled by "
                             "REPRO_SANITIZE=1")
    search.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS", dest="deadline_ms",
                        help="per-query wall-clock budget; on expiry "
                             "the heap so far comes back marked "
                             "partial (docs/RESILIENCE.md)")

    batch = commands.add_parser(
        "batch", help="run a query batch through one shared "
                      "QueryService (docs/SERVICE.md)")
    batch.add_argument("source", help="database directory or .pxml file")
    batch.add_argument("queries",
                       help="query file: one query per line, keywords "
                            "whitespace-separated; blank lines and "
                            "'#' comments are skipped")
    batch.add_argument("-k", type=int, default=10)
    batch.add_argument("--algorithm", default="eager",
                       choices=[choice.value for choice in Algorithm])
    batch.add_argument("--semantics", default="slca",
                       choices=("slca", "elca"))
    batch.add_argument("--workers", type=int, default=None,
                       help="fan-out width (default: serial)")
    batch.add_argument("--executor", default=None,
                       choices=("serial", "thread", "process"),
                       help="worker model when --workers > 1 "
                            "(default serial): threads share the hot "
                            "caches, processes each index their own "
                            "document copy (docs/SERVICE.md)")
    batch.add_argument("--cache-size", type=_positive_int, default=256,
                       metavar="M", dest="cache_size",
                       help="entries per service cache, at least 1 "
                            "(default 256)")
    batch.add_argument("--metrics-json", metavar="PATH",
                       help="write the batch's repro.metrics/v2 JSON "
                            "report to PATH, with process-worker "
                            "counters merged in "
                            "(docs/OBSERVABILITY.md)")
    batch.add_argument("--metrics-prom", metavar="PATH",
                       dest="metrics_prom",
                       help="write the merged metrics as Prometheus "
                            "text exposition (0.0.4) to PATH")
    batch.add_argument("--trace-dir", metavar="DIR", dest="trace_dir",
                       help="enable end-to-end span tracing and the "
                            "flight recorder; writes spans.jsonl and "
                            "a v2 metrics.json into DIR, plus "
                            "flight-*.json dumps on query errors, "
                            "partial answers, breaker trips or "
                            "SIGUSR2 (docs/OBSERVABILITY.md)")
    batch.add_argument("--sanitize", action="store_true",
                       help="run every query under the runtime "
                            "invariant sanitizer (docs/ANALYSIS.md)")
    batch.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS", dest="deadline_ms",
                       help="per-query wall-clock budget; expired "
                            "queries return partial anytime answers "
                            "(docs/RESILIENCE.md)")
    batch.add_argument("--max-retries", type=int, default=2,
                       metavar="N", dest="max_retries",
                       help="serial retries per failed query "
                            "before it becomes an error outcome "
                            "(default 2)")
    batch.add_argument("--faults", metavar="SPEC", default=None,
                       help="deterministic fault injection spec, e.g. "
                            "'worker_crash:times=1' — for testing the "
                            "degradation chain (docs/RESILIENCE.md); "
                            "also via REPRO_FAULTS")
    batch.add_argument("--faults-seed", type=int, default=0,
                       metavar="N", dest="faults_seed",
                       help="seed for probabilistic (rate=) faults")
    batch.add_argument("--reload-on", choices=("HUP",), default=None,
                       metavar="SIGNAL", dest="reload_on",
                       help="hot-reload the database directory on this "
                            "signal while the batch runs; in-flight "
                            "queries drain on the old generation "
                            "(docs/STORAGE.md)")

    trace = commands.add_parser(
        "trace", help="render a span dump (spans.jsonl) or a flight-"
                      "recorder dump written by 'repro batch "
                      "--trace-dir' (docs/OBSERVABILITY.md)")
    trace.add_argument("dump",
                       help="a spans.jsonl file (rendered as the span "
                            "tree) or a flight-*.json dump (rendered "
                            "as the event window)")
    trace.add_argument("--limit", type=int, default=200,
                       help="maximum spans/records printed "
                            "(default 200)")

    explain = commands.add_parser(
        "explain", help="decompose one node's SLCA probability")
    explain.add_argument("source", help="database directory or .pxml file")
    explain.add_argument("keywords", nargs="+")
    explain.add_argument("--code", required=True,
                         help="extended Dewey code, e.g. 1.M1.I2.1")

    twig = commands.add_parser(
        "twig", help="probabilistic twig (tree-pattern) query")
    twig.add_argument("source", help="database directory or .pxml file")
    twig.add_argument("pattern",
                      help='e.g. \'movie[title ~ "texas"]//actor\'')
    twig.add_argument("-k", type=int, default=10)

    worlds = commands.add_parser(
        "worlds", help="enumerate the possible worlds of a small p-doc")
    worlds.add_argument("document", help="input .pxml file")
    worlds.add_argument("--limit", type=int, default=20,
                        help="print at most this many worlds")

    lint = commands.add_parser(
        "lint", help="run the probability-aware static analysis "
                     "(rules R001-R007, docs/ANALYSIS.md)")
    lint.add_argument("paths", nargs="+",
                      help="python files or directories to lint")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", help="output format")
    lint.add_argument("-o", "--output", metavar="PATH",
                      help="write the report there instead of stdout")
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(default: all)")

    check = commands.add_parser(
        "check", help="validate a p-document / database; with keywords, "
                      "cross-check the algorithms on a query")
    check.add_argument("source", help="database directory or .pxml file")
    check.add_argument("keywords", nargs="*",
                       help="optional query: run PrStack and EagerTopK "
                            "and require identical answers")
    check.add_argument("-k", type=int, default=10)
    check.add_argument("--sanitize", action="store_true",
                       help="run the query under the runtime invariant "
                            "sanitizer (docs/ANALYSIS.md)")
    check.add_argument("--concurrency", action="store_true",
                       help="stress the service from many threads under "
                            "the instrumented-lock witness "
                            "(docs/ANALYSIS.md, rules R008-R012)")
    check.add_argument("--threads", type=int, default=None,
                       help="worker threads for --concurrency "
                            "(default 6)")
    check.add_argument("--iterations", type=int, default=None,
                       help="operations per worker for --concurrency "
                            "(default 40)")

    fsck = commands.add_parser(
        "fsck", help="verify a database directory against its "
                     "manifests; classify and optionally repair "
                     "corruption (docs/STORAGE.md)")
    fsck.add_argument("database", help="database directory")
    fsck.add_argument("--repair", action="store_true",
                      help="quarantine damaged files, rebuild exact "
                           "postings from an intact document, or roll "
                           "CURRENT back to the newest loadable "
                           "generation")

    snapshot = commands.add_parser(
        "snapshot", help="list a database's snapshot generations, or "
                         "write the current data as a new generation "
                         "(also migrates a legacy flat layout)")
    snapshot.add_argument("database", help="database directory")
    snapshot.add_argument("--list", action="store_true", dest="list_",
                          help="list generations instead of writing "
                               "a new one")

    serve = commands.add_parser(
        "serve", help="serve top-k search over HTTP: POST /search, "
                      "POST /batch, GET /health, GET /metrics, "
                      "POST /reload (docs/SERVING.md)")
    serve.add_argument("source", help="database directory or .pxml file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port; 0 picks an ephemeral port "
                            "(printed on startup)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       metavar="N", dest="max_inflight",
                       help="global in-flight request cap; overflow "
                            "answers 429 with Retry-After (default 8)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client token-bucket rate in "
                            "requests/second (0 disables limiting)")
    serve.add_argument("--burst", type=float, default=20.0,
                       help="token-bucket depth (default 20)")
    serve.add_argument("--client-header", default="x-client-id",
                       metavar="NAME", dest="client_header",
                       help="header naming the rate-limit client; "
                            "only consulted with "
                            "--trust-client-header (falls back to "
                            "the peer address)")
    serve.add_argument("--trust-client-header", action="store_true",
                       dest="trust_client_header",
                       help="key rate-limit buckets on the "
                            "client-supplied header; only safe "
                            "behind an authenticating proxy "
                            "(default: key on the peer address)")
    serve.add_argument("--cache-size", type=_positive_int, default=256,
                       metavar="M", dest="cache_size",
                       help="entries per service cache, at least 1 "
                            "(default 256)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S", dest="drain_timeout",
                       help="seconds shutdown waits for in-flight "
                            "requests (default 30)")
    serve.add_argument("--faults", metavar="SPEC", default=None,
                       help="deterministic fault injection spec "
                            "(docs/RESILIENCE.md); also via "
                            "REPRO_FAULTS")
    serve.add_argument("--faults-seed", type=int, default=0,
                       metavar="N", dest="faults_seed",
                       help="seed for probabilistic (rate=) faults")

    corpus = commands.add_parser(
        "corpus", help="shard many p-documents into one searchable "
                       "corpus; scatter-gather top-k with bound-driven "
                       "shard pruning (docs/CORPUS.md)")
    corpus_commands = corpus.add_subparsers(dest="corpus_command",
                                            required=True)

    corpus_build = corpus_commands.add_parser(
        "build", help="shard .pxml documents into a corpus directory")
    corpus_build.add_argument("documents", nargs="+",
                              help=".pxml files; argument order is the "
                                   "corpus's global document order")
    corpus_build.add_argument("-o", "--out", required=True,
                              help="corpus directory to create/overwrite")
    corpus_build.add_argument("--shards", type=int, default=4,
                              help="shard count (default 4)")
    corpus_build.add_argument("--strategy", default="hash",
                              choices=("hash", "size"),
                              help="document placement: 'hash' is "
                                   "stable under re-builds, 'size' "
                                   "balances node counts (default hash)")
    corpus_build.add_argument("--replicas", type=int, default=1,
                              help="bit-identical copies of every "
                                   "shard; queries fail over and "
                                   "hedge across them "
                                   "(docs/CORPUS.md; default 1)")

    corpus_search = corpus_commands.add_parser(
        "search", help="top-k search across all shards, merged into "
                       "one global answer list")
    corpus_search.add_argument("corpus", help="corpus directory")
    corpus_search.add_argument("keywords", nargs="+")
    corpus_search.add_argument("-k", type=int, default=10)
    corpus_search.add_argument("--algorithm", default="eager",
                               choices=[choice.value
                                        for choice in Algorithm])
    corpus_search.add_argument("--semantics", default="slca",
                               choices=("slca", "elca"))
    corpus_search.add_argument("--executor", default="serial",
                               choices=("serial", "thread", "process"),
                               help="shard fan-out model (default "
                                    "serial)")
    corpus_search.add_argument("--workers", type=int, default=None,
                               help="concurrent shard searches "
                                    "(default: min(4, shards))")
    corpus_search.add_argument("--deadline-ms", type=float, default=None,
                               metavar="MS", dest="deadline_ms",
                               help="whole-query wall-clock budget "
                                    "shared by every shard")
    corpus_search.add_argument("--json", action="store_true",
                               help="print the outcome as JSON (results "
                                    "plus corpus scatter/prune stats)")

    corpus_fsck = corpus_commands.add_parser(
        "fsck", help="fsck every shard's database directory; damaged "
                     "shards quarantine without taking the corpus down")
    corpus_fsck.add_argument("corpus", help="corpus directory")
    corpus_fsck.add_argument("--repair", action="store_true",
                             help="repair/quarantine damaged shard "
                                  "files (docs/STORAGE.md)")

    chaos = commands.add_parser(
        "chaos", help="seeded chaos suite against a live served "
                      "replicated corpus: replica kills, stragglers "
                      "with hedging, torn reads, clock skew; exits "
                      "non-zero on any invariant violation "
                      "(docs/RESILIENCE.md)")
    chaos.add_argument("corpus", help="corpus directory built with "
                                      "--replicas 2 or more")
    chaos.add_argument("--seed", type=int, default=7,
                       help="workload + fault RNG seed (default 7)")
    chaos.add_argument("--queries", type=int, default=12,
                       help="queries per phase (default 12)")
    chaos.add_argument("-k", type=int, default=5)
    chaos.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS", dest="deadline_ms",
                       help="per-request deadline each chaos query "
                            "carries (default 1500)")
    chaos.add_argument("--epsilon-ms", type=float, default=None,
                       metavar="MS", dest="epsilon_ms",
                       help="allowed overshoot past the deadline "
                            "before it counts as a violation "
                            "(default 750)")
    chaos.add_argument("--json", action="store_true",
                       help="print the full repro.chaos/v1 report")
    chaos.add_argument("--out", metavar="FILE", default=None,
                       help="also write the report JSON to FILE")
    return parser


def _open_database(source: str) -> Database:
    if source.endswith(".pxml"):
        from repro.prxml.parser import parse_pxml_file
        document = parse_pxml_file(source)
        return Database.from_document(document)
    return load_database(source)


def _cmd_generate(options) -> int:
    from repro.datagen.dblp import generate_dblp
    from repro.datagen.mondial import generate_mondial
    from repro.datagen.probabilistic import make_probabilistic
    from repro.datagen.xmark import generate_xmark
    from repro.prxml.serializer import write_pxml_file
    from repro.prxml.stats import document_stats
    from repro.prxml.validate import validate_document
    if options.corpus == "xmark":
        document = generate_xmark(scale=options.scale, seed=options.seed)
    elif options.corpus == "mondial":
        document = generate_mondial(seed=options.seed)
    else:
        document = generate_dblp(publications=options.publications,
                                 seed=options.seed)
    probabilistic = make_probabilistic(
        document, distributional_ratio=options.ratio, seed=options.seed)
    validate_document(probabilistic)
    write_pxml_file(probabilistic, options.output)
    stats = document_stats(probabilistic)
    print(stats.as_table_row(options.output))
    return 0


def _cmd_index(options) -> int:
    from repro.prxml.parser import parse_pxml_file
    with Stopwatch() as watch:
        document = parse_pxml_file(options.document)
        database = Database.from_document(document)
        save_database(database, options.database)
    print(f"indexed {len(document)} nodes, "
          f"{len(database.index)} terms into {options.database} "
          f"in {watch.elapsed:.2f}s")
    return 0


def _cmd_stats(options) -> int:
    from repro.prxml.stats import document_stats
    database = _open_database(options.source)
    stats = document_stats(database.document)
    print(stats.as_table_row(options.source))
    print(f"height={stats.height} leaves={stats.leaf_nodes:,} "
          f"max_fanout={stats.max_fanout} "
          f"distributional={stats.distributional_ratio:.1%}")
    return 0


def _cmd_search(options) -> int:
    database = _open_database(options.source)
    instrumented = options.profile or options.metrics_json
    # An instrumented query runs under one root span, with the engine
    # phases and events nested below it.
    tracer = SpanTracer() if instrumented else NULL_TRACER
    collector = MetricsCollector(tracer=tracer) if instrumented else None
    with Stopwatch() as watch, tracer.span(
            "search", terms=" ".join(options.keywords), k=options.k):
        outcome = topk_search(database, options.keywords, options.k,
                              options.algorithm,
                              semantics=options.semantics,
                              collector=collector,
                              sanitize=True if options.sanitize else None,
                              deadline=options.deadline_ms)
    spans = tracer.export() if instrumented else None
    marker = (f" [PARTIAL: {outcome.termination_reason}]"
              if outcome.partial else "")
    print(f"{len(outcome)} answer(s) in {watch.elapsed_ms:.1f} ms "
          f"({options.algorithm}, {options.semantics}){marker}")
    if outcome.partial:
        print("partial anytime answer: each probability is exact for "
              "its node; more answers may exist (docs/RESILIENCE.md)")
    sanitizer_summary = outcome.stats.get("sanitizer")
    if sanitizer_summary:
        print(f"sanitizer: {sanitizer_summary['checks']} checks, "
              f"{sanitizer_summary['violations']} violations")
    for rank, result in enumerate(outcome, start=1):
        print(f"{rank:3d}. Pr={result.probability:.6f}  "
              f"<{result.label}> {result.code}")
    if options.profile:
        from repro.core.explain import profile_lines
        print("\n".join(profile_lines(outcome, spans)))
    if options.metrics_json:
        report = build_report(options.keywords, options.k,
                              options.algorithm, options.semantics,
                              outcome, watch.elapsed_ms, spans=spans)
        try:
            with open(options.metrics_json, "w", encoding="utf-8") as sink:
                json.dump(report, sink, indent=2)
                sink.write("\n")
        except OSError as error:
            print(f"error: cannot write metrics report: {error}",
                  file=sys.stderr)
            return 1
        print(f"metrics report written to {options.metrics_json}")
    return 0


def _cmd_batch(options) -> int:
    from repro.resilience import parse_faults
    from repro.service import QueryService, load_query_file
    # The reload handler is armed before the (slow) initial load so an
    # early signal is absorbed instead of killing the process; it
    # late-binds the service through this cell.
    service_cell: List[object] = []
    restore_signal = _install_reload_handler(options, service_cell)
    recorder = FlightRecorder() if options.trace_dir else None
    restore_dump = _install_dump_handler(options, recorder)
    try:
        queries = load_query_file(options.queries)
        database = _open_database(options.source)
        collector = MetricsCollector()
        service = QueryService(database, cache_size=options.cache_size,
                               collector=collector, recorder=recorder)
        service_cell.append(service)
        faults = (parse_faults(options.faults,
                               seed=options.faults_seed)
                  if options.faults else None)
        tracer = _build_tracer(options, queries, recorder)
        return _run_batch(options, queries, service, collector, faults,
                          tracer, recorder)
    finally:
        restore_dump()
        restore_signal()


def _build_tracer(options, queries, recorder):
    """A span tracer for ``--trace-dir`` runs, or None.

    The trace id is derived from the workload, not drawn at random, so
    a seeded fault-injected batch reproduces the same id run after run
    (the determinism contract the span tests pin down).
    """
    if not options.trace_dir:
        return None
    trace_id = derive_trace_id(
        options.source, options.algorithm, options.semantics,
        options.k, options.faults or "", options.faults_seed,
        *(" ".join(query) for query in queries))
    return SpanTracer(trace_id=trace_id, recorder=recorder)


def _run_batch(options, queries, service, collector, faults,
               tracer=None, recorder=None) -> int:
    from repro.service.worker import DEFAULT_EXECUTOR
    batch = service.batch_search(
        queries, k=options.k, algorithm=options.algorithm,
        semantics=options.semantics, workers=options.workers,
        executor=options.executor or DEFAULT_EXECUTOR,
        sanitize=True if options.sanitize else None,
        deadline_ms=options.deadline_ms,
        max_retries=options.max_retries, faults=faults,
        tracer=tracer)
    stats = batch.stats
    print(f"{len(batch)} queries ({stats['distinct_term_sets']} "
          f"distinct term sets) in {batch.elapsed_ms:.1f} ms "
          f"({stats['executor']} x{stats['workers']}, "
          f"{options.algorithm}, {options.semantics})")
    cache = stats["cache"]
    for name in ("match_entries", "results"):
        counters = cache[name]
        print(f"cache {name}: {counters['hits']} hits, "
              f"{counters['misses']} misses, "
              f"{counters['evictions']} evictions")
    resilience = stats["resilience"]
    flagged = {name: value for name, value in resilience.items()
               if isinstance(value, int) and value
               and name not in ("max_retries", "deadline_ms")}
    if flagged:
        print("resilience: " + ", ".join(
            f"{name}={value}" for name, value in sorted(flagged.items())))
    storage = stats["storage"]
    if storage["generation"] is not None:
        reloads = storage["reloads"]
        print(f"storage: generation {storage['generation']} "
              f"(epoch {storage['epoch']}), reloads "
              f"{reloads['successes']}/{reloads['attempts']} ok")
    for query, outcome in zip(queries, batch):
        top = outcome.results[0] if outcome.results else None
        answer = (f"top Pr={top.probability:.6f} <{top.label}> "
                  f"{top.code}" if top else "no answers")
        if outcome.termination_reason == "error":
            answer = f"ERROR: {outcome.stats.get('error', 'unknown')}"
        elif outcome.partial:
            answer += f" [partial: {outcome.termination_reason}]"
        print(f"  {' '.join(query)}: {len(outcome)} answer(s), "
              f"{answer}")
    if options.metrics_json:
        report = _build_batch_report(options, queries, batch, collector)
        try:
            with open(options.metrics_json, "w",
                      encoding="utf-8") as sink:
                json.dump(report, sink, indent=2)
                sink.write("\n")
        except OSError as error:
            print(f"error: cannot write metrics report: {error}",
                  file=sys.stderr)
            return 1
        print(f"metrics report written to {options.metrics_json}")
    if options.metrics_prom:
        try:
            with open(options.metrics_prom, "w",
                      encoding="utf-8") as sink:
                sink.write(render_prometheus(collector.snapshot()))
        except OSError as error:
            print(f"error: cannot write Prometheus exposition: "
                  f"{error}", file=sys.stderr)
            return 1
        print(f"Prometheus exposition written to "
              f"{options.metrics_prom}")
    if options.trace_dir:
        return _write_trace_outputs(options, queries, batch, collector,
                                    tracer, recorder)
    return 0


def _build_batch_report(options, queries, batch, collector,
                        spans=None):
    """The batch's ``repro.metrics/v2`` report: the merged
    (coordinator + process workers) metrics block, plus the
    worker-provenance / resilience / span blocks when present."""
    from repro.core.result import SearchOutcome
    stats = batch.stats
    summary = SearchOutcome(results=[], stats=dict(stats))
    summary.stats["metrics"] = collector.snapshot()
    merged = stats.get("workers_merged")
    workers = (workers_block(list(merged["pids"]),
                             merged["merged_snapshots"])
               if merged else None)
    resilience = dict(stats.get("resilience") or {}) or None
    return validate_report(build_report(
        [" ".join(query) for query in queries], options.k,
        options.algorithm, options.semantics, summary,
        batch.elapsed_ms, spans=spans, workers=workers,
        resilience=resilience))


def _write_trace_outputs(options, queries, batch, collector, tracer,
                         recorder) -> int:
    """Materialize a ``--trace-dir``: spans.jsonl, the v2 metrics.json
    (spans included), and a flight dump when the batch hit trouble."""
    import os
    directory = options.trace_dir
    spans = tracer.export()
    try:
        os.makedirs(directory, exist_ok=True)
        write_spans(spans, os.path.join(directory, "spans.jsonl"))
        report = _build_batch_report(options, queries, batch,
                                     collector, spans=spans)
        with open(os.path.join(directory, "metrics.json"), "w",
                  encoding="utf-8") as sink:
            json.dump(report, sink, indent=2)
            sink.write("\n")
    except (OSError, ReproError) as error:
        print(f"error: cannot write trace outputs: {error}",
              file=sys.stderr)
        return 1
    print(f"trace {tracer.trace_id}: {len(spans)} span(s) written "
          f"to {directory}")
    resilience = batch.stats.get("resilience", {})
    trouble = {name: resilience[name]
               for name in ("query_errors", "deadline_expired",
                            "circuit_open_skips")
               if resilience.get(name)}
    partials = sum(1 for outcome in batch if outcome.partial)
    if partials:
        trouble["partial_answers"] = partials
    if trouble:
        # Most severe trouble names the dump file.
        order = ("query_errors", "circuit_open_skips",
                 "deadline_expired", "partial_answers")
        reason = next(name for name in order if name in trouble)
        path = recorder.dump(directory, reason,
                             extra={"trace_id": tracer.trace_id,
                                    "trouble": trouble})
        print(f"flight recorder dumped to {path} "
              f"({', '.join(f'{k}={v}' for k, v in sorted(trouble.items()))})")
    return 0


def _install_dump_handler(options, recorder):
    """Arm SIGUSR2 -> on-demand flight dump; returns the restore
    callback.  Active only with ``--trace-dir`` (the dump needs a
    destination); the handler must never take the batch down, so a
    failed dump is reported on stderr and ignored."""
    if not options.trace_dir or recorder is None:
        return lambda: None
    import signal
    from repro.service.signals import safe_signal
    if not hasattr(signal, "SIGUSR2"):  # pragma: no cover - windows
        return lambda: None

    def handle(signum, frame):
        try:
            path = recorder.dump(options.trace_dir, "sigusr2")
        except ReproError as error:
            print(f"flight dump failed: {error}", file=sys.stderr)
        else:
            print(f"flight recorder dumped to {path}", file=sys.stderr)

    return safe_signal(signal.SIGUSR2, handle, "SIGUSR2 flight dump")


def _cmd_trace(options) -> int:
    from repro.obs import (load_flight_dump, load_spans,
                           render_flight_dump, render_span_tree,
                           validate_spans)
    if options.dump.endswith(".jsonl"):
        spans = validate_spans(load_spans(options.dump))
        trace_id = spans[0]["trace_id"] if spans else "(empty)"
        print(f"trace {trace_id}: {len(spans)} span(s)")
        print("\n".join(render_span_tree(spans, limit=options.limit)))
        return 0
    document = load_flight_dump(options.dump)
    print(f"flight dump {options.dump}")
    print("\n".join(render_flight_dump(document, limit=options.limit)))
    return 0


def _install_reload_handler(options, service_cell):
    """Arm ``--reload-on HUP``; returns the restore callback.

    The handler hot-reloads the service from its database directory.
    A reload that fails (corrupt snapshot, missing directory) is
    reported on stderr and the old generation keeps serving — a signal
    must never take the batch down.  ``service_cell`` is a list the
    caller appends the service to once it exists; a signal arriving
    before that is acknowledged and dropped.
    """
    if options.reload_on is None:
        return lambda: None
    import signal
    from repro.service.signals import safe_signal
    if options.source.endswith(".pxml"):
        raise ReproError("--reload-on needs a database directory "
                         "source (a .pxml file has no snapshot "
                         "generations to reload)")
    if not hasattr(signal, "SIGHUP"):  # pragma: no cover - windows
        raise ReproError("--reload-on HUP: this platform has no SIGHUP")

    def handle(signum, frame):
        if not service_cell:
            print("reload requested before the service finished "
                  "loading; ignored", file=sys.stderr)
            return
        try:
            state = service_cell[-1].reload()
        except ReproError as error:
            print(f"reload rejected: {error}", file=sys.stderr)
        else:
            print(f"reloaded: now serving generation "
                  f"{state.generation} (epoch {state.epoch})",
                  file=sys.stderr)

    return safe_signal(signal.SIGHUP, handle, "SIGHUP hot reload")


def _cmd_fsck(options) -> int:
    from repro.index.fsck import fsck_database
    report = fsck_database(options.database, repair=options.repair)
    print("\n".join(report.lines()))
    return report.exit_code()


def _cmd_snapshot(options) -> int:
    from repro.index.storage import (current_generation, is_legacy_layout,
                                     list_generations, read_manifest,
                                     snapshot_path)
    if options.list_:
        if is_legacy_layout(options.database):
            print(f"{options.database}: legacy flat layout (no "
                  f"generations); 'repro snapshot' migrates it")
            return 0
        generations = list_generations(options.database)
        if not generations:
            raise ReproError(f"{options.database} is not a database "
                             f"directory: no snapshots")
        current = current_generation(options.database)
        for generation in generations:
            marker = " *" if generation == current else ""
            try:
                manifest = read_manifest(
                    snapshot_path(options.database, generation))
                detail = (f"format {manifest['version']}, "
                          f"{manifest['nodes']} nodes, "
                          f"{manifest['terms']} terms")
            except ReproError as error:
                detail = f"unreadable manifest: {error}"
            print(f"{generation}{marker}  {detail}")
        return 0
    database = load_database(options.database)
    generation = save_database(database, options.database)
    print(f"wrote generation {generation} to {options.database}")
    return 0


def _cmd_explain(options) -> int:
    from repro.core.explain import explain_result
    from repro.encoding.dewey import DeweyCode
    database = _open_database(options.source)
    code = DeweyCode.parse(options.code)
    explanation = explain_result(database.index, options.keywords, code)
    print("\n".join(explanation.lines()))
    return 0


def _cmd_twig(options) -> int:
    from repro.twig import topk_twig_search, twig_match_probability
    database = _open_database(options.source)
    with Stopwatch() as watch:
        outcome = topk_twig_search(database.index, options.pattern,
                                   options.k)
    anywhere = twig_match_probability(database.index, options.pattern)
    print(f"{len(outcome)} binding(s) in {watch.elapsed_ms:.1f} ms; "
          f"P(matches anywhere) = {anywhere:.6f}")
    for rank, result in enumerate(outcome, start=1):
        print(f"{rank:3d}. Pr={result.probability:.6f}  "
              f"<{result.label}> {result.code}")
    return 0


def _cmd_worlds(options) -> int:
    from repro.prxml.parser import parse_pxml_file
    from repro.prxml.possible_worlds import enumerate_possible_worlds
    document = parse_pxml_file(options.document)
    worlds = enumerate_possible_worlds(document)
    print(f"{len(worlds)} distinct possible worlds "
          f"(raw {document.theoretical_world_count()})")
    for world in worlds[:options.limit]:
        labels = [node.label for node in world.root.iter_subtree()]
        print(f"  p={world.probability:.6g}  nodes={len(labels)}  "
              f"{' '.join(labels[:12])}"
              f"{' ...' if len(labels) > 12 else ''}")
    if len(worlds) > options.limit:
        print(f"  ... and {len(worlds) - options.limit} more")
    return 0


def _cmd_lint(options) -> int:
    from repro.analysis import (build_lint_report, default_rules,
                                lint_paths, select_rules)
    rules = (select_rules(options.rules.split(","))
             if options.rules else default_rules())
    result = lint_paths(options.paths, rules=rules)
    if options.format == "json":
        report = build_lint_report(result, options.paths, rules)
        rendered = json.dumps(report, indent=2) + "\n"
    else:
        rendered = "\n".join(result.render_lines()) + "\n"
    if options.output:
        try:
            with open(options.output, "w", encoding="utf-8") as sink:
                sink.write(rendered)
        except OSError as error:
            print(f"error: cannot write lint report: {error}",
                  file=sys.stderr)
            return 2
        print(f"lint report written to {options.output}")
    else:
        sys.stdout.write(rendered)
    return 0 if result.clean else 1


def _run_concurrency_check(database, options) -> int:
    """``check --concurrency``: stress the service under the witness."""
    import tempfile

    from repro.analysis.concurrency.stress import (DEFAULT_ITERATIONS,
                                                   DEFAULT_THREADS,
                                                   run_stress)
    threads = options.threads or DEFAULT_THREADS
    iterations = options.iterations or DEFAULT_ITERATIONS
    with tempfile.TemporaryDirectory(prefix="repro-stress-") as dumps:
        summary = run_stress(database, threads=threads,
                             iterations=iterations, dump_dir=dumps)
    ops = summary["ops"]
    witness = summary["witness"]
    print(f"concurrency: {threads} threads x {iterations} ops over "
          f"{summary['queries']} queries — "
          f"{ops['searches']} searches, {ops['batches']} batches, "
          f"{ops['reloads']} reloads, {ops['dumps']} signal dumps")
    print(f"witness: {witness['total_acquisitions']} lock "
          f"acquisitions, {len(witness['order_edges'])} order "
          f"edge(s), {len(witness['violations'])} violation(s)")
    for violation in witness["violations"]:
        print(f"  violation: {violation}", file=sys.stderr)
    for error in summary["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    if not summary["ok"]:
        print("concurrency check FAILED", file=sys.stderr)
        return 1
    print("concurrency check ok: answers stable, lock order respected")
    return 0


def _cmd_check(options) -> int:
    from repro.prxml.validate import validate_document
    database = _open_database(options.source)
    validate_document(database.document)
    print(f"document ok: {len(database.document)} nodes validate")
    if options.concurrency:
        status = _run_concurrency_check(database, options)
        if status != 0:
            return status
    if not options.keywords:
        return 0
    sanitize = True if options.sanitize else None
    outcomes = {}
    for algorithm in ("prstack", "eager"):
        with Stopwatch() as watch:
            outcomes[algorithm] = topk_search(
                database, options.keywords, options.k, algorithm,
                sanitize=sanitize)
        outcome = outcomes[algorithm]
        line = (f"{algorithm}: {len(outcome)} answer(s) "
                f"in {watch.elapsed_ms:.1f} ms")
        summary = outcome.stats.get("sanitizer")
        if summary:
            line += (f", sanitizer ran {summary['checks']} checks "
                     f"({summary['bounds_recorded']} bounds recorded)")
        print(line)
    left = [(r.code, round(r.probability, 9))
            for r in outcomes["prstack"].results]
    right = [(r.code, round(r.probability, 9))
             for r in outcomes["eager"].results]
    if left != right:
        print("error: PrStack and EagerTopK disagree on the answers",
              file=sys.stderr)
        return 1
    print("check ok: PrStack and EagerTopK agree")
    return 0


def _cmd_corpus(options) -> int:
    if options.corpus_command == "build":
        return _cmd_corpus_build(options)
    if options.corpus_command == "search":
        return _cmd_corpus_search(options)
    return _cmd_corpus_fsck(options)


def _cmd_corpus_build(options) -> int:
    from repro.corpus import build_corpus
    from repro.prxml.parser import parse_pxml_file
    documents = []
    for path in options.documents:
        documents.append((path, parse_pxml_file(path)))
    with Stopwatch() as watch:
        manifest = build_corpus(documents, options.out,
                                shards=options.shards,
                                strategy=options.strategy,
                                replicas=options.replicas)
    total_nodes = sum(doc.nodes for doc in manifest.documents)
    replica_note = (f", {manifest.replicas} replica(s) each"
                    if manifest.replicas > 1 else "")
    print(f"built corpus {options.out}: {len(manifest.documents)} "
          f"document(s), {total_nodes} nodes across "
          f"{manifest.shard_count} shard(s) ({manifest.strategy}"
          f"{replica_note}) in {watch.elapsed:.2f}s")
    for shard in range(manifest.shard_count):
        members = manifest.shard_documents(shard)
        nodes = sum(doc.nodes for doc in members)
        print(f"  {manifest.shard_names[shard]}: {len(members)} "
              f"document(s), {nodes} nodes")
    return 0


def _cmd_corpus_search(options) -> int:
    from repro.corpus import CorpusService
    collector = MetricsCollector()
    service = CorpusService(options.corpus, collector=collector)
    with Stopwatch() as watch:
        outcome = service.search(options.keywords, k=options.k,
                                 algorithm=options.algorithm,
                                 semantics=options.semantics,
                                 executor=options.executor,
                                 workers=options.workers,
                                 deadline=options.deadline_ms)
    corpus_stats = outcome.stats["corpus"]
    if options.json:
        payload = {
            "results": [{"code": str(result.code),
                         "label": result.label,
                         "probability": result.probability}
                        for result in outcome],
            "partial": outcome.partial,
            "termination_reason": outcome.termination_reason,
            "corpus": corpus_stats,
            "elapsed_ms": watch.elapsed_ms,
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    marker = (f" [PARTIAL: {outcome.termination_reason}]"
              if outcome.partial else "")
    print(f"{len(outcome)} answer(s) in {watch.elapsed_ms:.1f} ms "
          f"({options.algorithm}, {options.semantics}, "
          f"{corpus_stats['executor']}){marker}")
    print(f"shards: {corpus_stats['searched']} searched, "
          f"{corpus_stats['pruned']} pruned, "
          f"{corpus_stats['no_match']} without matches, "
          f"{corpus_stats['failed']} failed "
          f"of {corpus_stats['shards']}")
    for rank, result in enumerate(outcome, start=1):
        print(f"{rank:3d}. Pr={result.probability:.6f}  "
              f"<{result.label}> {result.code}")
    return 0


def _cmd_corpus_fsck(options) -> int:
    from repro.corpus import corpus_fsck
    status = 0
    for shard, report in corpus_fsck(options.corpus,
                                     repair=options.repair):
        for line in report.lines():
            print(f"[{shard}] {line}")
        status = max(status, report.exit_code())
    return status


def _cmd_chaos(options) -> int:
    from repro.resilience.chaos import (DEFAULT_DEADLINE_MS,
                                        DEFAULT_EPSILON_MS, run_chaos)
    deadline_ms = options.deadline_ms if options.deadline_ms \
        is not None else DEFAULT_DEADLINE_MS
    epsilon_ms = options.epsilon_ms if options.epsilon_ms \
        is not None else DEFAULT_EPSILON_MS
    report = run_chaos(options.corpus, seed=options.seed,
                       queries=options.queries, k=options.k,
                       deadline_ms=deadline_ms,
                       epsilon_ms=epsilon_ms)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if options.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for phase in report["phases"]:
            hedges = phase["hedges"]
            print(f"[{phase['phase']}] {phase['answered']}/"
                  f"{phase['queries']} answered, "
                  f"{phase['partial']} partial, "
                  f"{phase['mismatches']} mismatched, "
                  f"{phase['overshoots']} overshot "
                  f"(max {phase['max_wall_ms']:.0f}ms); hedges "
                  f"fired={hedges['fired']} won={hedges['won']} "
                  f"lost={hedges['lost']}")
        for violation in report["violations"]:
            print(f"VIOLATION: {violation}")
        verdict = "OK" if report["ok"] else \
            f"{len(report['violations'])} violation(s)"
        print(f"chaos seed {report['seed']}: {verdict}")
    return 0 if report["ok"] else 1


def _cmd_serve(options) -> int:
    import asyncio
    from repro.corpus import is_corpus_directory
    from repro.resilience import parse_faults
    from repro.resilience.faults import faults_from_env
    from repro.serve import ServeConfig, ServeServer
    from repro.service import QueryService

    collector = MetricsCollector()
    if (not options.source.endswith(".pxml")
            and is_corpus_directory(options.source)):
        from repro.corpus.service import CorpusService
        service = CorpusService(options.source,
                                cache_size=options.cache_size,
                                collector=collector)
    else:
        database = _open_database(options.source)
        service = QueryService(database, cache_size=options.cache_size,
                               collector=collector)
    faults = (parse_faults(options.faults, seed=options.faults_seed)
              if options.faults else faults_from_env())
    config = ServeConfig(host=options.host, port=options.port,
                         max_inflight=options.max_inflight,
                         rate=options.rate, burst=options.burst,
                         client_header=options.client_header.lower(),
                         trust_client_header=options.trust_client_header,
                         drain_timeout_s=options.drain_timeout)
    server = ServeServer(service, config, collector=collector,
                         faults=faults)

    def announce(port):
        # Flushed eagerly so a parent process polling stdout (the CI
        # smoke job, the e2e tests) can discover an ephemeral port.
        print(f"serving on http://{options.host}:{port} "
              f"(max_inflight={options.max_inflight})", flush=True)

    return asyncio.run(server.run_async(install_signals=True,
                                        on_ready=announce))


_HANDLERS = {
    "generate": _cmd_generate,
    "index": _cmd_index,
    "stats": _cmd_stats,
    "search": _cmd_search,
    "batch": _cmd_batch,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "twig": _cmd_twig,
    "worlds": _cmd_worlds,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "fsck": _cmd_fsck,
    "snapshot": _cmd_snapshot,
    "serve": _cmd_serve,
    "corpus": _cmd_corpus,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    options = build_parser().parse_args(argv)
    configure_logging(verbose=options.verbose)
    try:
        return _HANDLERS[options.command](options)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Executor-backed commands shut their pools down on the way up
        # (cancel_futures=True), so no worker is orphaned; report the
        # conventional 128+SIGINT code instead of a raw traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
