"""repro — Top-k keyword search over probabilistic XML data.

A complete, from-scratch reproduction of Li, Liu, Zhou & Wang,
"Top-k Keyword Search over Probabilistic XML Data" (ICDE 2011):
the PrXML{ind,mux} document model, extended Dewey encoding, inverted
keyword indexing, the PrStack and EagerTopK top-k SLCA algorithms with
their pruning properties, the possible-world oracle, and generators for
the XMark/Mondial/DBLP-style experimental workloads.

Quickstart::

    from repro import parse_pxml, topk_search

    doc = parse_pxml('''
        <library>
          <book><title>keyword search</title>
            <mux><year prob="0.7">2010</year>
                 <year prob="0.3">2011</year></mux>
          </book>
        </library>''')
    for result in topk_search(doc, ["keyword", "2010"], k=3):
        print(result)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": ("Algorithm", "Explanation", "SearchOutcome", "SLCAResult",
                   "eager_topk_search", "explain_result",
                   "monte_carlo_search", "possible_worlds_search",
                   "profile_lines", "prstack_search", "threshold_search",
                   "topk_search"),
    "repro.obs": ("FlightRecorder", "MetricsCollector", "NULL_COLLECTOR",
                  "NULL_RECORDER", "NULL_TRACER", "SpanTracer", "Stopwatch",
                  "build_report", "configure_logging",
                  "derive_trace_id", "get_logger", "parse_prometheus",
                  "render_prometheus", "validate_spans"),
    "repro.encoding": ("DeweyCode", "EncodedDocument", "encode_document"),
    "repro.exceptions": ("EncodingError", "IndexError_", "ModelError",
                         "ParseError", "QueryError", "ReproError",
                         "StorageError"),
    "repro.index": ("Database", "InvertedIndex", "build_index",
                    "load_database", "save_database"),
    "repro.prxml": ("DocumentBuilder", "NodeType", "PDocument", "PNode",
                    "document_stats", "enumerate_possible_worlds",
                    "parse_pxml", "parse_pxml_file", "sample_possible_world",
                    "serialize_pxml", "validate_document", "write_pxml_file"),
    "repro.resilience": ("CircuitBreaker", "Deadline", "Fault",
                         "FaultInjector", "RetryPolicy", "parse_faults"),
    "repro.service": ("BatchOutcome", "QueryService", "load_query_file"),
    "repro.twig": ("TwigPattern", "parse_twig", "topk_twig_search",
                   "twig_match_probability"),
})

__version__ = "1.0.0"

__all__ = [
    # search
    "Algorithm", "topk_search", "prstack_search", "eager_topk_search",
    "possible_worlds_search", "monte_carlo_search", "threshold_search",
    "explain_result", "profile_lines", "Explanation", "SearchOutcome",
    "SLCAResult",
    # observability
    "MetricsCollector", "NULL_COLLECTOR", "Stopwatch",
    "SpanTracer", "NULL_TRACER", "FlightRecorder", "NULL_RECORDER",
    "derive_trace_id", "validate_spans", "build_report",
    "render_prometheus", "parse_prometheus",
    "configure_logging", "get_logger",
    # model
    "PDocument", "PNode", "NodeType", "DocumentBuilder",
    "parse_pxml", "parse_pxml_file", "serialize_pxml", "write_pxml_file",
    "validate_document", "document_stats",
    "enumerate_possible_worlds", "sample_possible_world",
    # encoding / index
    "DeweyCode", "EncodedDocument", "encode_document",
    "InvertedIndex", "build_index", "Database",
    "save_database", "load_database",
    # serving (docs/SERVICE.md)
    "QueryService", "BatchOutcome", "load_query_file",
    # resilience (docs/RESILIENCE.md)
    "Deadline", "RetryPolicy", "CircuitBreaker", "Fault",
    "FaultInjector", "parse_faults",
    # twig queries
    "TwigPattern", "parse_twig", "topk_twig_search",
    "twig_match_probability",
    # errors
    "ReproError", "ModelError", "ParseError", "EncodingError",
    "IndexError_", "QueryError", "StorageError",
    "__version__",
]
