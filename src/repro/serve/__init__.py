"""The HTTP serving layer: ``repro serve`` (docs/SERVING.md).

A stdlib-only asyncio front door over one
:class:`repro.service.QueryService`:

* :mod:`repro.serve.protocol` — head parsing, strict request
  validation, the structured JSON error contract, response rendering;
* :mod:`repro.serve.admission` — the global in-flight cap and the
  graceful-drain latch (429 / 503, never a silent drop);
* :mod:`repro.serve.ratelimit` — per-client token buckets in a
  bounded LRU (429 with an exact ``Retry-After``);
* :mod:`repro.serve.server` — the event loop, routes
  (``POST /search``, ``POST /batch``, ``GET /health``,
  ``GET /metrics``, ``POST /reload``), executor offload, per-request
  spans, and SIGTERM drain.
"""

from repro.serve.admission import AdmissionController
from repro.serve.protocol import (ApiError, BatchRequest, HttpRequest,
                                  ProtocolError, SearchRequest,
                                  classify_query_error, error_body,
                                  error_response, json_response,
                                  outcome_payload, parse_batch_request,
                                  parse_head, parse_search_request,
                                  query_error_to_api, render_response,
                                  search_body)
from repro.serve.ratelimit import (NULL_RATE_LIMITER, NullRateLimiter,
                                   RateLimiter, RateLimiterLike,
                                   TokenBucket)
from repro.serve.server import (ServeConfig, ServeHandle, ServeServer,
                                start_in_thread)

__all__ = [
    "ServeServer", "ServeConfig", "ServeHandle", "start_in_thread",
    "AdmissionController",
    "RateLimiter", "NullRateLimiter", "NULL_RATE_LIMITER",
    "RateLimiterLike", "TokenBucket",
    "HttpRequest", "SearchRequest", "BatchRequest",
    "ApiError", "ProtocolError",
    "parse_head", "parse_search_request", "parse_batch_request",
    "classify_query_error", "query_error_to_api",
    "render_response", "json_response", "error_response",
    "error_body", "outcome_payload", "search_body",
]
