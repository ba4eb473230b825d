"""Wire protocol of the ``repro serve`` HTTP front door.

Everything here is synchronous and stateless — head parsing, request
body validation, response rendering — so the whole protocol is unit
testable without a socket; the asyncio plumbing lives in
:mod:`repro.serve.server`.

The error contract (the second satellite bugfix of the serving PR) is
a single structured shape on every non-2xx response::

    {"error": {"code": "invalid_query",
               "message": "k must be positive, got 0",
               "field": "k"}}

``code`` is a stable machine-readable token (``bad_request`` /
``invalid_query`` / ``not_found`` / ``method_not_allowed`` /
``rate_limited`` / ``overloaded`` / ``draining`` /
``reload_in_flight`` / ``reload_failed`` / ``payload_too_large`` /
``internal``), ``message`` is human-readable, and ``field`` names the
offending request field when one can be attributed (``null``
otherwise).  :class:`~repro.exceptions.QueryError` raised by
``validated_terms`` maps to a 400
``invalid_query`` with the field recovered by
:func:`classify_query_error` — never a 500.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, List, Mapping, Optional

from repro.core.api import Algorithm
from repro.core.result import EncodedAnswer, encode_answer
from repro.exceptions import QueryError, ReproError
from repro.service.worker import DEFAULT_EXECUTOR, EXECUTORS

#: Largest request body accepted by default (1 MiB).
DEFAULT_MAX_BODY = 1 << 20

#: Reason phrases for every status the server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_ALGORITHMS = frozenset(choice.value for choice in Algorithm)
_SEMANTICS = frozenset(("slca", "elca"))
_EXECUTORS = frozenset(EXECUTORS)

#: Request fields accepted by ``POST /search``.
_SEARCH_FIELDS = frozenset(("keywords", "k", "algorithm", "semantics",
                            "deadline_ms", "spans"))

#: Request fields accepted by ``POST /batch``.
_BATCH_FIELDS = frozenset(("queries", "k", "algorithm", "semantics",
                           "deadline_ms", "executor", "workers"))


class ProtocolError(ReproError):
    """A request could not be parsed at the HTTP framing layer."""


class ApiError(ReproError):
    """A request failed with a structured, client-attributable error.

    Carries everything :func:`error_body` needs; the server catches it
    at the top of the request handler and renders the JSON error.
    """

    def __init__(self, status: int, code: str, message: str,
                 field: Optional[str] = None,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.field = field
        self.retry_after = retry_after


@dataclass
class HttpRequest:
    """One parsed request: head fields plus the raw body."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    client: str = ""
    #: The host element of the peer's socket address tuple, verbatim.
    #: ``client`` is a *display* string (``host:port``, with IPv6
    #: hosts bracketed); anything keying on the peer — the rate
    #: limiter's buckets — must use this field instead of parsing the
    #: display string, which would truncate ``::1`` at its last colon.
    client_host: str = ""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics (``Connection: close`` opts out)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object (400 ``bad_request`` otherwise)."""
        if not self.body:
            raise ApiError(400, "bad_request", "request body is empty")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ApiError(400, "bad_request",
                           f"request body is not valid JSON: {error}") \
                from None
        if not isinstance(payload, dict):
            raise ApiError(400, "bad_request",
                           f"request body must be a JSON object, got "
                           f"{type(payload).__name__}")
        return payload


def parse_head(head: bytes, client: str = "",
               client_host: str = "") -> HttpRequest:
    """Parse the request line + headers (everything before the body).

    ``head`` is the byte block up to and including the blank line.
    Raises :class:`ProtocolError` on malformed framing — the server
    answers those with a plain 400 and closes the connection.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 total
        raise ProtocolError("request head is not decodable") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    path, _, raw_query = target.partition("?")
    query: Dict[str, str] = {}
    if raw_query:
        for pair in raw_query.split("&"):
            name, _, value = pair.partition("=")
            if name:
                query[name] = value
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(method=method.upper(), path=path, query=query,
                       headers=headers, client=client,
                       client_host=client_host)


# -- request body validation --------------------------------------------------


def _reject_unknown(payload: Mapping[str, Any],
                    allowed: frozenset) -> None:
    for name in payload:
        if name not in allowed:
            raise ApiError(400, "bad_request",
                           f"unknown request field {name!r}",
                           field=str(name))


def _coerce_keywords(value: Any, field_name: str) -> List[str]:
    if isinstance(value, str):
        value = value.split()
    if not isinstance(value, list) \
            or not all(isinstance(item, str) for item in value):
        raise ApiError(400, "invalid_query",
                       f"{field_name} must be a list of strings or a "
                       f"whitespace-separated string", field=field_name)
    if not value:
        raise ApiError(400, "invalid_query",
                       f"{field_name} must not be empty",
                       field=field_name)
    return value


def _coerce_int(payload: Mapping[str, Any], name: str,
                default: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(400, "invalid_query",
                       f"{name} must be an integer, got "
                       f"{type(value).__name__}", field=name)
    return value


def _coerce_choice(payload: Mapping[str, Any], name: str,
                   default: str, allowed: frozenset) -> str:
    value = payload.get(name, default)
    if not isinstance(value, str) or value.lower() not in allowed:
        raise ApiError(400, "invalid_query",
                       f"{name} must be one of "
                       f"{sorted(allowed)}, got {value!r}", field=name)
    return value.lower()


def _coerce_deadline(payload: Mapping[str, Any]) -> Optional[float]:
    value = payload.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) \
            or not isinstance(value, (int, float)) or value <= 0:
        raise ApiError(400, "invalid_query",
                       f"deadline_ms must be a positive number, got "
                       f"{value!r}", field="deadline_ms")
    return float(value)


@dataclass
class SearchRequest:
    """Validated ``POST /search`` parameters."""

    keywords: List[str]
    k: int = 10
    algorithm: str = Algorithm.EAGER.value
    semantics: str = "slca"
    deadline_ms: Optional[float] = None
    spans: bool = False


@dataclass
class BatchRequest:
    """Validated ``POST /batch`` parameters."""

    queries: List[List[str]]
    k: int = 10
    algorithm: str = Algorithm.EAGER.value
    semantics: str = "slca"
    deadline_ms: Optional[float] = None
    executor: str = DEFAULT_EXECUTOR
    workers: Optional[int] = None


def parse_search_request(payload: Mapping[str, Any]) -> SearchRequest:
    """Validate a ``POST /search`` JSON body (strict: unknown fields
    are a 400, so a typo'd ``deadlin_ms`` cannot silently noop)."""
    _reject_unknown(payload, _SEARCH_FIELDS)
    if "keywords" not in payload:
        raise ApiError(400, "invalid_query",
                       "keywords is required", field="keywords")
    spans = payload.get("spans", False)
    if not isinstance(spans, bool):
        raise ApiError(400, "invalid_query",
                       "spans must be a boolean", field="spans")
    return SearchRequest(
        keywords=_coerce_keywords(payload["keywords"], "keywords"),
        k=_coerce_int(payload, "k", 10),
        algorithm=_coerce_choice(payload, "algorithm",
                                 Algorithm.EAGER.value, _ALGORITHMS),
        semantics=_coerce_choice(payload, "semantics", "slca",
                                 _SEMANTICS),
        deadline_ms=_coerce_deadline(payload),
        spans=spans)


def parse_batch_request(payload: Mapping[str, Any]) -> BatchRequest:
    """Validate a ``POST /batch`` JSON body (same strictness)."""
    _reject_unknown(payload, _BATCH_FIELDS)
    raw = payload.get("queries")
    if not isinstance(raw, list) or not raw:
        raise ApiError(400, "invalid_query",
                       "queries must be a non-empty list",
                       field="queries")
    queries = [_coerce_keywords(query, "queries") for query in raw]
    workers = payload.get("workers")
    if workers is not None:
        workers = _coerce_int(payload, "workers", 0)
        if workers <= 0:
            raise ApiError(400, "invalid_query",
                           f"workers must be positive, got {workers}",
                           field="workers")
    return BatchRequest(
        queries=queries,
        k=_coerce_int(payload, "k", 10),
        algorithm=_coerce_choice(payload, "algorithm",
                                 Algorithm.EAGER.value, _ALGORITHMS),
        semantics=_coerce_choice(payload, "semantics", "slca",
                                 _SEMANTICS),
        deadline_ms=_coerce_deadline(payload),
        executor=_coerce_choice(payload, "executor", DEFAULT_EXECUTOR,
                                _EXECUTORS),
        workers=workers)


def classify_query_error(error: QueryError) -> Optional[str]:
    """Attribute a :class:`QueryError` to the request field it faults.

    ``validated_terms`` raises for ``k <= 0``, duplicate keywords,
    ELCA under EagerTopK and unindexable keywords.  The mapping keys
    off stable words of those messages.
    """
    message = str(error)
    if message.startswith("k must be"):
        return "k"
    if "ELCA" in message or "semantics" in message:
        return "semantics"
    if "keyword" in message or "query" in message:
        return "keywords"
    return None


def query_error_to_api(error: QueryError) -> ApiError:
    """The 400 ``invalid_query`` response for a query-layer rejection."""
    return ApiError(400, "invalid_query", str(error),
                    field=classify_query_error(error))


# -- response rendering -------------------------------------------------------


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: Optional[Mapping[str, str]] = None
                    ) -> bytes:
    """Serialize one HTTP/1.1 response (head + body) to bytes."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(status: int, payload: Mapping[str, Any],
                  keep_alive: bool = True,
                  extra_headers: Optional[Mapping[str, str]] = None
                  ) -> bytes:
    """A JSON response (compact separators, sorted keys — stable)."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return render_response(status, body, keep_alive=keep_alive,
                           extra_headers=extra_headers)


def error_body(error: ApiError) -> Dict[str, Any]:
    """The structured error payload for one :class:`ApiError`."""
    return {"error": {"code": error.code, "message": str(error),
                      "field": error.field}}


def error_response(error: ApiError, keep_alive: bool = True) -> bytes:
    """Render an :class:`ApiError` (adds ``Retry-After`` when set)."""
    headers: Dict[str, str] = {}
    if error.retry_after is not None:
        # Retry-After is delta-seconds; round up so a client sleeping
        # exactly that long is never early.
        headers["Retry-After"] = str(max(1, int(error.retry_after + 0.999)))
    return json_response(error.status, error_body(error),
                         keep_alive=keep_alive, extra_headers=headers)


def outcome_payload(outcome: Any, elapsed_ms: Optional[float] = None,
                    spans: Optional[List[Dict[str, Any]]] = None
                    ) -> Dict[str, Any]:
    """One outcome as a JSON object: a ``POST /batch`` member, and the
    reference :func:`search_body` must encode byte for byte.

    Probabilities serialize through ``json`` (shortest-exact ``repr``
    floats), so the wire round-trip is bit-identical to the in-process
    answer — the acceptance contract of the serving PR.  ``elapsed_ms``
    is omitted for batch member outcomes (the batch carries one total).
    """
    payload: Dict[str, Any] = {
        "results": [{"code": str(result.code),
                     "label": result.label,
                     "probability": result.probability}
                    for result in outcome.results],
        "partial": outcome.partial,
        "termination_reason": outcome.termination_reason,
        "service_state": outcome.stats.get("service_state"),
    }
    # A corpus-level outcome carries its scatter/prune accounting;
    # exposing it keeps shard pruning observable over the wire.
    if "corpus" in outcome.stats:
        payload["corpus"] = outcome.stats["corpus"]
    if elapsed_ms is not None:
        payload["elapsed_ms"] = round(elapsed_ms, 3)
    if spans is not None:
        payload["spans"] = spans
    return payload


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(value: Any) -> bytes:
    return _COMPACT.encode(value).encode("ascii")


def search_body(outcome: Any, elapsed_ms: Optional[float] = None,
                trace_id: Optional[str] = None,
                spans: Optional[List[Dict[str, Any]]] = None,
                encoded: Optional[EncodedAnswer] = None) -> bytes:
    """The ``POST /search`` response body: the bytes of
    ``json.dumps`` of :func:`outcome_payload` (plus ``trace_id``) with
    sorted keys and compact separators.

    The fields the outcome fixes come from ``encoded`` — the result
    cache's :class:`~repro.core.result.EncodedAnswer` of a replayed
    answer — or are encoded here; the per-request fields (``corpus``,
    ``elapsed_ms``, ``spans``, ``trace_id``) are spliced in at their
    sorted-key positions.  ``None`` omits a per-request field.
    """
    if encoded is None:
        encoded = encode_answer(outcome)
    parts = [b"{"]
    if "corpus" in outcome.stats:
        parts += [b'"corpus":', _dumps(outcome.stats["corpus"]), b","]
    if elapsed_ms is not None:
        parts.append(b'"elapsed_ms":%r,' % round(elapsed_ms, 3))
    parts.append(encoded.head)
    if spans is not None:
        parts += [b',"spans":', _dumps(spans)]
    parts += [b",", encoded.tail]
    if trace_id is not None:
        parts += [b',"trace_id":', _json_string(trace_id).encode("ascii")]
    parts.append(b"}")
    return b"".join(parts)
