"""End-to-end spans: the causal skeleton of a query's execution.

A *span* is one named, timed step of work — ``batch``, ``chunk``,
``query``, ``prstack.scan`` — with a parent pointer, so the spans of
one batch reconstruct the full lifecycle of every query as a tree:
which chunk it ran in, which retry tier answered it, which engine
phases the time went to.  Three properties distinguish this module
from ad-hoc tracing:

* **Deterministic ids.**  Span ids are structural (``s0``, ``s0.2``,
  ``s0.2.w.0`` — each child numbered under its parent), and trace ids
  are content-derived (:func:`derive_trace_id` hashes the workload
  description).  Two runs of the same seeded workload produce the same
  ids, which makes span trees diffable in tests and across processes.
* **Cross-process propagation.**  A :class:`SpanTracer` can be told to
  hang its root under a foreign span id (``root_parent``/``root_id``),
  so a process-pool worker records spans that already point at the
  coordinator's chunk span; the coordinator absorbs the serialized
  spans with :meth:`SpanTracer.adopt`, shifting the worker's private
  clock onto its own.
* **Null-object default.**  :data:`NULL_TRACER` costs one attribute
  load per hook point; the engines never know whether spans are on.
  A :class:`NullTracer` may still carry a ``trace_id``, so an untraced
  request keeps its id without paying for a span tree.

The bridge into the engines is :class:`repro.obs.metrics
.MetricsCollector`: when a collector carries a tracer, every
``collector.time(name)`` block becomes a span under the current one —
so ``index.lookup``, ``prstack.scan``, ``eager.seed``/``eager.climb``,
``storage.load`` and friends appear in the tree without any engine
signature changes — and every ``collector.event(name, **fields)``
becomes a zero-duration span (:meth:`SpanTracer.instant`) carrying the
fields as attributes.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Union

from repro.exceptions import ReproError

#: Cap on spans one tracer retains; beyond it spans are counted in
#: ``dropped`` and discarded, so truncation is never silent.
DEFAULT_MAX_SPANS = 50_000

#: Span status values (``ok`` is implied and not serialized).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_PARTIAL = "partial"


def derive_trace_id(*parts: object) -> str:
    """A 16-hex-digit trace id derived from the workload description.

    Hash-derived rather than random so that a seeded, fault-injected
    run reproduces the *same* trace id every time (the property the
    span-determinism tests pin down).
    """
    material = "\x1f".join(str(part) for part in parts)
    return hashlib.blake2b(material.encode("utf-8"),
                           digest_size=8).hexdigest()


class Span:
    """One timed, named step of work in a trace tree.

    ``start_ms`` is relative to the owning tracer's epoch (its
    construction time); a worker-side span is shifted onto the
    coordinator's clock when adopted.  ``attrs`` values must be
    JSON-representable scalars.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start_ms", "duration_ms", "status", "attrs",
                 "_children", "_started")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, start_ms: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.status = STATUS_OK
        self.attrs: Dict[str, object] = {}
        self._children = 0
        self._started: Optional[float] = None

    def annotate(self, **attrs: object) -> "Span":
        """Attach attributes (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def bump(self, key: str, value: Union[int, float] = 1) -> None:
        """Increment a numeric attribute (created at 0) — the span-
        local form of a counter, used for per-span cache accounting."""
        current = self.attrs.get(key, 0)
        self.attrs[key] = (current if isinstance(current, (int, float))
                           else 0) + value

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (the span export format)."""
        record: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start_ms, 6),
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.status != STATUS_OK:
            record["status"] = self.status
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        """Rebuild a span from its exported dict (adopt path)."""
        span = cls(str(record["trace_id"]), str(record["span_id"]),
                   record.get("parent_id"),  # type: ignore[arg-type]
                   str(record["name"]), float(record["start_ms"]))
        span.duration_ms = float(record.get("duration_ms", 0.0))
        span.status = str(record.get("status", STATUS_OK))
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            span.attrs = dict(attrs)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.span_id}, {self.name!r}, "
                f"parent={self.parent_id})")


class SpanTracer:
    """Records one trace (typically: one batch) worth of spans.

    Args:
        trace_id: the trace every span belongs to; derive it from the
            workload with :func:`derive_trace_id` for deterministic
            ids, or leave the default for ad-hoc tracing.
        root_id: id the *first* root-level span gets (further
            root-level spans append ``.r<n>``).  A worker tracer is
            constructed with the coordinator-assigned id here so its
            span ids never collide with another worker's.
        root_parent: parent id pre-assigned to root-level spans — the
            cross-process propagation hook: the coordinator passes its
            chunk span's id, and the worker's spans come back already
            pointing at it.
        recorder: a :class:`repro.obs.recorder.FlightRecorder`; every
            finished span is also appended to its ring buffer.
        max_spans: retention cap (excess spans are counted, dropped).

    Thread-safe: the current-span context is tracked per thread, so
    chunk workers on a thread pool each nest their own spans correctly
    while sharing one tracer.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None,
                 root_id: str = "s0",
                 root_parent: Optional[str] = None,
                 recorder=None,
                 max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, "
                             f"got {max_spans}")
        self.trace_id = trace_id if trace_id is not None \
            else derive_trace_id("adhoc")
        self.root_id = root_id
        self.root_parent = root_parent
        self.recorder = recorder
        self.max_spans = max_spans
        self.finished: List[Span] = []
        self.dropped = 0
        self._roots = 0
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- current-span context -------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread (None outside)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    # -- span lifecycle -------------------------------------------------------

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: object) -> Span:
        """Open a span (explicit finish); ``parent`` defaults to the
        current span on this thread, else the tracer root level."""
        if parent is None:
            parent = self.current()
        with self._lock:
            if parent is not None:
                span_id = f"{parent.span_id}.{parent._children}"
                parent._children += 1
                parent_id: Optional[str] = parent.span_id
            else:
                span_id = self.root_id if self._roots == 0 \
                    else f"{self.root_id}.r{self._roots}"
                self._roots += 1
                parent_id = self.root_parent
        span = Span(self.trace_id, span_id, parent_id, name,
                    (time.perf_counter() - self._epoch) * 1000.0)
        span._started = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        return span

    def finish(self, span: Span, status: Optional[str] = None,
               **attrs: object) -> Span:
        """Close a span: fix its duration, file it, feed the recorder."""
        if span._started is not None:
            span.duration_ms = \
                (time.perf_counter() - span._started) * 1000.0
            span._started = None
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._file(span)
        if self.recorder is not None and self.recorder.enabled:
            self.recorder.record("span", span.name,
                                 span_id=span.span_id,
                                 parent_id=span.parent_id,
                                 duration_ms=round(span.duration_ms, 3),
                                 status=span.status)
        return span

    def instant(self, name: str, **attrs: object) -> Span:
        """File a zero-duration span under this thread's current span:
        an engine event (``eager.suspend``, ``heap.threshold`` …).

        Unlike :meth:`finish` it does not feed the flight recorder: one
        query can emit hundreds of events, which would rotate the span
        and resilience records out of the recorder's ring.
        """
        span = self.begin(name, **attrs)
        span._started = None
        self._file(span)
        return span

    def _file(self, span: Span) -> None:
        """Retain a finished span, or count it past the cap."""
        with self._lock:
            if len(self.finished) >= self.max_spans:
                self.dropped += 1
            else:
                self.finished.append(span)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object):
        """``with tracer.span("query", terms="k1 k2") as span: ...``

        The span becomes the thread's current span for the duration;
        an escaping exception marks it ``status="error"`` with the
        error type attached (and is re-raised).
        """
        span = self.begin(name, parent=parent, **attrs)
        self._push(span)
        try:
            yield span
        except BaseException as error:
            self.finish(span, status=STATUS_ERROR,
                        error=type(error).__name__)
            raise
        finally:
            self._pop(span)
            if span._started is not None:
                self.finish(span)

    # -- cross-process adoption ----------------------------------------------

    def adopt(self, records: Iterable[Dict[str, object]],
              parent: Optional[Span] = None,
              shift_ms: float = 0.0) -> int:
        """Absorb spans serialized by another process's tracer.

        Args:
            records: exported span dicts (:meth:`Span.as_dict` shape).
            parent: span to hang *orphan* records under (records whose
                ``parent_id`` is None — a worker tracer constructed
                with ``root_parent`` has none of those).
            shift_ms: added to every ``start_ms``, moving the worker's
                private clock onto this tracer's (pass the chunk
                span's ``start_ms``; residual skew is the pool's
                scheduling latency and is not corrected).

        Returns the number of spans adopted.
        """
        adopted = 0
        with self._lock:
            for record in records:
                if len(self.finished) >= self.max_spans:
                    self.dropped += 1
                    continue
                span = Span.from_dict(record)
                span.start_ms += shift_ms
                if span.parent_id is None and parent is not None:
                    span.parent_id = parent.span_id
                self.finished.append(span)
                adopted += 1
        return adopted

    # -- export ---------------------------------------------------------------

    def export(self) -> List[Dict[str, object]]:
        """Every finished span as a dict, in ``start_ms`` order (ties
        broken by span id, so the order is deterministic)."""
        with self._lock:
            spans = list(self.finished)
        spans.sort(key=lambda span: (span.start_ms, span.span_id))
        return [span.as_dict() for span in spans]


class NullTracer:
    """The do-nothing tracer: the default on every execution path.

    ``trace_id`` names the request even though no span is recorded:
    the HTTP server hands each untraced request a ``NullTracer`` with
    its derived trace id, so the id still reaches the response and
    any boundary that reads ``tracer.trace_id``.
    """

    enabled = False
    recorder = None

    __slots__ = ("trace_id",)

    def __init__(self, trace_id: str = "") -> None:
        self.trace_id = trace_id

    def current(self) -> Optional[Span]:
        return None

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: object) -> None:
        return None

    def finish(self, span, status: Optional[str] = None,
               **attrs: object) -> None:
        return None

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object):
        yield None

    def adopt(self, records, parent=None, shift_ms: float = 0.0) -> int:
        return 0

    def export(self) -> List[Dict[str, object]]:
        return []


#: Shared no-op instance.
NULL_TRACER = NullTracer()

#: What span-aware signatures accept: a live tracer or the no-op.
TracerLike = Union[SpanTracer, NullTracer]


class SpanError(ReproError):
    """A span export does not conform to the documented shape."""


def validate_spans(spans: object) -> List[Dict[str, object]]:
    """Check an exported span list: shapes, one trace id, resolvable
    parents.  Returns the list (for chaining) or raises
    :class:`SpanError` naming the first violation — the machine-
    checkable contract the CI trace smoke runs against a fresh dump.

    A ``parent_id`` may be absent from the list only at the roots
    (None): every non-None parent must name another span in the dump,
    otherwise the tree cannot be reconstructed.
    """
    if not isinstance(spans, list):
        raise SpanError(f"span dump must be a list, "
                        f"got {type(spans).__name__}")
    ids = set()
    trace_ids = set()
    for position, record in enumerate(spans):
        if not isinstance(record, dict):
            raise SpanError(f"spans[{position}] must be an object")
        for key in ("trace_id", "span_id", "name"):
            if not isinstance(record.get(key), str) or not record[key]:
                raise SpanError(
                    f"spans[{position}].{key} must be a non-empty "
                    f"string")
        for key in ("start_ms", "duration_ms"):
            value = record.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise SpanError(
                    f"spans[{position}].{key} must be a number")
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            raise SpanError(
                f"spans[{position}].parent_id must be a string or "
                f"null")
        if record["span_id"] in ids:
            raise SpanError(
                f"duplicate span id {record['span_id']!r}")
        ids.add(record["span_id"])
        trace_ids.add(record["trace_id"])
    if len(trace_ids) > 1:
        raise SpanError(f"span dump mixes {len(trace_ids)} trace ids: "
                        f"{sorted(trace_ids)}")
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None and parent not in ids:
            raise SpanError(
                f"span {record['span_id']!r} has unresolvable parent "
                f"{parent!r}")
    return spans  # type: ignore[return-value]


def load_spans(path: str) -> List[Dict[str, object]]:
    """Read a ``spans.jsonl`` dump (one span object per line)."""
    spans: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as source:
            for number, line in enumerate(source, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(json.loads(line))
                except json.JSONDecodeError as error:
                    raise SpanError(f"{path}:{number}: not JSON: "
                                    f"{error}") from error
    except OSError as error:
        raise SpanError(f"cannot read span dump {path}: "
                        f"{error}") from error
    return spans


def write_spans(spans: List[Dict[str, object]], path: str) -> None:
    """Write a span list as JSON lines (the ``spans.jsonl`` format)."""
    try:
        with open(path, "w", encoding="utf-8") as sink:
            for span in spans:
                json.dump(span, sink, ensure_ascii=False)
                sink.write("\n")
    except OSError as error:
        raise SpanError(f"cannot write span dump {path}: "
                        f"{error}") from error


def render_span_tree(spans: List[Dict[str, object]],
                     limit: int = 200) -> List[str]:
    """Human-readable tree lines for a span dump (``repro trace``).

    Children are indented under their parent, siblings ordered by
    start time; at most ``limit`` spans are shown, with elision
    reported so truncation is never silent.
    """
    if not spans:
        return ["  (no spans recorded)"]
    by_parent: Dict[Optional[str], List[Dict[str, object]]] = {}
    ids = {record["span_id"] for record in spans}
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None and parent not in ids:
            parent = None  # orphan (partial dump): show at root level
        by_parent.setdefault(parent, []).append(record)
    for children in by_parent.values():
        children.sort(key=lambda r: (r.get("start_ms", 0.0),
                                     r["span_id"]))

    lines: List[str] = []
    shown = 0

    def walk(parent: Optional[str], depth: int) -> None:
        nonlocal shown
        for record in by_parent.get(parent, ()):
            if shown >= limit:
                return
            shown += 1
            indent = "  " * depth
            status = record.get("status", STATUS_OK)
            marker = "" if status == STATUS_OK else f" [{status}]"
            attrs = record.get("attrs") or {}
            detail = " ".join(f"{key}={value}" for key, value
                              in sorted(attrs.items()))
            lines.append(
                f"  {record.get('start_ms', 0.0):9.3f} ms "
                f"{record.get('duration_ms', 0.0):9.3f} ms  "
                f"{indent}{record['name']}{marker}"
                + (f"  {detail}" if detail else ""))
            walk(record["span_id"], depth + 1)  # type: ignore[arg-type]

    walk(None, 0)
    hidden = len(spans) - shown
    if hidden > 0:
        lines.append(f"  ... {hidden} more span(s) not shown")
    return lines
