"""Counters, timers and histograms behind a near-zero-overhead no-op.

The query engines accept a *collector* and report everything the
paper's experimental section talks about — candidates pruned per
property, stack frames pushed, distribution-table sizes, posting-list
lengths — through it.  Two implementations share the interface:

* :data:`NULL_COLLECTOR` (a :class:`NullCollector`): every method is a
  no-op ``pass``.  This is the default everywhere, so an uninstrumented
  query pays one attribute load + no-op call at each hook point and
  allocates nothing.
* :class:`MetricsCollector`: accumulates named counters, histograms and
  timers.

Hot loops may additionally guard on ``collector.enabled`` (a plain
class attribute) to skip argument construction entirely, and on
``collector.tracer is not None`` before formatting event fields.

Two cross-cutting seams ride on the collector so the engines never
need new parameters:

* **Spans.**  A collector constructed with a
  :class:`~repro.obs.spans.SpanTracer` turns every ``collector.time``
  block into a span under the caller's current span — the existing
  timer hook points (``index.lookup``, ``prstack.scan``,
  ``eager.climb``, ``storage.load`` …) *are* the span tree's leaves.
  :meth:`MetricsCollector.mark` additionally annotates the current
  span (cache hits, entry counts) without allocating when no span is
  open, and :meth:`MetricsCollector.event` files an engine event
  (``eager.prune_path``, ``heap.threshold`` …) as a zero-duration
  span under it.
* **Merging.**  :meth:`MetricsCollector.merge` /
  :meth:`~MetricsCollector.merge_snapshot` fold another collector (or
  its serialized snapshot, e.g. shipped back from a process worker)
  into this one — counters add, histogram/timer summaries combine via
  :meth:`Histogram.absorb` — which is how ``repro batch`` produces one
  merged ``repro.metrics/v2`` report instead of coordinator-only
  numbers.

:class:`Stopwatch` is the library's single wall-clock primitive; the
CLI and the benchmark harness both time through it rather than calling
``time.perf_counter()`` ad hoc.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from typing import Dict, List, Mapping, Optional, Sequence, Union


class Histogram:
    """Streaming summary statistics of observed values.

    Keeps count / sum / min / max plus a bounded, deterministically
    thinned sample reservoir: when the reservoir fills, every other
    retained sample is dropped and the retention stride doubles, so
    memory stays constant while :meth:`percentile` keeps answering
    from an evenly spaced subsample of the whole stream.  The
    reservoir is a packed ``array("d")``: 8 bytes a sample instead of
    a list slot plus a float object, about 32 KB per full histogram.
    A histogram shared across threads (one owned by a
    :class:`MetricsCollector`) is mutated and read only under the
    collector's ``_lock``; use the collector's
    :meth:`MetricsCollector.percentile` accessor rather than reaching
    for the histogram directly.
    """

    #: Reservoir capacity; reaching it halves the samples and doubles
    #: the stride (retention stays deterministic — no RNG).
    MAX_SAMPLES = 4096

    __slots__ = ("count", "total", "minimum", "maximum", "_samples",
                 "_stride", "_tick")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples = array("d")
        self._stride = 1
        self._tick = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._tick += 1
        if self._tick >= self._stride:
            self._tick = 0
            self._samples.append(value)
            if len(self._samples) >= self.MAX_SAMPLES:
                del self._samples[::2]
                self._stride *= 2

    def observe_many(self, values: Sequence[float]) -> None:
        """Feed a run of values, leaving exactly the state that one
        :meth:`observe` per value, in order, would leave — the same
        count, sum (added left to right), extremes and retained
        samples.  Values must be finite."""
        if len(values) <= 1:
            # The per-request serve layers fold one value each.
            if values:
                self.observe(values[0])
            return
        self.count += len(values)
        total = self.total
        for value in values:
            total += value
        self.total = total
        low, high = min(values), max(values)
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high
        samples = self._samples
        stride, tick = self._stride, self._tick
        index, end = 0, len(values)
        while index < end:
            if stride == 1:
                # Every value is retained until the reservoir fills.
                taken = min(self.MAX_SAMPLES - len(samples), end - index)
                samples.extend(values[index:index + taken])
                index += taken
            else:
                retained = index + stride - 1 - tick
                if retained >= end:
                    tick += end - index
                    break
                samples.append(values[retained])
                tick = 0
                index = retained + 1
            if len(samples) >= self.MAX_SAMPLES:
                del samples[::2]
                stride *= 2
        self._stride, self._tick = stride, tick

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in ``[0, 1]``) of the retained
        samples, linearly interpolated between neighbours.

        Exact until the reservoir first fills (:data:`MAX_SAMPLES`
        observations), an evenly strided estimate after.  Returns 0.0
        when nothing was observed, mirroring :attr:`mean`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be within [0, 1], "
                             f"got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = q * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) \
            * (rank - low)

    def quantiles(self, qs: "tuple" = (0.5, 0.99), scale: float = 1.0,
                  digits: int = 6) -> Dict[str, float]:
        """Several percentiles at once, keyed by the quantile rendered
        as a short string (``{"0.5": ..., "0.99": ...}``); ``scale``
        converts units like :meth:`snapshot` does."""
        return {_quantile_key(q): round(self.percentile(q) * scale,
                                        digits)
                for q in qs}

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self, scale: float = 1.0, digits: int = 6
                 ) -> Dict[str, float]:
        """Plain-dict summary; ``scale`` converts units (e.g. s -> ms)."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count,
                "sum": round(self.total * scale, digits),
                "min": round(self.minimum * scale, digits),
                "max": round(self.maximum * scale, digits),
                "mean": round(self.mean * scale, digits)}

    def absorb(self, count: int, total: float, minimum: float,
               maximum: float,
               samples: "Optional[Sequence[float]]" = None) -> None:
        """Fold another histogram's summary into this one.

        The combining step behind cross-process merging: count/sum
        add, min/max extend, and (when the source is in-process and
        can hand them over) retained samples pool into this reservoir
        so merged percentiles stay meaningful.  A zero-count summary
        is a no-op so absorbing an empty snapshot cannot corrupt
        min/max.
        """
        if count <= 0:
            return
        self.count += count
        self.total += total
        if minimum < self.minimum:
            self.minimum = minimum
        if maximum > self.maximum:
            self.maximum = maximum
        if samples:
            self._samples.extend(samples)
            while len(self._samples) >= self.MAX_SAMPLES:
                del self._samples[::2]
                self._stride *= 2


def _quantile_key(q: float) -> str:
    """``0.5 -> "0.5"`` — a stable short label for report keys and the
    Prometheus ``quantile`` label."""
    text = repr(float(q))
    return text[:-2] if text.endswith(".0") else text


class Stopwatch:
    """The one wall-clock primitive (context manager or start/stop).

    ``elapsed`` is seconds; ``elapsed_ms`` the conventional report unit.
    While running, both read the live clock, so a stopwatch can be
    polled mid-flight.
    """

    __slots__ = ("_started", "_elapsed")

    def __init__(self):
        self._started: Optional[float] = None
        self._elapsed = 0.0

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """Freeze and return the elapsed seconds."""
        if self._started is not None:
            self._elapsed += time.perf_counter() - self._started
            self._started = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Elapsed seconds (live while running)."""
        if self._started is not None:
            return self._elapsed + time.perf_counter() - self._started
        return self._elapsed

    @property
    def elapsed_ms(self) -> float:
        """Elapsed milliseconds (live while running)."""
        return self.elapsed * 1000.0

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class _Timed:
    """Context manager feeding one timing observation into a collector."""

    __slots__ = ("_collector", "_name", "_started")

    def __init__(self, collector: "Union[MetricsCollector, MetricsBuffer]",
                 name: str):
        self._collector = collector
        self._name = name

    def __enter__(self) -> "_Timed":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._collector.observe_time(
            self._name, time.perf_counter() - self._started)


class _TimedSpan:
    """A :class:`_Timed` that also opens a span for the same interval.

    This is the timer→span bridge: when the collector carries a
    tracer, every ``collector.time(name)`` block in the engines and
    the storage layer becomes both a timer observation *and* a span
    named ``name`` under the caller's current span.
    """

    __slots__ = ("_collector", "_name", "_started", "_ctx")

    def __init__(self, collector: "Union[MetricsCollector, MetricsBuffer]",
                 name: str):
        self._collector = collector
        self._name = name

    def __enter__(self) -> "_TimedSpan":
        self._ctx = self._collector.tracer.span(self._name)
        self._ctx.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector.observe_time(
            self._name, time.perf_counter() - self._started)
        self._ctx.__exit__(exc_type, exc, tb)


class _NullTimed:
    """Reusable do-nothing context manager for the no-op collector."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimed":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMED = _NullTimed()


class NullCollector:
    """The do-nothing collector: the default on every query path.

    All methods accept the full instrumentation vocabulary and discard
    it.  ``enabled`` is False so hot loops can skip argument
    construction; ``tracer`` is None so event fields are never
    formatted.
    """

    enabled = False
    tracer = None

    __slots__ = ()

    def count(self, name: str, value: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observe_many(self, samples: Mapping[str, Sequence[float]],
                     counts: Optional[Mapping[str, int]] = None,
                     timers: Optional[Mapping[str, Sequence[float]]]
                     = None) -> None:
        pass

    def observe_time(self, name: str, seconds: float) -> None:
        pass

    def fold(self, buffers: Sequence["MetricsBuffer"]) -> None:
        pass

    def time(self, name: str) -> _NullTimed:
        return _NULL_TIMED

    def event(self, name: str, **fields: object) -> None:
        pass

    def mark(self, key: str, value: float = 1) -> None:
        pass

    def merge(self, other: "MetricsCollector") -> None:
        pass

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict]:
        return {}


#: Shared no-op instance; engines default their ``collector`` to this.
NULL_COLLECTOR = NullCollector()

#: Staged histogram samples fold into the collector as soon as one
#: histogram's buffer reaches this size (and at the end of every run or
#: query), so a long run holds at most this many samples per histogram
#: plus one item's worth.
SAMPLE_BUFFER = 4096

#: What engine signatures accept: a recording collector or the no-op.
#: (A structural Protocol would be overkill — these two classes *are*
#: the interface, and the union keeps isinstance-free duck dispatch.)
Collector = Union["MetricsCollector", NullCollector]

#: What the stack engine's and the result heap's hooks accept: a
#: collector, or one query's :class:`MetricsBuffer` in front of one
#: (which records, but neither reads nor merges).
EngineMetrics = Union[Collector, "MetricsBuffer"]


class MetricsCollector:
    """Accumulates counters, histograms and timers for one query (or a
    batch of queries — nothing resets automatically).

    Args:
        tracer: a :class:`repro.obs.spans.SpanTracer`; when set, every
            ``time(name)`` block is also recorded as a span (see
            :class:`_TimedSpan`), :meth:`mark` annotates the current
            span and :meth:`event` files engine events as spans.
    """

    enabled = True

    __slots__ = ("counters", "histograms", "timers", "tracer", "_lock")

    def __init__(self, tracer=None):
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Histogram] = {}
        self.tracer = tracer if tracer is not None \
            and getattr(tracer, "enabled", False) else None
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    #
    # One collector is shared by the coordinator and its thread-tier
    # workers (and by `_ResilienceTracker`), so every mutation takes
    # the lock: `d[k] = d.get(k, 0) + v` is two bytecodes apart and
    # loses updates under a thread switch (R008).  The null collector
    # keeps the zero-cost path; an *attached* collector pays one
    # uncontended lock per hook.

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Feed one value into the histogram ``name``."""
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def observe_many(self, samples: Mapping[str, Sequence[float]],
                     counts: Optional[Mapping[str, int]] = None,
                     timers: Optional[Mapping[str, Sequence[float]]]
                     = None) -> None:
        """Fold a batch of histogram samples, counter increments and
        timer durations (seconds) in under one lock acquisition — how
        a stack engine reports a whole run, and how a corpus query
        reports all its shard visits.  The result equals one
        :meth:`observe` per sample, in order, one :meth:`count` per
        counter and one :meth:`observe_time` per duration; an empty
        sample run creates no histogram."""
        with self._lock:
            self._fold_locked(samples, counts, timers)

    def fold(self, buffers: Sequence["MetricsBuffer"]) -> None:
        """Fold several staged buffers in under one lock acquisition,
        in order — how a corpus query reports all its shard visits.
        The buffers are left as they were."""
        with self._lock:
            for buffer in buffers:
                self._fold_locked(buffer.samples, buffer.counters,
                                  buffer.timers)

    def _fold_locked(  # repro: holds[_lock]
            self, samples: Mapping[str, Sequence[float]],
            counts: Optional[Mapping[str, int]],
            timers: Optional[Mapping[str, Sequence[float]]]) -> None:
        """:meth:`observe_many`'s body; the caller holds the lock."""
        if counts:
            counters = self.counters
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value
        for block, staged in ((self.histograms, samples),
                              (self.timers, timers or {})):
            for name, values in staged.items():
                if not values:
                    continue
                histogram = block.get(name)
                if histogram is None:
                    histogram = block[name] = Histogram()
                histogram.observe_many(values)

    def observe_time(self, name: str, seconds: float) -> None:
        """Feed one duration (seconds) into the timer ``name``."""
        with self._lock:
            timer = self.timers.get(name)
            if timer is None:
                timer = self.timers[name] = Histogram()
            timer.observe(seconds)

    def time(self, name: str) -> Union[_Timed, _TimedSpan]:
        """``with collector.time("index.lookup"): ...``

        With a tracer attached, the block is also a span (the
        timer→span bridge that gives the engines span coverage with
        no signature changes).
        """
        if self.tracer is not None:
            return _TimedSpan(self, name)
        return _Timed(self, name)

    def event(self, name: str, **fields: object) -> None:
        """File an engine event as a zero-duration span under the
        thread's current span, ``fields`` as its attributes (a no-op
        without a tracer)."""
        if self.tracer is not None:
            self.tracer.instant(name, **fields)

    def mark(self, key: str, value: float = 1) -> None:
        """Bump a numeric attribute on the tracer's current span.

        A no-op without a tracer (or outside any span), so call sites
        like the cache-hit path stay one attribute load when spans are
        off.
        """
        if self.tracer is not None:
            span = self.tracer.current()
            if span is not None:
                span.bump(key, value)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's accumulations into this one."""
        with self._lock:
            for name, value in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for target, source in ((self.histograms, other.histograms),
                                   (self.timers, other.timers)):
                for name, histogram in source.items():
                    mine = target.get(name)
                    if mine is None:
                        mine = target[name] = Histogram()
                    mine.absorb(histogram.count, histogram.total,
                                histogram.minimum, histogram.maximum,
                                samples=histogram._samples)

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a serialized :meth:`snapshot` into this collector.

        This is the cross-process path: a worker ships its snapshot
        back with the result rows and the coordinator absorbs it here.
        Timer summaries arrive in milliseconds (the snapshot unit) and
        are scaled back to the seconds the live timers accumulate in.
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for block, target, scale in (
                    ("histograms", self.histograms, 1.0),
                    ("timers", self.timers, 1.0 / 1000.0)):
                for name, summary in snapshot.get(block, {}).items():
                    mine = target.get(name)
                    if mine is None:
                        mine = target[name] = Histogram()
                    mine.absorb(int(summary.get("count", 0)),
                                float(summary.get("sum", 0.0)) * scale,
                                float(summary.get("min", 0.0)) * scale,
                                float(summary.get("max", 0.0)) * scale)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self.counters.get(name, 0)

    def percentile(self, name: str, q: float,
                   kind: str = "timers") -> float:
        """The ``q``-quantile of the timer (seconds) or histogram
        ``name``, read under the collector lock — the one sanctioned
        way to get p50/p99 out of a live collector (R008: histogram
        internals are guarded by this ``_lock``).  0.0 when the metric
        was never observed.
        """
        if kind not in ("timers", "histograms"):
            raise ValueError(f"kind must be 'timers' or 'histograms', "
                             f"got {kind!r}")
        with self._lock:
            block = self.timers if kind == "timers" else self.histograms
            histogram = block.get(name)
            return histogram.percentile(q) if histogram is not None \
                else 0.0

    def quantile_snapshot(self, qs: "tuple" = (0.5, 0.9, 0.99)
                          ) -> Dict[str, Dict]:
        """Per-metric quantiles, shaped like :meth:`snapshot` (timers
        scaled to milliseconds) — the block
        :func:`repro.obs.export.quantile_lines` renders as
        ``{quantile="..."}``-labelled Prometheus samples."""
        with self._lock:
            return {
                "histograms": {name: histogram.quantiles(qs)
                               for name, histogram
                               in sorted(self.histograms.items())
                               if histogram.count},
                "timers": {name: timer.quantiles(qs, scale=1000.0)
                           for name, timer
                           in sorted(self.timers.items())
                           if timer.count},
            }

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict rendering: the ``metrics`` block of the report
        schema (timers in milliseconds; see docs/OBSERVABILITY.md)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "histograms": {name: histogram.snapshot()
                               for name, histogram
                               in sorted(self.histograms.items())},
                "timers": {name: timer.snapshot(scale=1000.0)
                           for name, timer
                           in sorted(self.timers.items())},
            }


class MetricsBuffer:
    """Counters, histogram samples and timer durations, staged without
    locks for one owner.

    Two owners stage a query this way:

    * EagerTopK runs its heap, its stack engines and its own hooks on a
      buffer in front of the collector it was given, and flushes it
      when the search ends;
    * a corpus shard visit runs its whole engine call on one, and the
      corpus folds every visit's buffer into its collector once per
      query (:mod:`repro.corpus.service`).

    Every ``count``, ``observe`` and timer is a plain dict or list
    update, and :meth:`flush` folds the lot in with one
    :meth:`MetricsCollector.observe_many`, which leaves exactly the
    state one ``count``/``observe``/``observe_time`` per call, in
    order, would.  A buffer also flushes as soon as one histogram's
    samples reach :data:`SAMPLE_BUFFER`.  Events and span marks go
    straight to ``tracer`` (by default the collector's), and with a
    tracer every :meth:`time` block is a span too, so a traced query's
    spans stay inline.
    """

    enabled = True

    __slots__ = ("collector", "tracer", "counters", "samples", "timers")

    def __init__(self, collector: "Union[Collector, MetricsBuffer]",
                 tracer=None):
        self.collector = collector
        self.tracer = tracer if tracer is not None else collector.tracer
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.timers: Dict[str, List[float]] = {}

    def count(self, name: str, value: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        samples = self.samples.get(name)
        if samples is None:
            samples = self.samples[name] = []
        samples.append(value)
        if len(samples) >= SAMPLE_BUFFER:
            self.flush()

    def observe_many(self, samples: Mapping[str, Sequence[float]],
                     counts: Optional[Mapping[str, int]] = None,
                     timers: Optional[Mapping[str, Sequence[float]]]
                     = None) -> None:
        if counts:
            counters = self.counters
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value
        full = False
        for staged, incoming in ((self.samples, samples),
                                 (self.timers, timers or {})):
            for name, values in incoming.items():
                if values:
                    mine = staged.get(name)
                    if mine is None:
                        mine = staged[name] = []
                    mine.extend(values)
                    full = full or len(mine) >= SAMPLE_BUFFER
        if full:
            self.flush()

    def observe_time(self, name: str, seconds: float) -> None:
        timers = self.timers.get(name)
        if timers is None:
            timers = self.timers[name] = []
        timers.append(seconds)

    def time(self, name: str) -> Union[_Timed, _TimedSpan]:
        """:meth:`MetricsCollector.time`, staged."""
        if self.tracer is not None:
            return _TimedSpan(self, name)
        return _Timed(self, name)

    def event(self, name: str, **fields: object) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **fields)

    def mark(self, key: str, value: float = 1) -> None:
        if self.tracer is not None:
            span = self.tracer.current()
            if span is not None:
                span.bump(key, value)

    def flush(self) -> None:
        """Fold everything staged into the collector and start over."""
        if self.counters or self.samples or self.timers:
            self.collector.observe_many(self.samples, self.counters,
                                        self.timers)
            self.counters = {}
            self.samples = {}
            self.timers = {}
