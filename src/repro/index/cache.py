"""Reusable per-document query caches.

Every ``topk_search`` against the same prepared index repeats the same
front-of-query work: merging per-term postings into masked match
columns.  It depends only on the document and the normalised term set,
never on ``k``, the algorithm or the collector — so a service holding
one index can reuse it across queries.  (Per-node path probabilities
need no cache: they are a column of the encoded document.)

This module provides the cache plumbing the search stack threads
through (mirroring the ``NULL_COLLECTOR`` / ``NULL_SANITIZER``
null-object idiom):

* :class:`LRUCache` — a thread-safe bounded map with hit / miss /
  eviction counters, reported both locally (:meth:`LRUCache.stats`)
  and through a :class:`repro.obs.MetricsCollector` under
  ``service.cache.<name>.*``;
* :class:`QueryCaches` — the bundle the algorithms consume: a match
  -column cache keyed by the normalised term tuple;
* :data:`NULL_CACHES` — the do-nothing default; an uncached query pays
  one attribute load per hook point, exactly like the null collector.

Cached values are shared between queries and must be treated as
immutable by consumers; the scan machinery already does (a
:class:`repro.index.matchlist.MatchList` keeps its consumption flags
in a private bytearray, never in the shared columns).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Union

from repro.analysis.concurrency.witness import (InstrumentedLock,
                                                NULL_WITNESS, WitnessLike)
from repro.obs.metrics import Collector, NULL_COLLECTOR

#: Default number of distinct term sets a cache retains.
DEFAULT_CACHE_SIZE = 256


class LRUCache:
    """Bounded least-recently-used map with observable counters.

    ``get``/``put`` are guarded by a lock so a service can share one
    cache across a thread pool.  Counters accumulate locally and, when
    ``collector.enabled``, as ``service.cache.<name>.hits`` /
    ``.misses`` / ``.evictions``.
    """

    __slots__ = ("name", "capacity", "collector", "hits", "misses",
                 "evictions", "_data", "_lock", "_witness", "_lock_name")

    def __init__(self, name: str, capacity: int = DEFAULT_CACHE_SIZE,
                 collector: Collector = NULL_COLLECTOR,
                 witness: WitnessLike = NULL_WITNESS):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, "
                             f"got {capacity}")
        self.name = name
        self.capacity = capacity
        self.collector = collector
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._witness = witness
        self._lock_name = f"LRUCache._lock:{name}"
        # With a witness attached the lock is the instrumented wrapper
        # and every _data touch asserts the lock is held; the default
        # is a plain lock and one enabled-attribute load per method.
        if witness.enabled:
            self._lock: Any = InstrumentedLock(self._lock_name, witness)
        else:
            self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed as most recent), or ``None``."""
        with self._lock:
            if self._witness.enabled:
                self._witness.assert_holding(
                    self._lock_name, f"LRUCache[{self.name}]._data")
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                if self.collector.enabled:
                    self.collector.count(
                        f"service.cache.{self.name}.misses")
                    self.collector.mark(
                        f"cache.{self.name}.misses")
                return None
            self._data.move_to_end(key)
            self.hits += 1
            if self.collector.enabled:
                self.collector.count(f"service.cache.{self.name}.hits")
                self.collector.mark(f"cache.{self.name}.hits")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry on
        overflow.  ``None`` values are not cacheable — ``get`` uses
        ``None`` as its miss sentinel."""
        if value is None:
            raise ValueError("cannot cache None")
        with self._lock:
            if self._witness.enabled:
                self._witness.assert_holding(
                    self._lock_name, f"LRUCache[{self.name}]._data")
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                if self.collector.enabled:
                    self.collector.count(
                        f"service.cache.{self.name}.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        with self._lock:
            if self._witness.enabled:
                self._witness.assert_holding(
                    self._lock_name, f"LRUCache[{self.name}]._data")
            self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus the current occupancy.

        Reads under the lock: the hot path mutates the counters and
        the map together, and a stats row must not pair a pre-eviction
        size with a post-eviction counter (R008).
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._data),
                    "capacity": self.capacity}


class QueryCaches:
    """The prepared-input caches one service shares across queries.

    Attributes:
        match_entries: normalised term tuple -> the document-ordered
            ``(node ids, keyword masks)`` match columns of
            :func:`~repro.index.matchlist.build_match_entries` (the
            input both PrStack and EagerTopK scan).  EagerTopK's seed
            lookup reads the index's own postings and needs no cache.
    """

    enabled = True

    __slots__ = ("match_entries",)

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE,
                 collector: Collector = NULL_COLLECTOR,
                 witness: WitnessLike = NULL_WITNESS):
        self.match_entries = LRUCache("match_entries", capacity,
                                      collector, witness)

    def clear(self) -> None:
        """Drop all cached values (e.g. after swapping the index)."""
        self.match_entries.clear()

    def stats(self) -> Dict[str, object]:
        """Per-cache counters, the ``cache`` block of service reports."""
        return {"match_entries": self.match_entries.stats()}


class NullQueryCaches:
    """The do-nothing cache bundle: the default on every query path.

    Consumers guard on ``caches.enabled`` (a class attribute, like the
    null collector's) before touching any cache, so this object needs
    no methods at all.
    """

    enabled = False

    __slots__ = ()


#: Shared no-op instance; search signatures default their ``caches``
#: parameter to this.
NULL_CACHES = NullQueryCaches()

#: What search signatures accept: live caches or the no-op.
CachesLike = Union[QueryCaches, NullQueryCaches]
