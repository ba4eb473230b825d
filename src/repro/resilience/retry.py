"""Retry pacing and the process-pool circuit breaker.

Two small policies keep the service's degradation chain
(docs/RESILIENCE.md) from making a bad situation worse:

* :class:`RetryPolicy` bounds how many recovery tiers a failed query
  may consume and paces them with capped exponential backoff, so a
  struggling backend is not immediately hammered with the exact
  workload that just failed;
* :class:`CircuitBreaker` stops the service from re-spawning a process
  pool that keeps dying: after ``threshold`` consecutive pool
  breakages it *opens* and the process tier is skipped outright
  (queries degrade immediately), until a ``cooldown_s`` quiet period
  lets one half-open trial through.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.exceptions import QueryError
from repro.obs.metrics import Stopwatch

#: Default number of recovery tiers a failed query may consume.
DEFAULT_MAX_RETRIES = 2

#: Default first-retry backoff in milliseconds.
DEFAULT_BACKOFF_MS = 25.0

#: Default consecutive pool breakages before the breaker opens.
DEFAULT_BREAKER_THRESHOLD = 2

#: Default open-state cooldown before a half-open trial, in seconds.
DEFAULT_BREAKER_COOLDOWN_S = 30.0


class RetryPolicy:
    """How often and how fast failed work is retried.

    Args:
        max_retries: recovery attempts per failed query (0 = fail
            straight to an error outcome).
        backoff_ms: first-attempt backoff; attempt ``n`` sleeps
            ``backoff_ms * multiplier**(n-1)``, capped at
            ``max_backoff_ms``.  0 disables sleeping (tests).
        multiplier: exponential growth factor between attempts.
        max_backoff_ms: upper bound on any one sleep.
    """

    __slots__ = ("max_retries", "backoff_ms", "multiplier",
                 "max_backoff_ms")

    def __init__(self, max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_ms: float = DEFAULT_BACKOFF_MS,
                 multiplier: float = 2.0,
                 max_backoff_ms: float = 1000.0):
        if max_retries < 0:
            raise QueryError(
                f"max_retries must be non-negative, got {max_retries}")
        if backoff_ms < 0:
            raise QueryError(
                f"backoff_ms must be non-negative, got {backoff_ms}")
        if multiplier < 1.0:
            raise QueryError(
                f"backoff multiplier must be >= 1, got {multiplier}")
        self.max_retries = max_retries
        self.backoff_ms = backoff_ms
        self.multiplier = multiplier
        self.max_backoff_ms = max_backoff_ms

    def delay_ms(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        if attempt <= 0 or self.backoff_ms == 0:
            return 0.0
        delay = self.backoff_ms * self.multiplier ** (attempt - 1)
        return min(delay, self.max_backoff_ms)

    def sleep(self, attempt: int) -> None:
        """Apply the backoff for retry ``attempt`` (no-op at 0 ms)."""
        delay = self.delay_ms(attempt)
        if delay > 0:
            time.sleep(delay / 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(max_retries={self.max_retries}, "
                f"backoff_ms={self.backoff_ms})")


class CircuitBreaker:
    """Consecutive-failure breaker guarding process-pool respawns.

    States follow the classic pattern:

    * **closed** — failures below ``threshold``; work flows normally.
    * **open** — ``threshold`` consecutive failures seen; ``allow()``
      is False until ``cooldown_s`` has passed since opening.
    * **half-open** — cooldown elapsed; ``allow()`` lets exactly the
      next attempt through, whose outcome closes or re-opens the
      breaker.

    The breaker never raises — the service consults ``allow()`` and
    routes around an open circuit (degrading to the serial tier), which
    is the graceful-degradation behaviour the north-star demands.
    """

    __slots__ = ("threshold", "cooldown_s", "failures", "opens",
                 "_open_watch", "_lock")

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S):
        if threshold <= 0:
            raise QueryError(
                f"breaker threshold must be positive, got {threshold}")
        if cooldown_s < 0:
            raise QueryError(
                f"breaker cooldown_s must be non-negative, "
                f"got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        # One breaker is shared by every batch the service runs, and
        # batches may run on different threads: all state transitions
        # happen under the lock (R008 — failures += 1 and the
        # open-at-threshold check are a classic lost-update /
        # check-then-act pair).
        self.failures = 0
        self.opens = 0
        self._open_watch: Optional[Stopwatch] = None
        self._lock = threading.Lock()

    def _state_locked(self) -> str:  # repro: holds[_lock]
        if self._open_watch is None:
            return "closed"
        if self._open_watch.elapsed >= self.cooldown_s:
            return "half-open"
        return "open"

    @property
    def state(self) -> str:
        """``closed``, ``open`` or ``half-open``."""
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """Whether the guarded operation may be attempted now."""
        return self.state != "open"

    def record_failure(self) -> None:
        """Count one pool breakage; open at ``threshold`` and restart
        the cooldown on every failure while open/half-open."""
        with self._lock:
            self.failures += 1
            if self.failures >= self.threshold:
                if self._open_watch is None:
                    self.opens += 1
                self._open_watch = Stopwatch().start()

    def record_success(self) -> None:
        """A healthy attempt closes the breaker and clears the count."""
        with self._lock:
            self.failures = 0
            self._open_watch = None

    def summary(self) -> Dict[str, object]:
        """JSON-safe state for ``resilience`` stats blocks."""
        with self._lock:
            return {"state": self._state_locked(),
                    "failures": self.failures,
                    "opens": self.opens, "threshold": self.threshold}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        block = self.summary()
        return (f"CircuitBreaker(state={block['state']!r}, "
                f"failures={block['failures']}/{self.threshold})")
