"""Deterministic fault injection for the resilient execution paths.

Production failure modes — a process worker segfaulting, one query
stalling, a corrupted index payload — are rare, non-deterministic and
impossible to unit-test directly.  This module makes them *orderable*:
a :class:`FaultInjector` carries a list of :class:`Fault` specs, each
naming a failure kind, an optional query-term match, a firing limit and
a seeded firing rate, and the service layer calls its hooks at exactly
the points the real failures would strike:

===============  ============================================  =======================
kind             where it strikes                              observable effect
===============  ============================================  =======================
worker_crash     process-pool worker, start of its chunk       ``os._exit(3)`` — the
                                                               pool breaks with
                                                               ``BrokenProcessPool``
slow_query       before a query runs (any executor)            ``time.sleep`` of
                                                               ``delay_ms``
query_error      before a query runs (any executor)            raises
                                                               :class:`InjectedFaultError`
corrupt_payload  the serialised document shipped to workers    payload garbled — the
                                                               worker's load fails,
                                                               counted as a crash
reload_corrupt   ``QueryService.reload``, before the new       raises
                 generation is verified and swapped in         :class:`InjectedFaultError`
                                                               — the reload is rejected,
                                                               the old generation keeps
                                                               serving (docs/STORAGE.md)
replica_down     a corpus replica visit                        raises
                 (:meth:`CorpusService` scatter)               :class:`InjectedFaultError`
                                                               — the visit fails over to
                                                               another replica
slow_replica     a corpus replica visit                        sleeps ``delay_ms``,
                                                               capped at the visit's
                                                               remaining deadline budget
                                                               (a real straggler is
                                                               abandoned at the
                                                               deadline) — hedging's
                                                               trigger
torn_replica     a corpus replica visit                        raises
                                                               :class:`StorageError`,
                                                               playing a replica whose
                                                               snapshot tore mid-read
clock_skew_ms    child-budget derivation for a replica visit   the visit budgets as if
                                                               ``delay_ms`` were already
                                                               spent (a worker clock
                                                               running ahead); budgets
                                                               only ever shrink
===============  ============================================  =======================

The replica kinds accept a ``target=`` option naming the shard
(``s0000``), the replica (``r1``) or both (``s0000/r1``); no target
matches every replica visit.

Injectors serialise to a compact spec string (:meth:`FaultInjector.spec`
/ :func:`parse_faults`) so process-pool workers can rebuild their own
copy; firing counts (``times=``) are therefore **per process** — a
``worker_crash:times=1`` crashes each worker's first matching chunk,
not one chunk globally.  The ``REPRO_FAULTS`` environment variable
(same grammar; ``REPRO_FAULTS_SEED`` seeds the rate RNG) activates
injection without code changes, which is how the CI fault smoke drives
the CLI.  :data:`NULL_FAULTS` is the do-nothing default.

Spec grammar (semicolon-separated clauses)::

    kind[:opt=value[,opt=value...]][;kind...]

    worker_crash:times=1
    slow_query:terms=xml+keyword,delay_ms=250
    query_error:terms=k9,times=2,message=index shard offline
    corrupt_payload;worker_crash:rate=0.5

See docs/RESILIENCE.md for the full fault matrix and how each kind is
expected to degrade.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import QueryError, StorageError

#: The recognised fault kinds, in documentation order.
FAULT_KINDS = ("worker_crash", "slow_query", "query_error",
               "corrupt_payload", "reload_corrupt", "replica_down",
               "slow_replica", "torn_replica", "clock_skew_ms")

#: The kinds struck at a corpus replica visit (honour ``target=``).
REPLICA_KINDS = ("replica_down", "slow_replica", "torn_replica",
                 "clock_skew_ms")

#: Environment variable holding a fault spec string (empty = no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable seeding the injector's rate RNG.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Exit status a crashed worker dies with (visible in pool diagnostics).
WORKER_CRASH_EXIT = 3


class InjectedFaultError(RuntimeError):
    """The error a ``query_error`` fault raises.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: an
    injected fault plays the role of an unexpected runtime failure, and
    the resilience machinery must treat it exactly like one.
    """


@dataclass(frozen=True)
class Fault:
    """One injectable failure.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        terms: fire only for queries (or, for ``worker_crash``, chunks)
            containing at least one of these normalised terms; ``None``
            matches everything.
        times: stop firing after this many strikes (``None`` =
            unlimited).  Counted per injector instance, i.e. per
            process on the worker side.
        rate: firing probability in ``[0, 1]``; draws come from the
            injector's seeded RNG, so a given seed yields one
            deterministic firing sequence.
        delay_ms: how long a ``slow_query`` / ``slow_replica`` (or a
            ``worker_crash``, before dying) sleeps; for
            ``clock_skew_ms``, the skew magnitude.
        message: the :class:`InjectedFaultError` text of a
            ``query_error`` / ``replica_down``.
        target: replica-kind scoping — the shard name, the replica
            name, or ``shard/replica``; ``None`` matches every visit.
    """

    kind: str
    terms: Optional[Tuple[str, ...]] = None
    times: Optional[int] = None
    rate: float = 1.0
    delay_ms: float = 0.0
    message: str = "injected fault"
    target: Optional[str] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            choices = ", ".join(FAULT_KINDS)
            raise QueryError(f"unknown fault kind {self.kind!r}; "
                             f"choose one of: {choices}")
        if not 0.0 <= self.rate <= 1.0:
            raise QueryError(
                f"fault rate must be within [0, 1], got {self.rate}")
        if self.delay_ms < 0:
            raise QueryError(
                f"fault delay_ms must be non-negative, "
                f"got {self.delay_ms}")
        if self.times is not None and self.times < 0:
            raise QueryError(
                f"fault times must be non-negative, got {self.times}")

    def matches_target(self, shard: str, replica: str) -> bool:
        """Whether this fault's ``target`` covers one replica visit."""
        if self.target is None:
            return True
        return self.target in (shard, replica, f"{shard}/{replica}")

    def clause(self) -> str:
        """This fault as one spec-grammar clause."""
        options: List[str] = []
        if self.terms is not None:
            options.append("terms=" + "+".join(self.terms))
        if self.times is not None:
            options.append(f"times={self.times}")
        if self.rate != 1.0:
            options.append(f"rate={self.rate!r}")
        if self.delay_ms:
            options.append(f"delay_ms={self.delay_ms!r}")
        if self.message != "injected fault":
            options.append(f"message={self.message}")
        if self.target is not None:
            options.append(f"target={self.target}")
        return self.kind + (":" + ",".join(options) if options else "")


@dataclass
class _Armed:
    """One fault plus its mutable firing count."""

    fault: Fault
    fired: int = 0

    def exhausted(self) -> bool:
        return self.fault.times is not None \
            and self.fired >= self.fault.times


class FaultInjector:
    """A seeded, deterministic source of injected failures.

    The service layer calls the hooks below; each consults the armed
    fault list, honours term matches / ``times`` limits / the seeded
    ``rate`` draw, and strikes.  All state is local, so a test can
    assert exact firing counts via :meth:`summary`.
    """

    enabled = True

    __slots__ = ("seed", "_armed", "_rng")

    def __init__(self, faults: Iterable[Fault], seed: int = 0):
        self.seed = seed
        self._armed = [_Armed(fault) for fault in faults]
        self._rng = random.Random(seed)

    # -- hooks ----------------------------------------------------------------

    def before_query(self, terms: Sequence[str]) -> None:
        """Per-query hook (every executor): sleep and/or raise."""
        for armed in self._select("slow_query", terms):
            time.sleep(armed.fault.delay_ms / 1000.0)
        for armed in self._select("query_error", terms):
            raise InjectedFaultError(armed.fault.message)

    def on_worker_chunk(self,
                        term_lists: Sequence[Sequence[str]]) -> None:
        """Process-worker hook, called once at the start of a chunk.

        A firing ``worker_crash`` hard-kills the worker process (after
        its optional ``delay_ms``), exactly like a segfault would: no
        exception propagates, the pool just breaks.
        """
        chunk_terms = [term for terms in term_lists for term in terms]
        for armed in self._select("worker_crash", chunk_terms):
            if armed.fault.delay_ms:
                time.sleep(armed.fault.delay_ms / 1000.0)
            os._exit(WORKER_CRASH_EXIT)

    def corrupt(self, payload: str) -> str:
        """Payload hook: garble the serialised document when armed."""
        for _ in self._select("corrupt_payload", ()):
            payload = payload[: len(payload) // 2] + "<corrupted/>"
        return payload

    def before_reload(self) -> None:
        """Reload hook: make the incoming generation look corrupt.

        Fires inside :meth:`repro.service.QueryService.reload` before
        the new generation is built, playing the role of a snapshot
        that fails verification — the service must reject the reload
        and keep serving the old generation (docs/STORAGE.md).
        """
        for armed in self._select("reload_corrupt", ()):
            raise InjectedFaultError(armed.fault.message)

    def on_replica_visit(self, shard: str, replica: str,
                         terms: Sequence[str] = (),
                         deadline: object = None) -> None:
        """Corpus replica-visit hook: strike the replica fault kinds.

        Called by :class:`~repro.corpus.CorpusService` just before a
        shard visit runs against a chosen replica.  A ``slow_replica``
        sleeps, capped at the visit's remaining deadline budget when
        one is given — a real straggler would be *abandoned* at the
        deadline, and since a sleeping thread cannot be abandoned, the
        cap models the caller's wall-clock view.  A ``replica_down``
        raises :class:`InjectedFaultError`; a ``torn_replica`` raises
        :class:`~repro.exceptions.StorageError` (the mid-read-tear
        failure class), so both failover paths are exercised.
        """
        for armed in self._select("slow_replica", terms,
                                  shard=shard, replica=replica):
            delay_ms = armed.fault.delay_ms
            remaining = getattr(deadline, "remaining_ms", None)
            if remaining is not None and remaining != float("inf"):
                delay_ms = min(delay_ms, max(0.0, remaining))
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
        for armed in self._select("replica_down", terms,
                                  shard=shard, replica=replica):
            raise InjectedFaultError(
                f"{armed.fault.message} (replica {shard}/{replica})")
        for armed in self._select("torn_replica", terms,
                                  shard=shard, replica=replica):
            raise StorageError(
                f"injected torn replica {shard}/{replica}: "
                f"{armed.fault.message}")

    def replica_skew_ms(self, shard: str, replica: str) -> float:
        """Total ``clock_skew_ms`` the visit must budget as already
        spent (0 when no skew fault strikes)."""
        skew = 0.0
        for armed in self._select("clock_skew_ms", (),
                                  shard=shard, replica=replica):
            skew += armed.fault.delay_ms
        return skew

    def inject(self, fault: Fault) -> None:
        """Arm one more fault on a *live* injector.

        The chaos harness uses this to strike mid-run — e.g. killing a
        replica after the workload is already flowing — without
        rebuilding the service under test.  Appending is atomic under
        CPython; firing counts for faults armed this way start at 0.
        """
        self._armed.append(_Armed(fault))

    # -- selection ------------------------------------------------------------

    def _select(self, kind: str, terms: Sequence[str],
                shard: Optional[str] = None,
                replica: Optional[str] = None) -> List[_Armed]:
        struck: List[_Armed] = []
        for armed in self._armed:
            fault = armed.fault
            if fault.kind != kind or armed.exhausted():
                continue
            if fault.terms is not None and not any(
                    term in terms for term in fault.terms):
                continue
            if fault.target is not None and not fault.matches_target(
                    shard or "", replica or ""):
                continue
            if fault.rate < 1.0 and self._rng.random() >= fault.rate:
                continue
            armed.fired += 1
            struck.append(armed)
        return struck

    # -- reporting / round-trip ----------------------------------------------

    def spec(self) -> str:
        """The spec string rebuilding this injector (fresh counters)."""
        return ";".join(armed.fault.clause() for armed in self._armed)

    def summary(self) -> Dict[str, object]:
        """JSON-safe firing report for ``resilience`` stats blocks."""
        fired: Dict[str, int] = {}
        for armed in self._armed:
            if armed.fired:
                fired[armed.fault.kind] = \
                    fired.get(armed.fault.kind, 0) + armed.fired
        return {"spec": self.spec(), "seed": self.seed, "fired": fired}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.spec()!r}, seed={self.seed})"


class NullFaultInjector:
    """The do-nothing injector: the default on every execution path."""

    enabled = False
    seed = 0

    __slots__ = ()

    def before_query(self, terms: Sequence[str]) -> None:
        pass

    def on_worker_chunk(self,
                        term_lists: Sequence[Sequence[str]]) -> None:
        pass

    def corrupt(self, payload: str) -> str:
        return payload

    def before_reload(self) -> None:
        pass

    def on_replica_visit(self, shard: str, replica: str,
                         terms: Sequence[str] = (),
                         deadline: object = None) -> None:
        pass

    def replica_skew_ms(self, shard: str, replica: str) -> float:
        return 0.0

    def spec(self) -> str:
        return ""

    def summary(self) -> Dict[str, object]:
        return {"spec": "", "seed": 0, "fired": {}}


#: Shared no-op instance; service signatures default ``faults`` to this.
NULL_FAULTS = NullFaultInjector()

#: What service signatures accept: a live injector or the no-op.
FaultsLike = Union[FaultInjector, NullFaultInjector]

#: Options parsed as numbers, with their converters.
_NUMERIC = {"times": int, "rate": float, "delay_ms": float}


def parse_faults(spec: Optional[str], seed: int = 0) -> FaultsLike:
    """Parse a spec string (module grammar) into an injector.

    Empty / ``None`` specs yield :data:`NULL_FAULTS`.  Malformed specs
    raise :class:`~repro.exceptions.QueryError` naming the offending
    clause — a wrong fault spec silently injecting nothing would make a
    resilience test vacuous.
    """
    if not spec or not spec.strip():
        return NULL_FAULTS
    faults: List[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, raw_options = clause.partition(":")
        fields: Dict[str, object] = {"kind": kind.strip()}
        if raw_options.strip():
            for option in raw_options.split(","):
                name, eq, value = option.partition("=")
                name, value = name.strip(), value.strip()
                if not eq or not name:
                    raise QueryError(
                        f"malformed fault option {option!r} in clause "
                        f"{clause!r} (expected name=value)")
                if name == "terms":
                    fields["terms"] = tuple(
                        term for term in value.split("+") if term)
                elif name in _NUMERIC:
                    try:
                        fields[name] = _NUMERIC[name](value)
                    except ValueError:
                        raise QueryError(
                            f"fault option {name}={value!r} in clause "
                            f"{clause!r} is not a number") from None
                elif name == "message":
                    fields["message"] = value
                elif name == "target":
                    fields["target"] = value
                else:
                    raise QueryError(
                        f"unknown fault option {name!r} in clause "
                        f"{clause!r}")
        faults.append(Fault(**fields))  # type: ignore[arg-type]
    if not faults:
        return NULL_FAULTS
    return FaultInjector(faults, seed=seed)


def faults_from_env() -> FaultsLike:
    """The injector described by ``REPRO_FAULTS`` (none by default)."""
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return NULL_FAULTS
    raw_seed = os.environ.get(FAULTS_SEED_ENV, "0")
    try:
        seed = int(raw_seed)
    except ValueError:
        raise QueryError(
            f"{FAULTS_SEED_ENV} must be an integer, "
            f"got {raw_seed!r}") from None
    return parse_faults(spec, seed=seed)
