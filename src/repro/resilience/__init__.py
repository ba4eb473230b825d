"""repro.resilience — deadlines, retries and fault injection.

The graceful-degradation layer of the library (docs/RESILIENCE.md):

* :class:`Deadline` / :data:`NULL_DEADLINE` — per-query budgets the
  engines poll at scan-step granularity, turning both algorithms into
  *anytime* searches that return explicitly-marked partial outcomes
  instead of raising;
* :class:`RetryPolicy` / :class:`CircuitBreaker` — pacing and pool
  protection for :meth:`repro.service.QueryService.batch_search`'s
  degradation chain (process -> serial -> error outcome);
* :class:`FaultInjector` / :func:`parse_faults` /
  :func:`faults_from_env` — deterministic, seeded injection of worker
  crashes, slow queries, query errors and corrupt index payloads, used
  by the tests and the CI fault smoke.

Everything defaults to inert null objects, so uninstrumented queries
are byte-identical to a build without this package.
"""

from repro.resilience.deadline import (Deadline, DeadlineLike,
                                       NULL_DEADLINE, NullDeadline,
                                       REASON_COMPLETE, REASON_DEADLINE,
                                       REASON_STEP_BUDGET, as_deadline)
from repro.resilience.faults import (FAULT_KINDS, Fault, FaultInjector,
                                     FaultsLike, InjectedFaultError,
                                     NULL_FAULTS, NullFaultInjector,
                                     REPLICA_KINDS, faults_from_env,
                                     parse_faults)
from repro.resilience.retry import (CircuitBreaker, DEFAULT_BACKOFF_MS,
                                    DEFAULT_MAX_RETRIES, RetryPolicy)

__all__ = [
    # deadlines
    "Deadline", "NullDeadline", "NULL_DEADLINE", "DeadlineLike",
    "as_deadline", "REASON_COMPLETE", "REASON_DEADLINE",
    "REASON_STEP_BUDGET",
    # retry / breaker
    "RetryPolicy", "CircuitBreaker", "DEFAULT_MAX_RETRIES",
    "DEFAULT_BACKOFF_MS",
    # fault injection
    "Fault", "FaultInjector", "NullFaultInjector", "NULL_FAULTS",
    "FaultsLike", "InjectedFaultError", "FAULT_KINDS",
    "REPLICA_KINDS", "parse_faults", "faults_from_env",
]
