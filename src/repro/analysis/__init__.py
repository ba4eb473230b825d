"""Static analysis + runtime sanitizer for the probability engines.

Two halves guard the numeric invariants the type system cannot see
(probabilities in [0, 1], MUX mass at most 1, monotone Dewey scans,
sound Property 1-5 bounds):

* the **linter** (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`) — AST rules R001-R007 with inline
  ``# repro: ignore[R00x]`` suppression and the machine-readable
  ``repro.lint/v1`` report (:mod:`repro.analysis.report`), surfaced as
  the ``repro lint`` CLI command and gated in CI;
* the **sanitizer** (:mod:`repro.analysis.sanitizer`) — an opt-in
  runtime mode (``REPRO_SANITIZE=1`` or ``topk_search(...,
  sanitize=True)``) asserting the same invariants live inside the
  engines, raising :class:`SanitizerError` with trace context.

A third half (:mod:`repro.analysis.concurrency`) guards the *locking*
invariants: rules R008-R012 lint lock discipline (guarded-by
annotations, lock order, blocking under locks, signal and fork
safety), while the opt-in :class:`LockWitness` /
:class:`InstrumentedLock` pair asserts the same discipline at runtime
(``repro check --concurrency`` stresses the service under it).

:mod:`repro.analysis.numeric` holds the shared float-tolerance helpers
(``is_one`` / ``is_zero`` / ``is_close`` / ``clamp01``) the R001 rule
steers probability comparisons through.

Everything is documented in docs/ANALYSIS.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.concurrency": ("DEFAULT_LOCK_ORDER",
                                   "ConcurrencyWitnessError",
                                   "InstrumentedLock", "LockWitness",
                                   "NULL_WITNESS", "NullWitness",
                                   "WitnessLike", "derive_lock_order",
                                   "wrap_lock"),
    "repro.analysis.linter": ("Finding", "LintError", "LintResult",
                              "lint_paths", "lint_source"),
    "repro.analysis.numeric": ("PROB_ATOL", "clamp01", "is_close", "is_one",
                               "is_zero"),
    "repro.analysis.report": ("LINT_SCHEMA_ID", "LintReportError",
                              "build_lint_report", "validate_lint_report"),
    "repro.analysis.rules": ("ALL_RULES", "default_rules", "select_rules"),
    "repro.analysis.sanitizer": ("NULL_SANITIZER", "NullSanitizer",
                                 "Sanitizer", "SanitizerError",
                                 "SanitizerLike", "sanitize_from_env"),
})

__all__ = [
    "DEFAULT_LOCK_ORDER", "ConcurrencyWitnessError", "InstrumentedLock",
    "LockWitness", "NULL_WITNESS", "NullWitness", "WitnessLike",
    "derive_lock_order", "wrap_lock",
    "Finding", "LintError", "LintResult", "lint_paths", "lint_source",
    "PROB_ATOL", "clamp01", "is_close", "is_one", "is_zero",
    "LINT_SCHEMA_ID", "LintReportError", "build_lint_report",
    "validate_lint_report",
    "ALL_RULES", "default_rules", "select_rules",
    "NULL_SANITIZER", "NullSanitizer", "Sanitizer", "SanitizerError",
    "SanitizerLike", "sanitize_from_env",
]
