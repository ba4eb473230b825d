"""Concurrency correctness tooling: static lock model + runtime witness.

Two halves share this package (docs/ANALYSIS.md):

* :mod:`repro.analysis.concurrency.model` — the AST lock-discipline
  model the lint rules R008–R012 consume: per-class lock discovery,
  ``# repro: guarded-by[...]`` / ``# repro: holds[...]`` annotation
  parsing, held-lock-set tracking through ``with self._lock:`` blocks,
  and the cross-class lock-order graph.
* :mod:`repro.analysis.concurrency.witness` — the opt-in runtime
  witness (:class:`LockWitness` / :class:`InstrumentedLock`) that
  checks the statically-derived lock order and guarded-object
  discipline while real threads hammer the service.  The default is
  :data:`NULL_WITNESS`, the repo's usual zero-overhead null object.

The stress harness that drives the witness lives in
:mod:`repro.analysis.concurrency.stress`; it is imported lazily (by
``repro check --concurrency`` and the stress tests) because it pulls
in the service layer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.concurrency.model": ("ClassModel", "LockModel",
                                         "MethodModel", "build_class_models",
                                         "derive_lock_order"),
    "repro.analysis.concurrency.witness": ("DEFAULT_LOCK_ORDER",
                                           "ConcurrencyWitnessError",
                                           "InstrumentedLock", "LockWitness",
                                           "NullWitness", "NULL_WITNESS",
                                           "WitnessLike", "wrap_lock"),
})

__all__ = [
    "ClassModel",
    "LockModel",
    "MethodModel",
    "build_class_models",
    "derive_lock_order",
    "DEFAULT_LOCK_ORDER",
    "ConcurrencyWitnessError",
    "InstrumentedLock",
    "LockWitness",
    "NullWitness",
    "NULL_WITNESS",
    "WitnessLike",
    "wrap_lock",
]
