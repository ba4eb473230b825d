"""Persistent query serving over one prepared database.

The :class:`QueryService` keeps a prepared
:class:`~repro.index.storage.Database` (or bare index) together with
the reusable per-document caches of :mod:`repro.index.cache`, executes
single queries and whole batches without redundant per-query work, and
reports cache traffic through the :mod:`repro.obs` collector.  It can
also be built straight from a database directory and hot-reloaded to a
newer snapshot generation without dropping in-flight queries
(docs/STORAGE.md).  See docs/SERVICE.md for the architecture, the
cache keys, and the worker model.
"""

from repro.service.service import (BatchOutcome, Lookup, QueryService,
                                   ServiceSource, load_query_file)
from repro.service.signals import on_main_thread, safe_signal

__all__ = ["QueryService", "BatchOutcome", "Lookup", "ServiceSource",
           "load_query_file", "on_main_thread", "safe_signal"]
