"""``repro serve`` with span recorders around its layer boundaries.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_serve.py SPANS.jsonl \\
        SOURCE --port 0

Wraps the public boundaries in :data:`BOUNDARIES`, runs
``repro.cli.main(["serve", ...])``, and when the server has drained
writes every recorded span to ``SPANS.jsonl``, one JSON object a line:
``id``, ``parent``, ``trace`` (the request's trace id), ``layer``,
``name``, ``start`` and ``end`` (``time.perf_counter`` seconds), and
``entries`` for match-list builds.  A boundary that cannot be found
stops the server before it serves.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

#: (layer, module, attribute) of every wrapped boundary.  A single
#: database is first loaded through the CLI's binding of
#: ``load_database``, a corpus shard and every reload through the
#: service's.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("service", "repro.service.service", "QueryService.search"),
    ("corpus", "repro.corpus.service", "CorpusService.search"),
    ("core", "repro.service.service", "topk_search"),
    ("index", "repro.core.prstack", "build_match_entries"),
    ("index", "repro.core.eager", "build_match_entries"),
    ("index", "repro.core.eager", "keyword_code_lists"),
    ("index", "repro.service.service", "load_database"),
    ("index", "repro.cli", "load_database"),
)


class SpanLog:
    """In-memory spans; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, name: str,
             function: Callable[..., Any]) -> Callable[..., Any]:
        spans, ids, local = self.spans, self._ids, self._local
        counts_entries = name.endswith("build_match_entries")

        @functools.wraps(function)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            parent: Optional[Tuple[int, Optional[str]]] = \
                stack[-1] if stack else None
            tracer = kwargs.get("tracer")
            trace = getattr(tracer, "trace_id", None) \
                or (parent[1] if parent else None)
            span_id = next(ids)
            stack.append((span_id, trace))
            entries = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if counts_entries:
                    entries = len(result[1])
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic, so executor threads share it.
                spans.append((span_id, parent[0] if parent else None,
                              trace, layer, name, start, end, entries))

        return recorded

    def install(self) -> None:
        for layer, module_name, attribute in BOUNDARIES:
            owner: Any = importlib.import_module(module_name)
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])  # AttributeError: stop
            setattr(owner, path[-1],
                    self.wrap(layer, f"{module_name}.{attribute}",
                              original))

    def write(self, path: str) -> None:
        keys = ("id", "parent", "trace", "layer", "name", "start", "end",
                "entries")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    log = SpanLog()
    log.install()
    from repro.cli import main as cli_main
    code = cli_main(["serve"] + serve_args)
    log.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
