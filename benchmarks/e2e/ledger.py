"""Fold the traced server's spans into per-layer metrics.

A span's *self* time is its duration minus the part of it its child
spans cover.  The ``serve`` layer has no span of its own: its self time
is the client round trip minus the request's outermost server span, so
the layers of a request sum to its round trip.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import percentile

_MATCH = "build_match_entries"
_LOAD = "load_database"


def read_spans(path: Path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def fold(spans: Sequence[dict], requests: Sequence[Tuple[str, float]],
         step_traces: set, step_wall_s: float, full_loads: int,
         corpus: bool) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``requests`` are ``(trace_id, round_trip_ms)`` of every traced
    request; ``step_traces`` the trace ids of the measured step, whose
    wall time ``step_wall_s`` the core busy share divides by;
    ``full_loads`` how many times the whole source was loaded (start
    plus reloads).
    Raises ``RuntimeError`` when a layer that must have run has no span,
    or a request has no server span: a missing boundary never reads 0.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    own_ms: Dict[str, List[float]] = defaultdict(list)
    step_core_s = 0.0
    trace_self: Dict[str, float] = defaultdict(float)
    outer: Dict[str, float] = {}
    shard_ms: List[float] = []
    for span in spans:
        duration = span["end"] - span["start"]
        self_ms = (duration - _covered(children[span["id"]])) * 1000.0
        own_ms[span["layer"]].append(self_ms)
        trace = span["trace"]
        if trace is None:
            continue
        trace_self[trace] += self_ms
        if trace in step_traces and span["layer"] == "core":
            step_core_s += self_ms / 1000.0
        if span["parent"] is None:
            outer[trace] = duration * 1000.0
        elif span["layer"] == "service" and \
                by_id[span["parent"]]["layer"] == "corpus":
            shard_ms.append(duration * 1000.0)

    matches = [span for span in spans if span["name"].endswith(_MATCH)]
    loads = [span["end"] - span["start"] for span in spans
             if span["name"].endswith(_LOAD)]
    required = ["service", "core", "index"] + (["corpus"] if corpus else [])
    missing = [layer for layer in required if not own_ms[layer]]
    if missing or not matches or not loads:
        raise RuntimeError(f"no spans recorded for layer(s) {missing} "
                           f"or for match-list builds / loads")
    unjoined = [trace for trace, _ in requests if trace not in outer]
    if unjoined:
        raise RuntimeError(f"{len(unjoined)} traced request(s) have no "
                           f"server span, e.g. {unjoined[0]}")

    serve_ms = [rt - outer[trace] for trace, rt in requests]
    round_trips = sum(rt for _, rt in requests)
    attributed = sum(serve_ms) + sum(trace_self[t] for t, _ in requests)

    return {
        "serve.self_ms.p50": percentile(serve_ms, 0.50),
        "serve.self_ms.p99": percentile(serve_ms, 0.99),
        "service.self_ms.p50": percentile(own_ms["service"], 0.50),
        "core.self_ms.p50": percentile(own_ms["core"], 0.50),
        "core.self_ms.p99": percentile(own_ms["core"], 0.99),
        "index.match_ms.p50": percentile(
            [(s["end"] - s["start"]) * 1000.0 for s in matches], 0.50),
        "index.entries_per_query":
            sum(s["entries"] for s in matches) / len(matches),
        "index.load_s": sum(loads) / full_loads,
        "core.busy_share": step_core_s / step_wall_s,
        "trace.coverage": attributed / round_trips,
        # A single document has no corpus layer: it spends 0 ms there.
        "corpus.self_ms.p50": percentile(own_ms["corpus"], 0.50)
        if corpus else 0.0,
        "corpus.shard_ms.p50": percentile(shard_ms, 0.50)
        if corpus else 0.0,
    }
