"""Compare two sets of end-to-end benchmark reports.

Usage::

    python benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

``A`` are reports (``run.py -o``) of the parent, ``B`` of the change,
listed in the order they ran so that ``A[i]`` and ``B[i]`` form a pair.
For every workload and end-to-end metric it prints both sides' median
and quartiles, the bound, and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more
  than the bound, and the parent's own spread is within the bound or
  every change run is worse than every parent run;
* ``unresolved``: the parent's spread is wider than the bound and the
  runs of the two sides overlap;
* ``unchanged``: otherwise.

The exit code is 1 when a gated (metric, workload) pair is ``worse``.
Pairs marked ``false`` under ``gates`` in manifest.json are reported
only.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import MANIFEST_JSON, declared_metrics, load_json, quartiles


def _values(reports: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    values = []
    for report in reports:
        for run in report["runs"]:
            if run["workload"] == workload and not run["trace"] \
                    and metric in run["metrics"]:
                values.append(float(run["metrics"][metric]["value"]))
    return values


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(a: float, b: float) -> float:
        """How much worse ``b`` is than ``a``, as a share of ``a``."""
        if a == 0:
            return 0.0 if b == a else sign * (b - a) * float("inf")
        return sign * (b - a) / abs(a)

    q1, median_a, q3 = quartiles(parent)
    median_b = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if worse_by(a, b) < 0)
    if wins >= 0.9 * len(pairs) and abs(median_b - median_a) > q3 - q1:
        return "better"
    spread = (q3 - q1) / abs(median_a) if median_a else 0.0
    all_worse = all(worse_by(a, b) > 0 for a in parent for b in change)
    all_better = all(worse_by(a, b) < 0 for a in parent for b in change)
    worst = max if better == "lower" else min
    if bound == 0 and worse_by(worst(parent), worst(change)) > 0:
        return "worse"  # a zero bound allows no increase in any run
    if worse_by(median_a, median_b) > bound and (spread <= bound
                                                 or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _metrics() -> List[Tuple[Dict[str, Any], Optional[List[str]]]]:
    """(metric, the workloads it applies to, or None for all)."""
    extra = load_json(MANIFEST_JSON).get("extra_end_to_end", [])
    return [(m, None) for m in declared_metrics("end_to_end")] + \
        [(m, m.get("workloads")) for m in extra]


def compare(parent: Sequence[Dict[str, Any]],
            change: Sequence[Dict[str, Any]]) -> int:
    gates = load_json(MANIFEST_JSON).get("gates", {})
    workloads = sorted({run["workload"] for report in parent
                        for run in report["runs"]})
    regressions = 0
    print(f"{'workload':<15} {'metric':<10} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'bound':>6}  verdict")
    for workload in workloads:
        for metric, applies in _metrics():
            name = metric["name"]
            if applies is not None and workload not in applies:
                continue
            a = _values(parent, workload, name)
            b = _values(change, workload, name)
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            gated = gates.get(workload, {}).get(name, True)
            if result == "worse" and gated:
                regressions += 1
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<15} {name:<10} "
                  f"{qa[1]:>12.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"{qb[1]:>12.4g} [{qb[0]:.4g}, {qb[2]:.4g}] "
                  f"{metric['bound']:>6.0%}  {result}"
                  + ("" if gated else " (not gated)"))
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    if "--" not in argv or argv.index("--") == 0 \
            or argv.index("--") == len(argv) - 1:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent = [load_json(path) for path in argv[:split]]
    change = [load_json(path) for path in argv[split + 1:]]
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
