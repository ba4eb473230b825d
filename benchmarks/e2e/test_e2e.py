"""Self-test of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One ``--quick`` run of every workload (about two minutes) backs the
metric and coverage checks; the answer gate and the compare verdicts
are checked on synthetic records.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, declared_metrics  # noqa: E402

sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def quick_run():
    output = ROOT / ".e2e_runs" / "selftest-report.json"
    output.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "-o",
         str(output)], cwd=ROOT, capture_output=True, text=True,
        timeout=1200)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(output.read_text()), proc.stdout


def test_quick_run_emits_every_declared_metric_with_its_unit(quick_run):
    report, stdout = quick_run
    assert {run["workload"] for run in report["runs"]} >= \
        {w["name"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for run in report["runs"]:
        kind = "per_layer" if run["trace"] else "end_to_end"
        for declared in declared_metrics(kind):
            measured = run["metrics"][declared["name"]]
            assert measured["unit"] == declared["unit"], declared
            assert math.isfinite(measured["value"]), declared
        assert run["failed"] == 0 and run["correct"]
        assert all(step["failed"] == 0 for step in run["steps"])
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0


def test_trace_coverage_accounts_for_the_round_trip(quick_run):
    report, _ = quick_run
    traced = [run for run in report["runs"] if run["trace"]]
    assert traced
    for run in traced:
        assert 0.99 <= run["metrics"]["trace.coverage"]["value"] <= 1.01
        assert "trace.overhead" in run["metrics"]


def test_a_corrupted_expected_answer_is_caught(monkeypatch):
    import run
    import workloads
    from harness import Record, Step

    workload = workloads.WORKLOADS["cold-single"]
    checker = run.WorkloadRun(workload, 1,
                              run.make_plan(workload, None, True), ROOT)
    query = (("bidder", "item"), 10)
    served = [["1.2.3", 0.25], ["1.2.4", 0.125]]
    corrupted = [["1.2.3", 0.25], ["1.2.4", 0.12500000000000003]]
    monkeypatch.setattr(workloads, "reference_answer",
                        lambda *args: corrupted)
    record = Record("warm", "search", 0, query, 200, answer=served)
    checker.reference = None  # the patched reference_answer ignores it
    checker.steps = [Step("warm", [record], 1.0)]
    answers = checker.check_answers()
    assert answers["mismatches"] == 1
    assert not record.ok and record.error == "wrong answer"


def test_only_a_tie_at_probability_one_is_excused():
    from run import near_one_tie

    served = [["1.1.1.2", 1.0], ["1.1.1.8", 1.0], ["1.1.2.5", 0.5]]
    expected = [["1.1.3.79", 1.0000000000000002], ["1.1.1.2", 1.0],
                ["1.1.1.8", 1.0]]
    assert near_one_tie(served, expected)
    inflated = [["1.1.1.2", 1.000000000001], ["1.1.1.8", 1.0],
                ["1.1.2.5", 0.5]]
    assert not near_one_tie(inflated, served)
    wrong_below_one = [["1.1.3.79", 1.0000000000000002],
                       ["1.1.1.2", 1.0], ["1.1.2.6", 0.5]]
    assert not near_one_tie(served, wrong_below_one)


def test_compare_flags_a_regression_beyond_its_bound():
    import compare

    assert compare.verdict([10, 10.2, 9.9], [12, 12.5, 12.2],
                           "lower", 0.1) == "worse"
    assert compare.verdict([10, 10.2, 9.9], [10.1, 10, 10.3],
                           "lower", 0.1) == "unchanged"
    assert compare.verdict([10, 10.2, 9.9], [7, 7.1, 6.9],
                           "lower", 0.1) == "better"
    assert compare.verdict([10, 14, 7], [10.5, 9, 13],
                           "lower", 0.1) == "unresolved"
    assert compare.verdict([0, 0, 0], [0, 0.01, 0],
                           "lower", 0.0) == "worse"
