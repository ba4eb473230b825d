"""Tests for the probability-aware static analysis (rules R001-R007).

Each rule gets a positive snippet (must fire), a negative snippet (must
stay quiet) and a suppressed snippet (``# repro: ignore[R00x]``).  The
report round-trip, the validator's rejection paths, the CLI exit codes
and the repo-wide zero-finding baseline are pinned down at the end.
"""

import json
import os

import pytest

from repro.analysis import (ALL_RULES, LintError, build_lint_report,
                            default_rules, lint_paths, lint_source,
                            select_rules, validate_lint_report)
from repro.analysis.linter import PARSE_ERROR_RULE
from repro.analysis.report import LintReportError
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures")

#: Path given to lint_source so the scope-limited R004 rule applies.
CORE_PATH = "src/repro/core/snippet.py"


def rules_of(result):
    return sorted({finding.rule for finding in result.findings})


class TestR001ProbabilityEquality:
    def test_flags_float_literal_comparison(self):
        result = lint_source("ok = edge_prob == 1.0\n")
        assert rules_of(result) == ["R001"]

    def test_flags_two_probability_operands(self):
        result = lint_source("same = left_prob != right_prob\n")
        assert rules_of(result) == ["R001"]

    def test_ignores_unrelated_comparison(self):
        result = lint_source("done = count == 3\n")
        assert result.clean

    def test_ignores_probability_inequality(self):
        result = lint_source("better = probability > threshold\n")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "ok = edge_prob == 1.0  # repro: ignore[R001] sentinel\n")
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["R001"]


class TestR002RawTimer:
    def test_flags_time_attribute_calls(self):
        result = lint_source(
            "import time\nstart = time.perf_counter()\n")
        assert rules_of(result) == ["R002"]

    def test_flags_bare_imported_clock(self):
        result = lint_source(
            "from time import perf_counter\nstart = perf_counter()\n")
        assert rules_of(result) == ["R002"]

    def test_exempt_inside_obs(self):
        result = lint_source("import time\nnow = time.monotonic()\n",
                             path="src/repro/obs/metrics.py")
        assert result.clean

    def test_ignores_time_sleep(self):
        result = lint_source("import time\ntime.sleep(1)\n")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "import time\n"
            "t = time.perf_counter()  # repro: ignore[R002] calibration\n")
        assert result.clean


class TestR003UnguardedReturn:
    def test_flags_raw_probability_arithmetic(self):
        result = lint_source(
            "def join(left_prob, right_prob):\n"
            "    return left_prob * right_prob\n")
        assert rules_of(result) == ["R003"]

    def test_clamped_return_is_guarded(self):
        result = lint_source(
            "from repro.analysis.numeric import clamp01\n"
            "def join(left_prob, right_prob):\n"
            "    return clamp01(left_prob * right_prob)\n")
        assert result.clean

    def test_private_function_exempt(self):
        result = lint_source(
            "def _join(left_prob, right_prob):\n"
            "    return left_prob * right_prob\n")
        assert result.clean

    def test_non_probability_arithmetic_exempt(self):
        result = lint_source(
            "def area(width, height):\n"
            "    return width * height\n")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "def join(left_prob, right_prob):\n"
            "    return left_prob * right_prob"
            "  # repro: ignore[R003] diagnostic\n")
        assert result.clean


class TestR004MissingAnnotations:
    def test_flags_unannotated_core_function(self):
        result = lint_source("def score(value):\n    return value\n",
                             path=CORE_PATH)
        assert rules_of(result) == ["R004"]

    def test_annotated_function_passes(self):
        result = lint_source(
            "def score(value: float) -> float:\n    return value\n",
            path=CORE_PATH)
        assert result.clean

    def test_missing_return_annotation_flagged(self):
        result = lint_source(
            "def score(value: float):\n    return value\n",
            path=CORE_PATH)
        assert rules_of(result) == ["R004"]

    def test_self_parameter_exempt(self):
        result = lint_source(
            "class Thing:\n"
            "    def score(self, value: float) -> float:\n"
            "        return value\n",
            path=CORE_PATH)
        assert result.clean

    def test_out_of_scope_path_exempt(self):
        result = lint_source("def score(value):\n    return value\n",
                             path="src/repro/datagen/xmark.py")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "def score(value):  # repro: ignore[R004] duck-typed\n"
            "    return value\n",
            path=CORE_PATH)
        assert result.clean


class TestR005MutableDefault:
    def test_flags_list_default(self):
        result = lint_source("def add(items=[]):\n    return items\n")
        assert rules_of(result) == ["R005"]

    def test_flags_constructor_default(self):
        result = lint_source("def add(items=dict()):\n    return items\n")
        assert rules_of(result) == ["R005"]

    def test_none_default_passes(self):
        result = lint_source("def add(items=None):\n    return items\n")
        assert result.clean

    def test_tuple_default_passes(self):
        result = lint_source("def add(items=()):\n    return items\n")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "def add(items=[]):  # repro: ignore[R005] module singleton\n"
            "    return items\n")
        assert result.clean


class TestR006SwallowedException:
    def test_flags_except_pass(self):
        result = lint_source(
            "try:\n    risky()\nexcept ValueError:\n    pass\n")
        assert rules_of(result) == ["R006"]

    def test_handled_exception_passes(self):
        result = lint_source(
            "try:\n    risky()\nexcept ValueError:\n    handle()\n")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "try:\n    risky()\n"
            "except ValueError:  # repro: ignore[R006] best effort\n"
            "    pass\n")
        assert result.clean


class TestR007NonAtomicWrite:
    STORAGE_PATH = "src/repro/index/snippet.py"

    def test_flags_truncating_open(self):
        result = lint_source(
            "with open(path, 'w') as handle:\n"
            "    handle.write(text)\n", path=self.STORAGE_PATH)
        assert rules_of(result) == ["R007"]

    def test_flags_append_and_keyword_mode(self):
        result = lint_source(
            "handle = open(path, mode='ab')\n",
            path=self.STORAGE_PATH)
        assert rules_of(result) == ["R007"]

    def test_flags_write_text_and_os_open(self):
        result = lint_source(
            "import os\n"
            "target.write_text(data)\n"
            "fd = os.open(path, os.O_WRONLY | os.O_CREAT)\n",
            path=self.STORAGE_PATH)
        assert [f.rule for f in result.findings] == ["R007", "R007"]

    def test_flags_service_package_too(self):
        result = lint_source(
            "open(path, 'w').write(text)\n",
            path="src/repro/service/snippet.py")
        assert rules_of(result) == ["R007"]

    def test_reads_pass(self):
        result = lint_source(
            "body = open(path).read()\n"
            "more = open(path, 'rb').read()\n"
            "import os\nfd = os.open(path, os.O_RDONLY)\n",
            path=self.STORAGE_PATH)
        assert result.clean

    def test_atomic_write_helper_is_blessed(self):
        result = lint_source(
            "import os\n"
            "def _atomic_write(path, text):\n"
            "    with open(path + '.tmp', 'w') as handle:\n"
            "        handle.write(text)\n"
            "    os.replace(path + '.tmp', path)\n",
            path=self.STORAGE_PATH)
        assert result.clean

    def test_other_packages_unscoped(self):
        result = lint_source(
            "with open(path, 'w') as handle:\n"
            "    handle.write(text)\n",
            path="src/repro/datagen/snippet.py")
        assert result.clean

    def test_suppressed(self):
        result = lint_source(
            "open(path, 'w')  # repro: ignore[R007] scratch file\n",
            path=self.STORAGE_PATH)
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["R007"]


class TestR012ForkSafety:
    """Payloads shipped through the services' pool helper and shared
    process worker (``repro.service.worker``) stay visible to R012."""

    HEADER = ("import threading\n"
              "from repro.service.worker import Job, WorkerPool, "
              "run_job\n")

    def lint(self, body):
        return lint_source(self.HEADER + body, rules=select_rules(["R012"]))

    def test_flags_lock_riding_a_job_through_worker_pool(self):
        result = self.lint(
            "def scatter(source):\n"
            "    lock = threading.Lock()\n"
            "    with WorkerPool('process', 2) as pool:\n"
            "        pool.submit(run_job, Job(source, lock))\n")
        assert rules_of(result) == ["R012"]

    def test_flags_payload_of_a_pool_entered_through_its_scope(self):
        result = self.lint(
            "def scatter(work, executor, lock):\n"
            "    scope = WorkerPool(executor, 2)\n"
            "    with scope as pool:\n"
            "        pool.submit(work, lock)\n")
        assert rules_of(result) == ["R012"]

    def test_flags_worker_job_on_a_pool_built_elsewhere(self):
        result = self.lint(
            "def launch(pool, collector):\n"
            "    return pool.submit(run_job, Job(collector))\n")
        assert rules_of(result) == ["R012"]

    def test_thread_pool_and_plain_jobs_pass(self):
        result = self.lint(
            "def scatter(self, lock):\n"
            "    with WorkerPool('thread', 2) as pool:\n"
            "        pool.submit(self.visit, lock)\n"
            "def serve(job):\n"
            "    with WorkerPool('process', 2) as pool:\n"
            "        pool.submit(run_job, job)\n")
        assert result.clean

    def test_suppressed(self):
        result = self.lint(
            "def launch(pool, lock):\n"
            "    pool.submit(run_job, lock)  # repro: ignore[R012] peer\n")
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["R012"]


class TestFramework:
    def test_syntax_error_becomes_r000(self):
        result = lint_source("def broken(:\n")
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]

    def test_blanket_suppression(self):
        result = lint_source(
            "ok = edge_prob == 1.0  # repro: ignore\n")
        assert result.clean
        assert len(result.suppressed) == 1

    def test_suppression_is_rule_specific(self):
        result = lint_source(
            "ok = edge_prob == 1.0  # repro: ignore[R002]\n")
        assert rules_of(result) == ["R001"]

    def test_select_rules_unknown_id(self):
        with pytest.raises(LintError):
            select_rules(["R999"])

    def test_select_rules_subset(self):
        (rule,) = select_rules(["R005"])
        result = lint_source(
            "def add(items=[], probability=1.0):\n"
            "    return probability == 1.0\n", rules=[rule])
        assert rules_of(result) == ["R005"]

    def test_findings_are_sorted_and_rendered(self):
        result = lint_paths([FIXTURES])
        ordered = [(f.file, f.line) for f in result.findings]
        assert ordered == sorted(ordered)
        rendered = result.render_lines()
        assert any("R001" in line for line in rendered)
        assert rendered[-1].endswith("file(s) scanned")


class TestFixturesAndBaseline:
    def test_fixtures_violate_every_rule(self):
        result = lint_paths([FIXTURES])
        expected = {rule.rule_id for rule in ALL_RULES}
        assert {f.rule for f in result.findings} == expected

    def test_source_tree_is_clean(self):
        """The repo-wide zero-finding baseline (CHANGES.md records the
        27 findings this gate started from)."""
        result = lint_paths([SRC_TREE])
        assert result.findings == []
        assert result.files_scanned > 50
        assert result.suppressed, "the documented sentinels stay suppressed"


class TestReport:
    def test_round_trip(self):
        result = lint_paths([FIXTURES])
        report = build_lint_report(result, [FIXTURES], default_rules())
        assert validate_lint_report(report) is report
        parsed = json.loads(json.dumps(report))
        assert validate_lint_report(parsed) == report
        assert parsed["summary"]["total"] == len(result.findings)
        assert sum(parsed["summary"]["by_rule"].values()) \
            == parsed["summary"]["total"]

    def test_validator_rejects_bad_reports(self):
        result = lint_paths([FIXTURES])
        report = build_lint_report(result, [FIXTURES], default_rules())

        for mutate, match in [
            (lambda r: r.pop("schema"), "missing required key"),
            (lambda r: r.update(schema="repro.lint/v2"), "unknown schema"),
            (lambda r: r.update(files_scanned="2"), "integer"),
            (lambda r: r["findings"][0].pop("line"), "missing key"),
            (lambda r: r["summary"].update(total=0), "does not match"),
        ]:
            broken = json.loads(json.dumps(report))
            mutate(broken)
            with pytest.raises(LintReportError, match=match):
                validate_lint_report(broken)

    def test_validator_rejects_non_dict(self):
        with pytest.raises(LintReportError):
            validate_lint_report([])


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", SRC_TREE]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys):
        assert main(["lint", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R006" in out

    def test_json_report_to_file(self, tmp_path, capsys):
        output = tmp_path / "lint.json"
        assert main(["lint", FIXTURES, "--format", "json",
                     "-o", str(output)]) == 1
        report = validate_lint_report(json.loads(output.read_text()))
        assert report["summary"]["total"] > 0

    def test_rule_selection(self, capsys):
        assert main(["lint", FIXTURES, "--rules", "R005"]) == 1
        out = capsys.readouterr().out
        assert "R005" in out and "R001" not in out

    def test_unknown_rule_is_an_error(self, capsys):
        assert main(["lint", FIXTURES, "--rules", "R999"]) == 1
        assert "R999" in capsys.readouterr().err
