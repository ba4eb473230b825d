"""The seeded chaos harness end-to-end: ``run_chaos`` + ``repro chaos``.

One real chaos run over a small 2-replica corpus — four phases, each
against a live in-thread HTTP server — must come back clean: every
query answered, zero violations, hedges fired where required.  The
suite also pins the harness's own guard rails (a 1-replica corpus is
rejected: replica failover is the property under test) and the CLI
exit-code/report contract CI relies on.
"""

import json

import pytest

from repro.cli import main
from repro.corpus import build_corpus
from repro.exceptions import QueryError
from repro.resilience import Fault, FaultInjector
from repro.resilience.chaos import (CHAOS_FORMAT, _oracle, _Phase,
                                    _workload, run_chaos)
from tests.test_corpus import random_corpus


@pytest.fixture(scope="module")
def chaos_corpus(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("chaos") / "corpus2")
    build_corpus(random_corpus(29, count=4, max_nodes=18), directory,
                 shards=2, replicas=2)
    return directory


class TestRunChaos:
    def test_full_suite_is_clean_and_hedges_fire(self, chaos_corpus):
        report = run_chaos(chaos_corpus, seed=7, queries=4,
                           deadline_ms=3000.0, epsilon_ms=1500.0,
                           slow_ms=150.0, hedge_ms=25.0)
        assert report["ok"], report["violations"]
        assert report["format"] == CHAOS_FORMAT
        assert report["violations"] == []
        assert report["replicas"] == 2
        names = [phase["phase"] for phase in report["phases"]]
        assert names == ["baseline", "replica-down",
                         "slow-replica-hedge", "torn-skew"]
        for phase in report["phases"]:
            assert phase["answered"] == 4
            assert phase["mismatches"] == 0
            assert phase["overshoots"] == 0
        down = report["phases"][1]
        assert down["partial"] == 0  # failover absorbed the kill
        assert down["faults_fired"].get("replica_down", 0) >= 1
        hedge = report["phases"][2]
        assert hedge["hedges"]["fired"] >= 1
        assert hedge["hedges"]["won"] + hedge["hedges"]["lost"] \
            <= hedge["hedges"]["fired"]

    def test_unhedged_straggler_breaks_the_tail_invariant(
            self, chaos_corpus):
        workload = _workload(chaos_corpus, seed=7, queries=2)
        phase = _Phase(
            "slow-replica-unhedged", chaos_corpus,
            _oracle(chaos_corpus, workload, 5), 5,
            deadline_ms=3000.0, epsilon_ms=1500.0,
            faults=FaultInjector(
                [Fault(kind="slow_replica", target="r0",
                       delay_ms=150.0)], seed=7),
            tail_ms=150.0)
        report = phase.run(workload)
        assert report["answered"] == 2
        assert report["max_wall_ms"] >= 150.0
        assert any("did not cut the tail" in violation
                   for violation in report["violations"]), \
            report["violations"]

    def test_single_replica_corpus_is_rejected(self, tmp_path):
        directory = str(tmp_path / "corpus1")
        build_corpus(random_corpus(31), directory, shards=2)
        with pytest.raises(QueryError, match="replicas 2"):
            run_chaos(directory)


class TestChaosCli:
    def test_exit_zero_and_report_file(self, chaos_corpus, tmp_path,
                                       capsys):
        out = tmp_path / "chaos.json"
        code = main(["chaos", chaos_corpus, "--seed", "7",
                     "--queries", "2", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "chaos seed 7: OK" in captured
        report = json.loads(out.read_text())
        assert report["format"] == CHAOS_FORMAT
        assert report["ok"] is True

    def test_json_flag_prints_the_report(self, chaos_corpus, capsys):
        code = main(["chaos", chaos_corpus, "--queries", "2",
                     "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == CHAOS_FORMAT

    @pytest.mark.parametrize("args", [
        ["-k", "0"],
        ["--queries", "0"],
        ["--queries", "-3"],
        ["--deadline-ms", "0"],
        ["--deadline-ms", "-5"],
        ["--epsilon-ms", "-1"],
    ])
    def test_caller_errors_exit_before_any_phase(
            self, chaos_corpus, monkeypatch, capsys, args):
        def no_phase(self, workload):
            raise AssertionError(f"phase {self.name} ran")

        monkeypatch.setattr(_Phase, "run", no_phase)
        code = main(["chaos", chaos_corpus] + args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: "), captured.err
        assert "VIOLATION" not in captured.out

    def test_rejects_unreplicated_corpus(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus1")
        build_corpus(random_corpus(37), directory, shards=2)
        code = main(["chaos", directory])
        assert code != 0
