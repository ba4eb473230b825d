"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def pxml_file(tmp_path, figure1_doc):
    from repro import write_pxml_file
    path = tmp_path / "doc.pxml"
    write_pxml_file(figure1_doc, path)
    return str(path)


class TestCli:
    def test_generate_and_stats(self, tmp_path, capsys):
        output = str(tmp_path / "mini.pxml")
        assert main(["generate", "dblp", "--publications", "50",
                     "-o", output]) == 0
        assert main(["stats", output]) == 0
        captured = capsys.readouterr().out
        assert "#IND" in captured and "height=" in captured

    def test_index_then_search(self, tmp_path, pxml_file, capsys):
        database_dir = str(tmp_path / "db")
        assert main(["index", pxml_file, database_dir]) == 0
        assert main(["search", database_dir, "k1", "k2",
                     "-k", "3"]) == 0
        captured = capsys.readouterr().out
        assert "answer(s)" in captured
        assert "Pr=" in captured

    @pytest.mark.parametrize("command", ["serve", "batch"])
    @pytest.mark.parametrize("size", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["document", "corpus"])
    def test_non_positive_cache_size_is_a_usage_error(
            self, tmp_path, pxml_file, figure1_doc, capsys, command,
            size, kind):
        if kind == "corpus":
            from repro.corpus import build_corpus
            source = str(tmp_path / "corpus")
            build_corpus([("a", figure1_doc), ("b", figure1_doc)], source,
                         shards=2)
        else:
            source = str(tmp_path / "db")
            assert main(["index", pxml_file, source]) == 0
        queries = tmp_path / "queries.txt"
        queries.write_text("k1 k2\n", encoding="utf-8")
        argv = [command, source, "--cache-size", size] + (
            ["--port", "0"] if command == "serve" else [str(queries)])
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--cache-size: must be positive" in captured.err
        assert "serving on" not in captured.out

    def test_search_directly_on_pxml(self, pxml_file, capsys):
        assert main(["search", pxml_file, "k1",
                     "--algorithm", "prstack"]) == 0
        assert "prstack" in capsys.readouterr().out

    def test_explain(self, pxml_file, capsys):
        assert main(["explain", pxml_file, "k1", "k2",
                     "--code", "1.M1.I2.1"]) == 0
        captured = capsys.readouterr().out
        assert "Equation 2" in captured

    def test_twig(self, pxml_file, capsys):
        assert main(["twig", pxml_file, "C1"]) == 0
        captured = capsys.readouterr().out
        assert "binding(s)" in captured
        assert "P(matches anywhere)" in captured

    def test_worlds(self, tmp_path, fragment_doc, capsys):
        from repro import write_pxml_file
        path = tmp_path / "frag.pxml"
        write_pxml_file(fragment_doc, path)
        assert main(["worlds", str(path)]) == 0
        captured = capsys.readouterr().out
        assert "7 distinct possible worlds" in captured

    def test_search_profile(self, pxml_file, capsys):
        assert main(["search", pxml_file, "k1", "k2",
                     "--profile"]) == 0
        captured = capsys.readouterr().out
        assert "profile" in captured
        assert "counters" in captured
        assert "engine.frames_pushed" in captured

    def test_search_metrics_json(self, tmp_path, pxml_file, capsys):
        import json
        from repro.obs.report import validate_report
        path = tmp_path / "metrics.json"
        assert main(["search", pxml_file, "k1", "k2",
                     "--metrics-json", str(path)]) == 0
        assert "metrics report written" in capsys.readouterr().out
        report = json.loads(path.read_text())
        validate_report(report)
        assert report["query"]["keywords"] == ["k1", "k2"]
        assert report["metrics"]["counters"]

    def test_verbose_flag_enables_debug_logging(self, pxml_file, capsys):
        import logging
        assert main(["-v", "search", pxml_file, "k1"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        assert main(["search", pxml_file, "k1"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_error_reported_cleanly(self, pxml_file, capsys):
        assert main(["explain", pxml_file, "k1",
                     "--code", "1.9.9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_search_sanitize_flag(self, pxml_file, capsys):
        assert main(["search", pxml_file, "k1", "k2",
                     "--sanitize"]) == 0
        captured = capsys.readouterr().out
        assert "sanitizer:" in captured
        assert "0 violations" in captured

    def test_check_validates_document(self, pxml_file, capsys):
        assert main(["check", pxml_file]) == 0
        assert "document ok" in capsys.readouterr().out

    def test_check_crosschecks_algorithms(self, pxml_file, capsys):
        assert main(["check", pxml_file, "k1", "k2",
                     "--sanitize"]) == 0
        captured = capsys.readouterr().out
        assert "PrStack and EagerTopK agree" in captured
        assert "sanitizer ran" in captured

    def test_module_invocation(self, pxml_file):
        import subprocess
        import sys
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "search", pxml_file, "k1"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0
        assert "answer(s)" in completed.stdout


class TestBatchCommand:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("k1 k2\n# warm replay below\nk1 k2\nk1\n",
                        encoding="utf-8")
        return str(path)

    def test_batch_over_database(self, tmp_path, pxml_file, query_file,
                                 capsys):
        database_dir = str(tmp_path / "db")
        assert main(["index", pxml_file, database_dir]) == 0
        capsys.readouterr()
        assert main(["batch", database_dir, query_file, "-k", "3",
                     "--cache-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "3 queries (2 distinct term sets)" in out
        assert "cache results: 1 hits" in out

    def test_batch_with_workers_and_metrics(self, tmp_path, pxml_file,
                                            query_file, capsys):
        import json as json_module
        from repro.obs import validate_report
        metrics = str(tmp_path / "batch.json")
        assert main(["batch", pxml_file, query_file, "--workers", "2",
                     "--executor", "thread", "--sanitize",
                     "--metrics-json", metrics]) == 0
        assert "metrics report written" in capsys.readouterr().out
        with open(metrics, encoding="utf-8") as handle:
            report = validate_report(json_module.load(handle))
        assert report["stats"]["queries"] == 3
        assert report["query"]["keywords"] == ["k1 k2", "k1 k2", "k1"]

    def test_batch_rejects_empty_query_file(self, tmp_path, pxml_file,
                                            capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        assert main(["batch", pxml_file, str(path)]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_batch_rejects_bad_query_line(self, tmp_path, pxml_file,
                                          capsys):
        path = tmp_path / "bad.txt"
        path.write_text("k1 K1\n", encoding="utf-8")
        assert main(["batch", pxml_file, str(path)]) == 1
        assert "duplicate query keyword" in capsys.readouterr().err

    def test_batch_reports_storage_generation(self, tmp_path,
                                              pxml_file, query_file,
                                              capsys):
        database_dir = str(tmp_path / "db")
        assert main(["index", pxml_file, database_dir]) == 0
        capsys.readouterr()
        assert main(["batch", database_dir, query_file]) == 0
        out = capsys.readouterr().out
        assert "storage: generation g00000001 (epoch 1)" in out

    def test_batch_reload_on_rejects_pxml_source(self, pxml_file,
                                                 query_file, capsys):
        assert main(["batch", pxml_file, query_file,
                     "--reload-on", "HUP"]) == 1
        assert "database directory" in capsys.readouterr().err

    def test_batch_reload_on_hup_swaps_generation(self, tmp_path,
                                                  pxml_file, capsys,
                                                  monkeypatch):
        """Raise a real SIGHUP while the batch runs in-process: the
        handler must hot-reload to the newest generation and the batch
        must finish with exit 0.  The signal is raised from the main
        thread once the handler is armed and the service is loaded, so
        the test is deterministic (a timer could fire while the default
        disposition is active and kill the test process)."""
        import signal

        import repro.cli as cli_module
        if not hasattr(signal, "SIGHUP"):  # pragma: no cover
            pytest.skip("no SIGHUP on this platform")
        database_dir = str(tmp_path / "db")
        assert main(["index", pxml_file, database_dir]) == 0
        queries = tmp_path / "many.txt"
        queries.write_text("k1 k2\n" * 10, encoding="utf-8")
        capsys.readouterr()

        real_run_batch = cli_module._run_batch

        def signal_then_run(options, batch_queries, service, collector,
                            faults, *observability):
            # The service has loaded generation 1; commit generation 2
            # now so the reload is a genuine hot swap.
            assert main(["snapshot", database_dir]) == 0
            signal.raise_signal(signal.SIGHUP)
            return real_run_batch(options, batch_queries, service,
                                  collector, faults, *observability)

        monkeypatch.setattr(cli_module, "_run_batch", signal_then_run)
        code = main(["batch", database_dir, str(queries),
                     "--reload-on", "HUP"])
        assert code == 0
        captured = capsys.readouterr()
        assert "reloaded: now serving generation g00000002" \
            in captured.err
        assert "storage: generation g00000002 (epoch 2)" \
            in captured.out
        assert "reloads 1/1 ok" in captured.out


class TestSearchValidation:
    def test_invalid_k_reported(self, pxml_file, capsys):
        assert main(["search", pxml_file, "k1", "-k", "0"]) == 1
        assert "k must be positive" in capsys.readouterr().err

    def test_duplicate_keyword_reported(self, pxml_file, capsys):
        assert main(["search", pxml_file, "k1", "K1"]) == 1
        assert "duplicate query keyword" in capsys.readouterr().err

    def test_unindexable_keyword_reported(self, pxml_file, capsys):
        assert main(["search", pxml_file, "..."]) == 1
        assert "no indexable terms" in capsys.readouterr().err


class TestCorpusCommand:
    @pytest.fixture
    def corpus_sources(self, tmp_path):
        from repro import DocumentBuilder, write_pxml_file
        paths = []
        for name, prob in (("strong", 1.0), ("weak1", 0.05),
                           ("weak2", 0.05)):
            builder = DocumentBuilder(name)
            if prob >= 1.0:
                builder.leaf("a", text="k1")
                builder.leaf("b", text="k2")
            else:
                with builder.ind(prob=prob):
                    builder.leaf("a", text="k1")
                    builder.leaf("b", text="k2")
            path = tmp_path / f"{name}.pxml"
            write_pxml_file(builder.build(), path)
            paths.append(str(path))
        return paths

    def test_build_search_fsck_roundtrip(self, tmp_path,
                                         corpus_sources, capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "build", *corpus_sources,
                     "-o", corpus_dir, "--shards", "3",
                     "--strategy", "size"]) == 0
        out = capsys.readouterr().out
        assert "3 document(s)" in out and "3 shard(s)" in out

        assert main(["corpus", "search", corpus_dir, "k1", "k2",
                     "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 answer(s)" in out
        assert "2 pruned" in out  # the weak shards cannot beat Pr=1

        assert main(["corpus", "fsck", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("clean") == 3

    def test_search_json_reports_prunes(self, tmp_path,
                                        corpus_sources, capsys):
        import json as json_mod
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "build", *corpus_sources,
                     "-o", corpus_dir, "--shards", "3",
                     "--strategy", "size"]) == 0
        capsys.readouterr()
        assert main(["corpus", "search", corpus_dir, "k1", "k2",
                     "-k", "1", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["results"][0]["probability"] == 1.0
        assert payload["corpus"]["pruned"] == 2
        assert not payload["partial"]

    def test_corrupted_shard_quarantines_without_failing_search(
            self, tmp_path, corpus_sources, capsys):
        import os
        from repro.corpus import load_corpus_manifest
        from repro.index.storage import resolve_snapshot
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "build", *corpus_sources,
                     "-o", corpus_dir, "--shards", "3",
                     "--strategy", "size"]) == 0
        manifest = load_corpus_manifest(corpus_dir)
        weak_shard = next(doc.shard for doc in manifest.documents
                          if "weak1" in doc.name)
        snapshot_dir, _ = resolve_snapshot(
            manifest.shard_dir(weak_shard))
        with open(os.path.join(snapshot_dir, "postings.i64"), "a",
                  encoding="utf-8") as handle:
            handle.write("{torn-final-line")
        capsys.readouterr()
        # The damaged shard fails checksum verification and degrades;
        # the healthy shards still answer (a partial outcome).
        assert main(["corpus", "search", corpus_dir, "k1", "k2",
                     "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL: shard_failure" in out
        assert "1. Pr=1.000000" in out
        # fsck flags the shard (exit 0: the document is recoverable)...
        assert main(["corpus", "fsck", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "--repair" in out and out.count("clean") == 2
        # ...and repair quarantines the damage and heals the corpus.
        assert main(["corpus", "fsck", corpus_dir, "--repair"]) == 0
        assert "quarantined" in capsys.readouterr().out
        assert main(["corpus", "search", corpus_dir, "k1", "k2",
                     "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL" not in out
        assert "1. Pr=1.000000" in out

    def test_build_rejects_bad_strategy_count(self, tmp_path,
                                              corpus_sources, capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "build", *corpus_sources,
                     "-o", corpus_dir, "--shards", "0"]) == 1
        assert "positive" in capsys.readouterr().err
