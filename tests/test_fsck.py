"""Tests for fsck: corruption triage, quarantine, salvage, rollback.

The safety contract under test (docs/STORAGE.md): repair either
restores a database whose answers are *exactly* the pristine ones
(rebuilt postings from a checksum-intact document, or a rollback to an
intact generation) or declares the directory unrecoverable — it never
quietly serves a document it cannot vouch for.
"""

import json
import os
import shutil

import pytest

from repro import Database, load_database, save_database, topk_search
from repro.exceptions import StorageError
from repro.index.fsck import (KIND_BAD_MANIFEST, KIND_BAD_RECORD,
                              KIND_COUNT_MISMATCH,
                              KIND_DOCUMENT_DEGRADED, KIND_FALLBACK,
                              KIND_MALFORMED_ELEMENT, KIND_MISSING_FILE,
                              KIND_POSTING_OUT_OF_RANGE,
                              KIND_STALE_STAGING, KIND_TRUNCATED_LINE,
                              QUARANTINE_DIR, fsck_database)
from repro.index.storage import (MANIFEST_FILE, SNAPSHOTS_DIR,
                                 STAGING_PREFIX, current_generation,
                                 resolve_snapshot, snapshot_path)
from tests.format1 import save_format1, save_legacy

QUERY = ["k1", "k2"]


def answers(database) -> list:
    outcome = topk_search(database, QUERY, 5, "prstack")
    return [(str(r.code), round(r.probability, 12)) for r in outcome]


@pytest.fixture
def populated(figure1_doc, tmp_path):
    """``(directory, pristine answers)`` for a one-generation database."""
    database = Database.from_document(figure1_doc)
    directory = tmp_path / "db"
    save_database(database, directory)
    return directory, answers(database)


@pytest.fixture
def populated_format1(figure1_doc, tmp_path):
    """``populated`` in format 1, whose postings.jsonl fsck triages
    line by line."""
    database = Database.from_document(figure1_doc)
    directory = tmp_path / "db1"
    save_format1(database, directory)
    return directory, answers(database)


def kinds(report) -> set:
    return {finding.kind for finding in report.findings}


def data_file(directory, name: str) -> str:
    return os.path.join(resolve_snapshot(directory)[0], name)


class TestTriage:
    def test_clean_database(self, populated):
        directory, _ = populated
        report = fsck_database(directory)
        assert report.clean and report.document_ok
        assert report.exit_code() == 0
        assert any("clean" in line for line in report.lines())

    def test_bad_postings_record(self, populated_format1):
        directory, _ = populated_format1
        with open(data_file(directory, "postings.jsonl"), "a") as handle:
            handle.write('{"t": "ghost"\n')
        report = fsck_database(directory)
        assert KIND_BAD_RECORD in kinds(report)
        assert report.document_ok and not report.clean
        bad = [f for f in report.findings if f.kind == KIND_BAD_RECORD]
        assert bad[0].line is not None
        assert f":{bad[0].line}:" in bad[0].describe()

    def test_truncated_final_line(self, populated_format1):
        directory, _ = populated_format1
        path = data_file(directory, "postings.jsonl")
        body = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body[:-9])  # cut mid-record, no trailing \n
        report = fsck_database(directory)
        assert KIND_TRUNCATED_LINE in kinds(report)
        assert report.document_ok

    def test_posting_id_out_of_range(self, populated_format1):
        directory, _ = populated_format1
        path = data_file(directory, "postings.jsonl")
        lines = open(path, encoding="utf-8").readlines()
        record = json.loads(lines[0])
        record["ids"] = record["ids"] + [9999]
        lines[0] = json.dumps(record) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        report = fsck_database(directory)
        findings = [f for f in report.findings
                    if f.kind == KIND_POSTING_OUT_OF_RANGE]
        assert findings and findings[0].line == 1
        assert "9999" in findings[0].detail

    def test_meta_count_mismatch(self, populated):
        directory, _ = populated
        path = data_file(directory, "meta.json")
        meta = json.load(open(path))
        meta["nodes"] += 3
        with open(path, "w") as handle:
            json.dump(meta, handle)
        report = fsck_database(directory)
        assert KIND_COUNT_MISMATCH in kinds(report)
        assert report.document_ok

    def test_stale_staging_directory(self, populated):
        directory, _ = populated
        litter = os.path.join(directory, SNAPSHOTS_DIR,
                              STAGING_PREFIX + "g00000099")
        os.makedirs(litter)
        report = fsck_database(directory)
        assert KIND_STALE_STAGING in kinds(report)
        assert os.path.isdir(litter)  # triage-only run keeps it
        fsck_database(directory, repair=True)
        assert not os.path.isdir(litter)

    def test_not_a_database(self, tmp_path):
        with pytest.raises(StorageError, match="not a database"):
            fsck_database(tmp_path)


class TestRepair:
    def test_postings_repair_is_exact(self, populated_format1):
        directory, pristine = populated_format1
        path = data_file(directory, "postings.jsonl")
        with open(path, "a") as handle:
            handle.write("{garbage\n")
        report = fsck_database(directory, repair=True)
        assert report.repaired and report.document_ok
        assert report.recovered_generation == \
            current_generation(directory)
        assert answers(load_database(directory)) == pristine

    def test_quarantine_preserves_bad_lines(self, populated_format1):
        directory, _ = populated_format1
        path = data_file(directory, "postings.jsonl")
        generation = current_generation(directory)
        with open(path, "a") as handle:
            handle.write("{garbage\n")
        report = fsck_database(directory, repair=True)
        quarantine = os.path.join(directory, QUARANTINE_DIR, generation)
        assert report.quarantine_dir == \
            os.path.join(directory, QUARANTINE_DIR)
        bad = open(os.path.join(quarantine,
                                "postings.bad.jsonl")).read()
        assert "{garbage" in bad
        diagnostics = open(os.path.join(quarantine, "REPORT.txt")).read()
        assert "postings.jsonl" in diagnostics
        assert "[" in diagnostics  # the [kind] tag

    def test_document_damage_rolls_back_to_intact_generation(
            self, figure1_doc, tmp_path):
        database = Database.from_document(figure1_doc)
        directory = tmp_path / "db"
        save_database(database, directory)
        pristine = answers(database)
        second = save_database(database, directory)
        doc_path = data_file(directory, "document.pxml")
        with open(doc_path, "ab") as handle:
            handle.write(b"<oops>")
        report = fsck_database(directory, repair=True)
        assert KIND_FALLBACK in kinds(report)
        assert report.repaired and report.document_ok
        assert current_generation(directory) != second
        assert answers(load_database(directory)) == pristine

    def test_single_corrupt_document_is_unrecoverable(self, populated):
        directory, _ = populated
        with open(data_file(directory, "document.pxml"), "ab") as handle:
            handle.write(b"<oops>")
        report = fsck_database(directory, repair=True)
        assert not report.document_ok
        assert report.exit_code() == 1
        assert any("UNRECOVERABLE" in line for line in report.lines())
        with pytest.raises(StorageError):
            load_database(directory)

    def test_bad_manifest_falls_back(self, figure1_doc, tmp_path):
        database = Database.from_document(figure1_doc)
        directory = tmp_path / "db"
        first = save_database(database, directory)
        save_database(database, directory)
        manifest = os.path.join(resolve_snapshot(directory)[0],
                                MANIFEST_FILE)
        with open(manifest, "w") as handle:
            handle.write("not json at all")
        report = fsck_database(directory, repair=True)
        assert KIND_BAD_MANIFEST in kinds(report)
        assert report.repaired
        assert current_generation(directory) == first

    def test_current_pointing_nowhere_falls_back(self, figure1_doc,
                                                 tmp_path):
        database = Database.from_document(figure1_doc)
        directory = tmp_path / "db"
        generation = save_database(database, directory)
        shutil.rmtree(snapshot_path(directory, generation))
        save_database(database, directory)
        missing = save_database(database, directory)
        shutil.rmtree(snapshot_path(directory, missing))
        report = fsck_database(directory, repair=True)
        assert KIND_MISSING_FILE in kinds(report)
        assert report.document_ok and report.repaired
        load_database(directory)

    def test_repair_is_idempotent(self, populated_format1):
        directory, pristine = populated_format1
        with open(data_file(directory, "postings.jsonl"), "a") as handle:
            handle.write("{garbage\n")
        fsck_database(directory, repair=True)
        report = fsck_database(directory, repair=True)
        assert report.clean and not report.repaired
        assert answers(load_database(directory)) == pristine


class TestLegacySalvage:
    @pytest.fixture
    def legacy_dir(self, figure1_doc, tmp_path):
        legacy = tmp_path / "legacy"
        save_legacy(Database.from_document(figure1_doc), legacy)
        return legacy

    def test_clean_legacy_reports_clean(self, legacy_dir):
        report = fsck_database(legacy_dir)
        assert report.legacy and report.clean and report.document_ok

    def test_malformed_element_is_salvaged_with_position(
            self, legacy_dir):
        doc_path = os.path.join(legacy_dir, "document.pxml")
        body = open(doc_path, encoding="utf-8").read()
        # Damage one leaf's probability attribute in place.
        damaged = body.replace('prob="0.8"', 'prob="bogus"', 1)
        assert damaged != body
        with open(doc_path, "w", encoding="utf-8") as handle:
            handle.write(damaged)
        report = fsck_database(legacy_dir, repair=True)
        assert KIND_MALFORMED_ELEMENT in kinds(report)
        assert KIND_DOCUMENT_DEGRADED in kinds(report)
        dropped = [f for f in report.findings
                   if f.kind == KIND_MALFORMED_ELEMENT]
        assert dropped[0].line is not None
        # Salvage migrates into the snapshot layout and stays loadable.
        assert report.repaired and report.document_ok
        assert current_generation(legacy_dir) is not None
        load_database(legacy_dir)
        subtrees = os.listdir(os.path.join(legacy_dir, QUARANTINE_DIR,
                                           "legacy"))
        assert any(name.startswith("subtree-") for name in subtrees)

    def test_legacy_postings_rebuild(self, legacy_dir, figure1_doc):
        with open(os.path.join(legacy_dir, "postings.jsonl"),
                  "a") as handle:
            handle.write("{garbage\n")
        report = fsck_database(legacy_dir, repair=True)
        assert report.repaired and report.document_ok
        rebuilt = load_database(legacy_dir)
        pristine = Database.from_document(figure1_doc)
        assert answers(rebuilt) == answers(pristine)


class TestFsckCli:
    def test_cli_clean_and_corrupt_paths(self, populated_format1, capsys):
        from repro.cli import main
        directory, pristine = populated_format1
        assert main(["fsck", str(directory)]) == 0
        assert "clean" in capsys.readouterr().out
        with open(data_file(directory, "postings.jsonl"),
                  "a") as handle:
            handle.write("{garbage\n")
        assert main(["fsck", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "bad_record" in out and "--repair" in out
        assert main(["fsck", str(directory), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "quarantined" in out
        assert answers(load_database(directory)) == pristine

    def test_cli_unrecoverable_exits_nonzero(self, populated, capsys):
        from repro.cli import main
        directory, _ = populated
        with open(data_file(directory, "document.pxml"),
                  "ab") as handle:
            handle.write(b"<oops>")
        assert main(["fsck", str(directory), "--repair"]) == 1
        assert "UNRECOVERABLE" in capsys.readouterr().out

    def test_cli_snapshot_list_and_write(self, populated, capsys):
        from repro.cli import main
        directory, _ = populated
        assert main(["snapshot", str(directory), "--list"]) == 0
        listed = capsys.readouterr().out
        assert "g00000001 *" in listed and "nodes" in listed
        assert main(["snapshot", str(directory)]) == 0
        assert "g00000002" in capsys.readouterr().out
        assert main(["snapshot", str(directory), "--list"]) == 0
        assert "g00000002 *" in capsys.readouterr().out
