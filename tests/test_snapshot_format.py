"""The format 2 snapshot: packed columns and postings, format 1 reads,
migration, per-file damage and repair (docs/STORAGE.md, docs/FORMAT.md).

Format 1 directories here are written by a test-local copy of the
format 1 writer (:mod:`tests.format1`), so these tests read the bytes
that writer really produced.
"""

import json
import os
import random
import threading

import pytest

from repro import Database, encode_document, load_database, save_database
from repro import topk_search
from repro.exceptions import StorageError
from repro.index.fsck import fsck_database
from repro.index.storage import (COLUMN_FILES, DATA_FILES, DOCUMENT_FILE,
                                 FORMAT_VERSION, MANIFEST_FILE,
                                 OFFSETS_FILE, TERMS_FILE,
                                 current_generation, read_manifest,
                                 resolve_snapshot)
from repro.obs.metrics import MetricsCollector
from tests.conftest import random_pdoc
from tests.format1 import save_format1

PROBES = (["k1"], ["k2"], ["k1", "k2"], ["k1", "k2", "k3"])


def answers(database) -> list:
    """Every probe's answers, probabilities as ``float.hex``."""
    rows = []
    for probe in PROBES:
        for algorithm in ("prstack", "eager"):
            outcome = topk_search(database, probe, 8, algorithm)
            rows.append([(str(r.code), r.probability.hex(), r.label)
                         for r in outcome])
    return rows


def seeded_database(seed: int) -> Database:
    return Database.from_document(random_pdoc(
        random.Random(seed), max_nodes=80, keywords=("k1", "k2", "k3"),
        with_exp=True))


def data_file(directory, name: str) -> str:
    return os.path.join(resolve_snapshot(directory)[0], name)


@pytest.fixture
def saved(figure1_doc, tmp_path):
    """``(directory, pristine answers)`` of a format 2 database."""
    database = Database.from_document(figure1_doc)
    directory = tmp_path / "db"
    save_database(database, directory)
    return directory, answers(database)


class TestColumns:
    @pytest.mark.parametrize("seed", range(12))
    def test_columns_and_postings_round_trip(self, seed, tmp_path):
        database = seeded_database(seed)
        directory = tmp_path / "db"
        save_database(database, directory)
        loaded = load_database(directory, verify=seed % 2 == 0)
        expected, got = database.encoded, loaded.encoded
        for _name, _typecode, column in COLUMN_FILES:
            assert list(getattr(got, column)) == \
                list(getattr(expected, column)), column
        assert [got.label(i) for i in range(len(got))] == \
            [expected.label(i) for i in range(len(expected))]
        assert got.exp == expected.exp
        assert loaded.index.raw_postings() == \
            database.index.raw_postings()
        assert answers(loaded) == answers(database)
        assert not got.has_document

    def test_manifest_and_meta_name_format_2(self, saved):
        directory, _ = saved
        snapshot = resolve_snapshot(directory)[0]
        manifest = read_manifest(snapshot)
        assert manifest["version"] == FORMAT_VERSION == 2
        assert sorted(manifest["files"]) == sorted(DATA_FILES)
        with open(os.path.join(snapshot, "meta.json")) as handle:
            assert json.load(handle)["version"] == 2

    def test_packed_files_are_little_endian(self, saved):
        directory, _ = saved
        loaded = load_database(directory)
        with open(data_file(directory, "parents.i64"), "rb") as handle:
            body = handle.read()
        assert [int.from_bytes(body[i:i + 8], "little", signed=True)
                for i in range(0, len(body), 8)] == \
            list(loaded.encoded.parents)
        with open(data_file(directory, "edges.f64"), "rb") as handle:
            assert len(handle.read()) == 8 * len(loaded.encoded)

    def test_verified_load_hashes_every_file(self, saved):
        directory, _ = saved
        collector = MetricsCollector()
        load_database(directory, collector=collector)
        counters = collector.snapshot()["counters"]
        assert counters["storage.verify.files"] == len(DATA_FILES)
        assert counters.get("storage.verify.failures", 0) == 0


class TestLazyTree:
    def test_tree_rechecks_the_document_before_parsing(self, saved):
        directory, _ = saved
        database = load_database(directory)
        with open(data_file(directory, DOCUMENT_FILE), "ab") as handle:
            handle.write(b" ")
        with pytest.raises(StorageError,
                           match=r"document\.pxml no longer matches"):
            database.document
        assert not database.encoded.has_document

    def test_racing_first_accesses_build_one_tree(self, saved,
                                                  monkeypatch):
        import repro.prxml.parser as parser
        directory, _ = saved
        database = load_database(directory, verify=False)
        parses = []
        real = parser.parse_pxml

        def counting(*args, **kwargs):
            parses.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_pxml", counting)
        barrier = threading.Barrier(4)
        trees = []

        def access():
            barrier.wait()
            trees.append(database.document)

        threads = [threading.Thread(target=access) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(parses) == 1
        assert all(tree is trees[0] for tree in trees)

    def test_saving_a_loaded_database_writes_the_same_bytes(self, saved,
                                                            tmp_path):
        directory, _ = saved
        copy = tmp_path / "copy"
        save_database(load_database(directory), copy)
        first = read_manifest(resolve_snapshot(directory)[0])["files"]
        second = read_manifest(resolve_snapshot(copy)[0])["files"]
        assert first == second


class TestFormat1:
    @pytest.mark.parametrize("seed", range(6))
    def test_loads_with_answers_identical_to_format_2(self, seed,
                                                      tmp_path):
        database = seeded_database(seed)
        save_format1(database, tmp_path / "v1")
        save_database(database, tmp_path / "v2")
        old = load_database(tmp_path / "v1")
        new = load_database(tmp_path / "v2")
        assert old.encoded.has_document  # format 1 parses its XML
        assert answers(old) == answers(new) == answers(database)

    def test_snapshot_command_migrates_to_format_2(self, figure1_doc,
                                                   tmp_path, capsys):
        from repro.cli import main
        database = Database.from_document(figure1_doc)
        directory = tmp_path / "db"
        save_format1(database, directory)
        pristine = answers(load_database(directory))
        assert main(["snapshot", str(directory), "--list"]) == 0
        assert "g00000001 *  format 1," in capsys.readouterr().out
        assert main(["snapshot", str(directory)]) == 0
        assert "g00000002" in capsys.readouterr().out
        manifest = read_manifest(resolve_snapshot(directory)[0])
        assert manifest["version"] == 2
        assert sorted(manifest["files"]) == sorted(DATA_FILES)
        migrated = load_database(directory)
        assert not migrated.encoded.has_document
        assert answers(migrated) == pristine
        assert main(["snapshot", str(directory), "--list"]) == 0
        listed = capsys.readouterr().out
        assert "g00000001  format 1," in listed
        assert "g00000002 *  format 2," in listed

    def test_fsck_calls_an_intact_format_1_snapshot_clean(
            self, figure1_doc, tmp_path):
        directory = tmp_path / "db"
        save_format1(Database.from_document(figure1_doc), directory)
        report = fsck_database(directory, repair=True)
        assert report.clean and not report.repaired


class TestDamage:
    @pytest.mark.parametrize("name", DATA_FILES)
    def test_load_refuses_naming_the_damaged_file(self, saved, name):
        directory, _ = saved
        path = data_file(directory, name)
        with open(path, "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 0x01]))
        with pytest.raises(StorageError) as caught:
            load_database(directory)
        message = str(caught.value)
        assert "checksum_mismatch" in message and path in message

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_fsck_names_the_file_and_repair_is_exact(self, saved, name):
        directory, pristine = saved
        path = data_file(directory, name)
        with open(path, "ab") as handle:
            handle.write(b"\x00torn")
        report = fsck_database(directory)
        assert path in {finding.path for finding in report.findings}
        if name == DOCUMENT_FILE:
            # The only generation's document is gone: never "repaired".
            assert not fsck_database(directory, repair=True).document_ok
            return
        assert report.document_ok and not report.clean
        repaired = fsck_database(directory, repair=True)
        assert repaired.repaired
        assert any(os.path.basename(quarantined) == name
                   for quarantined in repaired.quarantined)
        assert current_generation(directory) == \
            repaired.recovered_generation
        assert answers(load_database(directory)) == pristine
        assert fsck_database(directory).clean

    def test_missing_file_is_named(self, saved):
        directory, _ = saved
        path = data_file(directory, "ends.i64")
        os.remove(path)
        with pytest.raises(StorageError, match="missing_file"):
            load_database(directory)
        report = fsck_database(directory, repair=True)
        assert path in {finding.path for finding in report.findings}
        assert report.repaired


def test_fsck_unpacks_checksum_clean_columns(saved):
    """A column rewritten together with its manifest record passes the
    checksums; fsck still unpacks it and rebuilds."""
    import hashlib
    from repro.index.fsck import KIND_BAD_COLUMN
    directory, pristine = saved
    snapshot = resolve_snapshot(directory)[0]
    with open(os.path.join(snapshot, "kinds.u8"), "rb") as handle:
        body = handle.read()[:-1] + b"\x07"
    with open(os.path.join(snapshot, "kinds.u8"), "wb") as handle:
        handle.write(body)
    manifest_path = os.path.join(snapshot, MANIFEST_FILE)
    manifest = read_manifest(snapshot)
    manifest["files"]["kinds.u8"] = {
        "bytes": len(body), "sha256": hashlib.sha256(body).hexdigest()}
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    report = fsck_database(directory)
    assert KIND_BAD_COLUMN in {finding.kind for finding in report.findings}
    assert fsck_database(directory, repair=True).repaired
    assert answers(load_database(directory)) == pristine


class TestUnverifiedStructure:
    """What an unverified load (no checksums) still refuses."""

    def rewrite(self, directory, name, body: bytes) -> None:
        with open(data_file(directory, name), "wb") as handle:
            handle.write(body)

    def test_column_of_the_wrong_length(self, saved):
        directory, _ = saved
        with open(data_file(directory, "depths.i32"), "rb") as handle:
            body = handle.read()
        self.rewrite(directory, "depths.i32", body[:-4])
        with pytest.raises(StorageError, match=r"depths\.i32 holds"):
            load_database(directory, verify=False)

    def test_ragged_packed_file(self, saved):
        directory, _ = saved
        with open(data_file(directory, "paths.f64"), "rb") as handle:
            body = handle.read()
        self.rewrite(directory, "paths.f64", body + b"\x00")
        with pytest.raises(StorageError, match="not a whole number"):
            load_database(directory, verify=False)

    def test_unknown_kind_code(self, saved):
        directory, _ = saved
        with open(data_file(directory, "kinds.u8"), "rb") as handle:
            body = handle.read()
        self.rewrite(directory, "kinds.u8", body[:-1] + b"\x09")
        with pytest.raises(StorageError, match="unknown node kind"):
            load_database(directory, verify=False)

    def test_label_outside_the_tags(self, saved):
        directory, _ = saved
        self.rewrite(directory, "tags.json", b'["A"]\n')
        with pytest.raises(StorageError, match="label index outside"):
            load_database(directory, verify=False)

    def test_empty_posting_list(self, saved):
        directory, _ = saved
        with open(data_file(directory, OFFSETS_FILE), "rb") as handle:
            body = handle.read()
        # The first list ends where it starts.
        self.rewrite(directory, OFFSETS_FILE, body[:8] + body[:8]
                     + body[16:])
        with pytest.raises(StorageError, match="empty posting list"):
            load_database(directory, verify=False)

    def test_duplicate_and_non_string_terms(self, saved):
        directory, _ = saved
        with open(data_file(directory, TERMS_FILE)) as handle:
            terms = json.load(handle)
        self.rewrite(directory, TERMS_FILE,
                     json.dumps([terms[0]] + terms[:-1]).encode())
        with pytest.raises(StorageError, match="appears twice"):
            load_database(directory, verify=False)
        self.rewrite(directory, TERMS_FILE,
                     json.dumps([7] + terms[1:]).encode())
        with pytest.raises(StorageError, match="not a list of terms"):
            load_database(directory, verify=False)

    def test_offsets_past_the_ids(self, saved):
        directory, _ = saved
        with open(data_file(directory, OFFSETS_FILE), "rb") as handle:
            body = handle.read()
        self.rewrite(directory, OFFSETS_FILE, body[:-8]
                     + (10 ** 6).to_bytes(8, "little"))
        with pytest.raises(StorageError, match="do not delimit"):
            load_database(directory, verify=False)


def test_encoding_carries_labels_and_exp_table():
    document = random_pdoc(random.Random(4), max_nodes=80, with_exp=True)
    encoded = encode_document(document)
    assert [encoded.label(node.node_id) for node in document] == \
        [node.label for node in document]
    assert len(encoded.tags) == len({node.label for node in document})
    for node in document:
        assert encoded.exp_subsets_at(node.node_id) == \
            [(tuple(positions), probability)
             for positions, probability in node.exp_subsets or []]


def test_manifest_file_is_not_a_data_file():
    assert MANIFEST_FILE not in DATA_FILES
    assert DATA_FILES[0] == DOCUMENT_FILE and DATA_FILES[-1] == "meta.json"
