"""Unit tests for database persistence."""

import json
import os

import pytest

from repro import Database, load_database, save_database
from repro.exceptions import StorageError
from repro.index.storage import DATA_FILES, resolve_snapshot
from tests.format1 import save_format1


@pytest.fixture
def database(figure1_doc):
    return Database.from_document(figure1_doc)


def data_dir(directory) -> str:
    """The active snapshot directory holding the data files."""
    return resolve_snapshot(directory)[0]


class TestSaveLoad:
    def test_round_trip(self, database, tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        loaded = load_database(directory)
        assert len(loaded.document) == len(database.document)
        assert loaded.index.vocabulary() == database.index.vocabulary()
        for term in database.index.vocabulary():
            assert list(loaded.index.postings(term)) == \
                list(database.index.postings(term))

    def test_round_trip_preserves_search_results(self, database, tmp_path):
        from repro import topk_search
        directory = tmp_path / "db"
        save_database(database, directory)
        loaded = load_database(directory)
        original = topk_search(database, ["k1", "k2"], 5, "prstack")
        reloaded = topk_search(loaded, ["k1", "k2"], 5, "prstack")
        assert [(str(r.code), round(r.probability, 12)) for r in original] \
            == [(str(r.code), round(r.probability, 12)) for r in reloaded]

    def test_creates_directory(self, database, tmp_path):
        directory = tmp_path / "nested" / "db"
        save_database(database, directory)
        assert (directory / "CURRENT").exists()
        assert os.path.exists(os.path.join(data_dir(directory),
                                           "meta.json"))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path / "absent")

    def test_version_mismatch(self, database, tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        meta_path = os.path.join(data_dir(directory), "meta.json")
        meta = json.loads(open(meta_path).read())
        meta["version"] = 999
        with open(meta_path, "w") as handle:
            handle.write(json.dumps(meta))
        with pytest.raises(StorageError, match="version"):
            load_database(directory, verify=False)

    def test_node_count_mismatch(self, database, tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        meta_path = os.path.join(data_dir(directory), "meta.json")
        meta = json.loads(open(meta_path).read())
        meta["nodes"] += 1
        with open(meta_path, "w") as handle:
            handle.write(json.dumps(meta))
        with pytest.raises(StorageError, match="nodes"):
            load_database(directory, verify=False)

    def test_corrupt_postings_line(self, database, tmp_path):
        directory = tmp_path / "db"
        save_format1(database, directory)  # JSONL postings
        postings_path = os.path.join(data_dir(directory),
                                     "postings.jsonl")
        with open(postings_path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        with pytest.raises(StorageError, match="bad record"):
            load_database(directory, verify=False)

    def test_term_count_mismatch(self, database, tmp_path):
        directory = tmp_path / "db"
        save_format1(database, directory)  # JSONL postings
        postings_path = os.path.join(data_dir(directory),
                                     "postings.jsonl")
        with open(postings_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": "extra", "ids": [0]}) + "\n")
        with pytest.raises(StorageError, match="terms"):
            load_database(directory, verify=False)


class TestPersistenceHardening:
    def test_non_ascii_terms_round_trip(self, tmp_path):
        from repro import DocumentBuilder
        builder = DocumentBuilder("menu")
        builder.leaf("dish", text="Café Crème")
        builder.leaf("dish", text="Smørrebrød")
        database = Database.from_document(builder.build())
        directory = tmp_path / "db"
        save_database(database, directory)
        raw_path = os.path.join(data_dir(directory), "terms.json")
        raw = open(raw_path, encoding="utf-8").read()
        assert "café" in raw and "\\u" not in raw
        loaded = load_database(directory)
        assert list(loaded.index.postings("café")) == \
            list(database.index.postings("café"))
        assert list(loaded.index.postings("smørrebrød")) == \
            list(database.index.postings("smørrebrød"))

    def test_save_rejects_empty_posting_list(self, database, tmp_path):
        database.index.raw_postings()["ghost"] = \
            database.index.raw_postings()["k1"][:0]
        with pytest.raises(StorageError, match="'ghost'"):
            save_database(database, tmp_path / "db")

    def test_load_rejects_empty_posting_list(self, database, tmp_path):
        directory = tmp_path / "db"
        save_format1(database, directory)  # JSONL postings
        postings_path = os.path.join(data_dir(directory),
                                     "postings.jsonl")
        with open(postings_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0] = json.dumps({"t": "ghost", "ids": []}) + "\n"
        with open(postings_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError,
                           match=r"postings\.jsonl:1.*'ghost'.*empty"):
            load_database(directory, verify=False)

    def test_load_rejects_non_string_term(self, database, tmp_path):
        directory = tmp_path / "db"
        save_format1(database, directory)  # JSONL postings
        postings_path = os.path.join(data_dir(directory),
                                     "postings.jsonl")
        with open(postings_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": 7, "ids": [0]}) + "\n")
        with pytest.raises(StorageError, match="not a string"):
            load_database(directory, verify=False)

    def test_load_rejects_duplicate_term(self, database, tmp_path):
        directory = tmp_path / "db"
        save_format1(database, directory)  # JSONL postings
        postings_path = os.path.join(data_dir(directory),
                                     "postings.jsonl")
        with open(postings_path, encoding="utf-8") as handle:
            first = handle.readline()
        with open(postings_path, "a", encoding="utf-8") as handle:
            handle.write(first)
        with pytest.raises(StorageError, match="appears twice"):
            load_database(directory, verify=False)

    def test_verify_catches_every_tampered_file(self, database, tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        for name in DATA_FILES:
            path = os.path.join(data_dir(directory), name)
            original = open(path, "rb").read()
            with open(path, "ab") as handle:
                handle.write(b" ")
            with pytest.raises(StorageError,
                               match=f"verification.*{name}"):
                load_database(directory)
            with open(path, "wb") as handle:
                handle.write(original)
        load_database(directory)  # pristine again


def unique_database(tag: str) -> Database:
    """A small database no other test saves, so no earlier load's
    in-memory copy can answer for it."""
    from repro import DocumentBuilder
    builder = DocumentBuilder("catalog")
    builder.leaf("title", text=f"only {tag}")
    with builder.mux():
        builder.leaf("year", text="1984", prob=0.8)
        builder.leaf("year", text="1985", prob=0.2)
    return Database.from_document(builder.build())


class TestSingleReadSharedCopy:
    def test_one_open_per_data_file_and_no_position_scan(
            self, tmp_path, monkeypatch):
        import builtins
        import xml.etree.ElementTree as ET
        import xml.parsers.expat
        from repro.obs.metrics import MetricsCollector
        directory = tmp_path / "db"
        save_database(unique_database("single-read"), directory)
        document_path = os.path.join(data_dir(directory), "document.pxml")
        with open(document_path, "rb") as handle:
            document_bytes = handle.read()

        parsers = []
        real_create = xml.parsers.expat.ParserCreate

        def counting_create(*args, **kwargs):
            parsers.append(args)
            return real_create(*args, **kwargs)

        monkeypatch.setattr(xml.parsers.expat, "ParserCreate",
                            counting_create)
        ET.fromstring(document_bytes)
        elementtree_own = len(parsers)

        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.basename(os.fspath(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        parsers.clear()
        collector = MetricsCollector()
        database = load_database(directory, collector=collector)
        monkeypatch.undo()

        counters = collector.snapshot()["counters"]
        assert "storage.load.shared" not in counters  # really parsed
        assert not database.encoded.has_document  # no XML parsed
        assert len(database.document) == 5
        for name in DATA_FILES:
            assert opened.count(name) == 1, (name, opened)
        assert len(parsers) == elementtree_own

    def test_verified_loads_of_one_content_share_the_index(self,
                                                           tmp_path):
        import shutil
        directory = tmp_path / "db"
        save_database(unique_database("share"), directory)
        twin = tmp_path / "twin"
        shutil.copytree(directory, twin)
        first = load_database(directory)
        second = load_database(twin)
        assert second.index is first.index
        assert second.encoded is first.encoded
        assert (first.directory, second.directory) == \
            (str(directory), str(twin))
        assert second.generation == first.generation

    def test_racing_loads_of_one_content_end_with_one_copy(self,
                                                           tmp_path):
        import threading
        directory = tmp_path / "db"
        save_database(unique_database("race"), directory)
        barrier = threading.Barrier(4)
        loaded = []

        def load():
            barrier.wait()
            loaded.append(load_database(directory))

        threads = [threading.Thread(target=load) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(loaded) == 4
        assert all(database.index is loaded[0].index
                   for database in loaded)

    def test_unverified_and_legacy_loads_never_share(self, tmp_path):
        import shutil
        directory = tmp_path / "db"
        save_database(unique_database("unshared"), directory)
        verified = load_database(directory)
        unverified = [load_database(directory, verify=False)
                      for _ in range(2)]
        assert unverified[0].index is not verified.index
        assert unverified[1].index is not unverified[0].index
        legacy = tmp_path / "legacy"
        os.makedirs(legacy)
        for name in DATA_FILES:
            shutil.copy(os.path.join(data_dir(directory), name),
                        legacy / name)
        first, second = load_database(legacy), load_database(legacy)
        assert first.generation is None
        assert first.index is not second.index
        assert first.index is not verified.index
        assert load_database(directory).index is verified.index

    def test_a_torn_copy_fails_even_with_its_twin_in_memory(self,
                                                            tmp_path):
        import shutil
        directory = tmp_path / "db"
        save_database(unique_database("torn"), directory)
        twin = tmp_path / "twin"
        shutil.copytree(directory, twin)
        with open(os.path.join(data_dir(twin), "postings.i64"),
                  "a", encoding="utf-8") as handle:
            handle.write("\n{torn")
        with pytest.raises(StorageError) as alone:
            load_database(twin)
        healthy = load_database(directory)
        with pytest.raises(StorageError) as beside:
            load_database(twin)
        assert str(beside.value) == str(alone.value)
        assert "failed verification: size_mismatch" in str(beside.value)
        assert healthy.index is load_database(directory).index

    def test_reload_shares_unchanged_content_with_fresh_caches(
            self, tmp_path):
        from repro.service.service import QueryService
        directory = tmp_path / "db"
        save_database(unique_database("reload"), directory)
        service = QueryService(str(directory))
        index = service.current_index()
        assert service.search(["year", "1984"], k=3).stats.get(
            "service") != "result_cache"
        assert service.search(["year", "1984"], k=3).stats.get(
            "service") == "result_cache"
        service.reload()
        assert service.current_index() is index
        assert service.search(["year", "1984"], k=3).stats.get(
            "service") != "result_cache"
        save_database(unique_database("reload, changed"), directory)
        service.reload()
        assert service.current_index() is not index
        assert service.storage_stats()["generation"] == "g00000002"
