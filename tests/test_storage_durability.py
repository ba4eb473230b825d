"""Crash-safety tests for the snapshot storage layer.

The central claim of docs/STORAGE.md: a crash at *any* point during
``save_database`` leaves the previously-current generation loadable and
bit-for-bit identical.  These tests prove it by injecting an OSError at
every write-``open`` and every ``os.replace`` the save performs, one
failure point at a time, and hashing the surviving tree after each
crash.  The legacy flat layout and the version/upgrade error texts are
pinned down at the end.
"""

import builtins
import hashlib
import json
import os
import shutil

import pytest

from repro import Database, load_database, save_database, topk_search
from repro.exceptions import StorageError
from repro.index import storage
from repro.index.storage import (CURRENT_FILE, DATA_FILES,
                                 FORMAT_VERSION, MANIFEST_FILE,
                                 current_generation, list_generations,
                                 resolve_snapshot, snapshot_path)
from tests.format1 import save_legacy


@pytest.fixture
def database(figure1_doc):
    return Database.from_document(figure1_doc)


def tree_digests(directory) -> dict:
    """``relative path -> sha256`` for every file under ``directory``."""
    digests = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            relative = os.path.relpath(path, directory)
            with open(path, "rb") as handle:
                digests[relative] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests


def generation_digests(directory) -> dict:
    """Digests of the *committed* state: CURRENT + its snapshot files."""
    generation = current_generation(directory)
    snapshot = snapshot_path(directory, generation)
    digests = {CURRENT_FILE: tree_digests(directory).get(CURRENT_FILE)}
    for relative, digest in tree_digests(snapshot).items():
        digests[os.path.join(generation, relative)] = digest
    return digests


class _CrashAt:
    """Raise OSError on the N-th matching call, counting from 1."""

    def __init__(self, target: int):
        self.target = target
        self.calls = 0

    def strike(self) -> None:
        self.calls += 1
        if self.calls == self.target:
            raise OSError("injected crash")


def _crashing_open(crash: _CrashAt, real_open):
    def wrapper(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wax+"):
            crash.strike()
        return real_open(file, mode, *args, **kwargs)
    return wrapper


def _crashing_replace(crash: _CrashAt, real_replace):
    def wrapper(src, dst, **kwargs):
        crash.strike()
        return real_replace(src, dst, **kwargs)
    return wrapper


def _count_calls(monkeypatch, database, directory, patch) -> int:
    """How many patched calls one successful save performs."""
    probe = shutil.copytree(directory, str(directory) + ".probe")
    crash = _CrashAt(target=0)  # target 0 never fires
    patch(monkeypatch, crash)
    save_database(database, probe)
    monkeypatch.undo()
    shutil.rmtree(probe)
    assert crash.calls > 0
    return crash.calls


def _patch_open(monkeypatch, crash):
    monkeypatch.setattr(builtins, "open",
                        _crashing_open(crash, builtins.open))


def _patch_replace(monkeypatch, crash):
    monkeypatch.setattr(storage.os, "replace",
                        _crashing_replace(crash, os.replace))


class TestCrashMidSave:
    @pytest.mark.parametrize("patch", [_patch_open, _patch_replace],
                             ids=["open", "os.replace"])
    def test_every_failure_point_preserves_previous_generation(
            self, database, tmp_path, monkeypatch, patch):
        directory = tmp_path / "db"
        save_database(database, directory)
        committed = generation_digests(directory)
        baseline = topk_search(load_database(directory),
                               ["k1", "k2"], 5, "prstack")
        expected = [(str(r.code), r.probability) for r in baseline]
        points = _count_calls(monkeypatch, database, directory, patch)
        for target in range(1, points + 1):
            crash = _CrashAt(target)
            patch(monkeypatch, crash)
            with pytest.raises(StorageError, match="injected crash"):
                save_database(database, directory)
            monkeypatch.undo()
            assert crash.calls == target, \
                f"failure point {target} never fired"
            # The committed generation is bit-identical and loadable,
            # and still yields the same answers.
            assert generation_digests(directory) == committed, \
                f"failure point {target} disturbed the committed state"
            survivor = load_database(directory)
            results = topk_search(survivor, ["k1", "k2"], 5, "prstack")
            assert [(str(r.code), r.probability)
                    for r in results] == expected
            # No staging litter survives a failed save.
            snapshots = os.path.join(directory, storage.SNAPSHOTS_DIR)
            assert not [name for name in os.listdir(snapshots)
                        if name.startswith(storage.STAGING_PREFIX)]

    def test_crash_free_save_appends_a_generation(self, database,
                                                  tmp_path):
        directory = tmp_path / "db"
        first = save_database(database, directory)
        second = save_database(database, directory)
        assert first != second
        assert list_generations(directory) == [first, second]
        assert current_generation(directory) == second

    def test_save_failure_reports_storage_error(self, database,
                                                tmp_path, monkeypatch):
        directory = tmp_path / "db"
        crash = _CrashAt(target=1)
        _patch_replace(monkeypatch, crash)
        with pytest.raises(StorageError, match="cannot write database"):
            save_database(database, directory)


class TestManifest:
    def test_manifest_records_every_data_file(self, database, tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        data_dir, generation = resolve_snapshot(directory)
        manifest = json.load(open(os.path.join(data_dir, MANIFEST_FILE)))
        assert manifest["format"] == storage.MANIFEST_FORMAT
        assert manifest["generation"] == generation
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["nodes"] == len(database.document)
        assert manifest["terms"] == len(database.index)
        for name in DATA_FILES:
            record = manifest["files"][name]
            digest, size = storage.sha256_file(
                os.path.join(data_dir, name))
            assert record == {"bytes": size, "sha256": digest}

    def test_newer_manifest_format_names_upgrade_path(self, database,
                                                      tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        data_dir, _ = resolve_snapshot(directory)
        path = os.path.join(data_dir, MANIFEST_FILE)
        manifest = json.load(open(path))
        manifest["format"] = "repro.manifest/v99"
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StorageError,
                           match=r"repro\.manifest/v99.*newer.*"
                                 r"upgrade the repro library"):
            load_database(directory)


class TestVersionErrors:
    def _tamper_version(self, directory, version):
        data_dir, _ = resolve_snapshot(directory)
        path = os.path.join(data_dir, "meta.json")
        meta = json.load(open(path))
        meta["version"] = version
        with open(path, "w") as handle:
            json.dump(meta, handle)

    def test_newer_version_names_both_versions(self, database,
                                               tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        self._tamper_version(directory, FORMAT_VERSION + 41)
        with pytest.raises(StorageError) as info:
            load_database(directory, verify=False)
        message = str(info.value)
        assert str(FORMAT_VERSION + 41) in message
        assert str(FORMAT_VERSION) in message
        assert "newer" in message

    def test_garbage_version_names_supported_version(self, database,
                                                     tmp_path):
        directory = tmp_path / "db"
        save_database(database, directory)
        self._tamper_version(directory, "ancient")
        with pytest.raises(StorageError,
                           match=f"reads version {FORMAT_VERSION}"):
            load_database(directory, verify=False)


class TestLegacyLayout:
    @pytest.fixture
    def legacy_dir(self, database, tmp_path):
        """A pre-snapshot flat directory: data files at the top level,
        no CURRENT, no manifest."""
        legacy = tmp_path / "legacy"
        save_legacy(database, legacy)
        return legacy

    def test_loads_read_only(self, database, legacy_dir):
        loaded = load_database(legacy_dir)
        assert loaded.generation is None
        assert len(loaded.document) == len(database.document)
        assert loaded.index.vocabulary() == \
            database.index.vocabulary()

    def test_save_migrates_to_snapshot_layout(self, legacy_dir):
        loaded = load_database(legacy_dir)
        generation = save_database(loaded, legacy_dir)
        assert current_generation(legacy_dir) == generation
        migrated = load_database(legacy_dir)
        assert migrated.generation == generation
        assert migrated.index.vocabulary() == \
            loaded.index.vocabulary()

    def test_not_a_database_at_all(self, tmp_path):
        with pytest.raises(StorageError,
                           match="no CURRENT pointer and no legacy"):
            load_database(tmp_path)
