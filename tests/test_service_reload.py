"""Tests for QueryService hot reload (docs/STORAGE.md).

The swap contract: a reload installs a fully-built new generation with
one atomic reference assignment; every query runs entirely against the
generation it captured (index + caches + result LRU from one state),
failed reloads are rejected while the old generation keeps serving,
and the ``storage`` stats block reports what is being served.
"""

import http.client
import json
import threading
import time

import pytest

from repro import (Database, DocumentBuilder, QueryService,
                   save_database, topk_search)
from repro.exceptions import StorageError
from repro.obs import MetricsCollector
from repro.resilience import parse_faults
from repro.serve import ServeConfig, start_in_thread


def build_doc(texts):
    builder = DocumentBuilder("root")
    for text, prob in texts:
        builder.leaf("item", text=text, prob=prob)
    return builder.build()


@pytest.fixture
def doc_a():
    return build_doc([("common alpha", 0.5), ("common", 0.5),
                      ("alpha", 0.9)])


@pytest.fixture
def doc_b():
    return build_doc([("common bravo", 0.25), ("common", 0.25),
                      ("common", 0.25), ("bravo", 0.8)])


def expected(document, terms):
    outcome = topk_search(Database.from_document(document), terms, 10,
                          "prstack")
    return [(str(r.code), round(r.probability, 12))
            for r in outcome.results]


def observed(outcome):
    return [(str(r.code), round(r.probability, 12))
            for r in outcome.results]


class TestReloadBasics:
    def test_reload_from_directory_picks_up_new_generation(
            self, doc_a, doc_b, tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        assert observed(service.search(["common"])) == \
            expected(doc_a, ["common"])
        save_database(Database.from_document(doc_b), directory)
        state = service.reload()
        assert state.generation == "g00000002"
        assert observed(service.search(["common"])) == \
            expected(doc_b, ["common"])

    def test_reload_does_not_replay_old_generation_cache(
            self, doc_a, doc_b, tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        first = service.search(["common"])
        again = service.search(["common"])
        assert again.stats.get("service") == "result_cache"
        save_database(Database.from_document(doc_b), directory)
        service.reload()
        fresh = service.search(["common"])
        # A replay of generation A's cached answer here would be
        # silently wrong; the state swap must drop it.
        assert fresh.stats.get("service") != "result_cache"
        assert observed(fresh) != observed(first)

    def test_reload_without_directory_provenance_is_rejected(
            self, doc_a):
        service = QueryService(Database.from_document(doc_a))
        with pytest.raises(StorageError, match="no source"):
            service.reload()
        # ... but an explicit source works.
        service.reload(Database.from_document(doc_a))
        assert service.storage_stats()["epoch"] == 2

    def test_failed_reload_keeps_old_generation_serving(
            self, doc_a, tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        baseline = observed(service.search(["common"]))
        with pytest.raises(StorageError,
                           match="previous generation keeps serving"):
            service.reload(str(tmp_path / "absent"))
        stats = service.storage_stats()
        assert stats["generation"] == "g00000001"
        assert stats["reloads"]["rejected"] == 1
        assert "absent" in stats["reloads"]["last_error"]
        assert observed(service.search(["common"])) == baseline

    def test_injected_reload_corrupt_fault_rejects(self, doc_a,
                                                   tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        injector = parse_faults(
            "reload_corrupt:times=1,message=checksum blown")
        with pytest.raises(StorageError, match="checksum blown"):
            service.reload(faults=injector)
        assert service.storage_stats()["reloads"]["rejected"] == 1
        # The fault is exhausted (times=1): the next reload succeeds.
        state = service.reload(faults=injector)
        assert state.epoch == 2

    def test_reload_counters_reach_collector(self, doc_a, tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        collector = MetricsCollector()
        service = QueryService(str(directory), collector=collector)
        service.reload()
        with pytest.raises(StorageError):
            service.reload(str(tmp_path / "absent"))
        counters = collector.snapshot()["counters"]
        assert counters["service.reload.attempts"] == 2
        assert counters["service.reload.successes"] == 1
        assert counters["service.reload.rejected"] == 1

    def test_batch_stats_carry_storage_block(self, doc_a, tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        batch = service.batch_search(["common", "alpha"], k=5)
        storage = batch.stats["storage"]
        assert storage["generation"] == "g00000001"
        assert storage["epoch"] == 1
        assert storage["reloads"]["attempts"] == 0


class TestReloadHammer:
    def test_queries_always_see_exactly_one_generation(
            self, doc_a, doc_b, tmp_path):
        """The concurrency hammer: worker threads query continuously
        while the main thread flips the database back and forth.
        Every single outcome must equal generation A's exact answers
        or generation B's exact answers — any other value means a
        query straddled the swap."""
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        legal = {tuple(expected(doc_a, ["common"])),
                 tuple(expected(doc_b, ["common"]))}
        assert len(legal) == 2  # the generations must be tellable apart

        stop = threading.Event()
        errors = []
        illegal = []

        def hammer():
            while not stop.is_set():
                try:
                    outcome = service.search(["common"])
                except Exception as error:  # pragma: no cover - fails test
                    errors.append(error)
                    return
                row = tuple(observed(outcome))
                if row not in legal:
                    illegal.append(row)  # pragma: no cover - fails test
                    return

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            documents = [doc_b, doc_a]
            for flip in range(6):
                save_database(
                    Database.from_document(documents[flip % 2]),
                    directory)
                service.reload()
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=10)
        assert not errors, errors[:1]
        assert not illegal, illegal[:1]
        stats = service.storage_stats()
        assert stats["reloads"]["successes"] == 6
        assert stats["epoch"] == 7

    def test_batch_in_flight_during_reload_stays_consistent(
            self, doc_a, doc_b, tmp_path):
        """A threaded batch keeps running while a reload lands; every
        outcome still matches one generation exactly."""
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        legal = {tuple(expected(doc_a, ["common"])),
                 tuple(expected(doc_b, ["common"]))}

        reloaded = []

        def flip():
            save_database(Database.from_document(doc_b), directory)
            reloaded.append(service.reload())

        flipper = threading.Timer(0.01, flip)
        flipper.start()
        try:
            batch = service.batch_search(["common"] * 300, k=10,
                                         workers=4, executor="thread")
        finally:
            flipper.join()
        assert reloaded and reloaded[0].generation == "g00000002"
        for outcome in batch:
            assert tuple(observed(outcome)) in legal


class TestHealthSnapshotCoherence:
    def test_reload_storm_never_tears_the_health_view(
            self, doc_a, tmp_path):
        """The torn-snapshot regression (docs/SERVING.md): under a
        storm of concurrent reloads, every ``health_snapshot()`` must
        satisfy ``epoch == 1 + successful reloads`` — the invariant a
        field-by-field read (state deref, then counter lock) breaks
        when a reload lands between the two reads."""
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))

        stop = threading.Event()
        torn = []
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    snap = service.health_snapshot()
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return
                if snap["epoch"] != 1 + snap["reloads"]["successes"]:
                    torn.append(snap)  # pragma: no cover - fails test
                    return

        def reloader():
            for _ in range(20):
                try:
                    service.reload()
                except StorageError as error:  # pragma: no cover
                    errors.append(error)
                    return

        readers = [threading.Thread(target=reader) for _ in range(3)]
        reloaders = [threading.Thread(target=reloader)
                     for _ in range(3)]
        for thread in readers + reloaders:
            thread.start()
        for thread in reloaders:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()

        assert not errors
        assert not torn
        final = service.health_snapshot()
        assert final["epoch"] == 61  # 1 + 3 threads x 20 reloads
        assert final["reloads"]["attempts"] == 60
        assert final["breaker"]["state"] == "closed"

    def test_snapshot_matches_storage_stats_at_rest(self, doc_a,
                                                    tmp_path):
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        service.reload()
        snap = service.health_snapshot()
        stats = service.storage_stats()
        assert snap["generation"] == stats["generation"]
        assert snap["epoch"] == stats["epoch"] == 2
        assert snap["reloads"] == stats["reloads"]


class GatedReload:
    """A faults object whose ``before_reload`` holds a reload mid-load
    until the test releases it."""

    enabled = True

    def __init__(self):
        self.loading = threading.Event()
        self.release = threading.Event()

    def before_reload(self):
        self.loading.set()
        assert self.release.wait(30.0)


def get_json(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        connection.close()


class TestHealthDuringReload:
    @staticmethod
    def views(service, port):
        """(generation, epoch, successful reloads) from
        ``health_snapshot()``, ``/health`` and JSON ``/metrics``, each
        answered within 100 ms."""
        views = []
        for read, block in (
                (service.health_snapshot, lambda body: body),
                (lambda: get_json(port, "/health"), lambda body: body),
                (lambda: get_json(port, "/metrics?format=json"),
                 lambda body: body["stats"]["serve"]["service"])):
            started = time.perf_counter()
            body = block(read())
            assert time.perf_counter() - started < 0.1
            views.append((body["generation"], body["epoch"],
                          body["reloads"]["successes"]))
        return views

    def test_health_answers_while_a_reload_loads(self, doc_a, doc_b,
                                                 tmp_path):
        """``health_snapshot`` and the served ``/health`` (and JSON
        ``/metrics``) must not wait out a reload's load: they answer
        at once with the generation being served, then show the new
        one once the reload lands."""
        directory = tmp_path / "db"
        save_database(Database.from_document(doc_a), directory)
        service = QueryService(str(directory))
        save_database(Database.from_document(doc_b), directory)
        gate = GatedReload()
        reloader = threading.Thread(
            target=lambda: service.reload(faults=gate))
        handle = start_in_thread(service, ServeConfig(max_inflight=2))
        try:
            reloader.start()
            assert gate.loading.wait(30.0)
            assert self.views(service, handle.port) == \
                [("g00000001", 1, 0)] * 3
            gate.release.set()
            reloader.join(30.0)
            assert not reloader.is_alive()
            assert self.views(service, handle.port) == \
                [("g00000002", 2, 1)] * 3
        finally:
            gate.release.set()
            reloader.join(30.0)
            assert handle.stop() == 0
