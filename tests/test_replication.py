"""Replicated shards: selector routing, hedging, deadline budgets.

The replication contract (docs/CORPUS.md): every replica of a shard is
a bit-identical copy of the same snapshot generation, so routing,
failover and hedging are pure latency/availability concerns — no
replica choice may ever change an answer, and a shard goes PARTIAL
only when *all* its replicas have failed.  These tests pin the policy
pieces (:mod:`repro.corpus.replication`) and the scatter behaviours
built on them, including the satellite regressions: per-shard breaker
isolation, the deadline-budget scatter fix, and composed-fault
batches.
"""

import os
import time

import pytest

from repro.corpus import (CorpusService, HedgePolicy, LatencyTracker,
                          ReplicaHealth, ReplicaSelector, build_corpus,
                          corpus_fsck,
                          load_corpus_manifest, replica_dir_name,
                          replica_name)
from repro.corpus.builder import shard_name
from repro.corpus.replication import as_hedge_policy
from repro.corpus.service import (ACTION_DEADLINE, ACTION_SEARCHED,
                                  REASON_SHARD_FAILURE)
from repro.exceptions import QueryError, StorageError
from repro.index.storage import (current_generation, load_database,
                                 snapshot_path)
from repro.obs.metrics import MetricsCollector
from repro.obs.spans import SpanTracer
from repro.resilience import (REASON_DEADLINE, CircuitBreaker, Fault,
                              FaultInjector, parse_faults)
from repro.service.service import QueryService
from tests.oracle import corpus_rows, oracle_rows
from tests.test_corpus import build_tiered_docs, random_corpus

QUERY = ["k1", "k2"]

EXECUTORS = ("serial", "thread", "process")


def crashing_job(job):
    """Stands in for the process worker body and kills the worker
    (module level, so a forked worker can resolve it by name)."""
    os._exit(3)


def make_selector(count, threshold=2, cooldown_s=60.0):
    replicas = [ReplicaHealth(replica_name(index), f"/r/{index}",
                              CircuitBreaker(threshold=threshold,
                                             cooldown_s=cooldown_s))
                for index in range(count)]
    return ReplicaSelector(replicas)


# -- latency tracker ----------------------------------------------------------


class TestLatencyTracker:
    def test_nearest_rank_percentiles(self):
        tracker = LatencyTracker()
        for value in range(1, 11):
            tracker.record(float(value))
        assert tracker.percentile(0.0) == 1.0
        assert tracker.percentile(0.5) == 6.0
        assert tracker.percentile(0.95) == 10.0
        assert tracker.percentile(1.0) == 10.0

    def test_empty_tracker_has_no_percentile(self):
        assert LatencyTracker().percentile(0.99) is None

    def test_window_is_bounded(self):
        tracker = LatencyTracker(capacity=4)
        for value in range(1, 9):
            tracker.record(float(value))
        assert len(tracker) == 4
        assert tracker.percentile(0.0) == 5.0

    def test_validation(self):
        with pytest.raises(QueryError, match="capacity"):
            LatencyTracker(capacity=0)
        with pytest.raises(QueryError, match="percentile"):
            LatencyTracker().percentile(1.5)


# -- replica selector ---------------------------------------------------------


class TestReplicaSelector:
    def test_cold_replicas_are_probed_before_warm_ones(self):
        selector = make_selector(3)
        selector.record_success(0, 50.0)
        selector.record_success(1, 5.0)
        assert selector.pick() == 2  # no EWMA yet: probe it

    def test_lowest_ewma_wins_once_all_are_warm(self):
        selector = make_selector(3)
        selector.record_success(0, 50.0)
        selector.record_success(1, 5.0)
        selector.record_success(2, 20.0)
        assert selector.pick() == 1
        assert selector.pick(exclude={1}) == 2

    def test_exhausted_exclusion_returns_none(self):
        selector = make_selector(2)
        assert selector.pick(exclude={0, 1}) is None

    def test_quarantined_replica_is_routed_around(self):
        selector = make_selector(2, threshold=2)
        selector.record_failure(0)
        selector.record_failure(0)
        assert selector.quarantined() == ["r0"]
        assert selector.pick() == 1

    def test_all_quarantined_still_probes_least_failed(self):
        # An open breaker must never by itself turn a recoverable
        # shard into a PARTIAL answer: with every replica
        # quarantined, the least-failed one is the half-open trial.
        selector = make_selector(2, threshold=1)
        selector.record_failure(0)
        selector.record_failure(0)
        selector.record_failure(1)
        assert selector.quarantined() == ["r0", "r1"]
        assert selector.pick() == 1

    def test_straggler_feeds_ewma_but_not_the_breaker(self):
        # Slow is not broken: an abandoned visit teaches routing the
        # latency without burning breaker failures.
        selector = make_selector(2)
        selector.record_straggler(0, 400.0)
        stats = selector.stats()
        assert stats[0]["ewma_ms"] == 400.0
        assert stats[0]["failures"] == 0
        assert stats[0]["breaker"]["state"] == "closed"
        assert selector.pick() == 1  # r1 is cold, probed first

    def test_success_feeds_the_shard_latency_tracker(self):
        selector = make_selector(2)
        selector.record_success(0, 12.0)
        assert len(selector.tracker) == 1

    def test_needs_at_least_one_replica(self):
        with pytest.raises(QueryError, match="at least one"):
            ReplicaSelector([])


# -- hedge policy -------------------------------------------------------------


class TestHedgePolicy:
    def test_fixed_trigger(self):
        policy = HedgePolicy(hedge_ms=25.0)
        assert policy.delay_ms(LatencyTracker()) == 25.0

    def test_percentile_waits_for_samples(self):
        policy = HedgePolicy(percentile=0.9, min_samples=3)
        tracker = LatencyTracker()
        tracker.record(10.0)
        tracker.record(20.0)
        assert policy.delay_ms(tracker) is None  # too few samples
        tracker.record(30.0)
        assert policy.delay_ms(tracker) == 30.0

    @pytest.mark.parametrize("kwargs,match", [
        ({"hedge_ms": 0}, "hedge_ms"),
        ({"percentile": 1.0}, "percentile"),
        ({"percentile": 0.5, "min_samples": 0}, "min_samples"),
        ({}, "needs"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(QueryError, match=match):
            HedgePolicy(**kwargs)

    def test_as_hedge_policy_coercions(self):
        assert as_hedge_policy(None) is None
        policy = HedgePolicy(hedge_ms=5.0)
        assert as_hedge_policy(policy) is policy
        assert as_hedge_policy(25).hedge_ms == 25.0
        with pytest.raises(QueryError, match="hedge"):
            as_hedge_policy(True)
        with pytest.raises(QueryError, match="hedge"):
            as_hedge_policy("soon")


# -- replica naming and the replicated builder --------------------------------


def _tree_bytes(root):
    """{relative path: file bytes} for every file under ``root``."""
    snapshot = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, root)] = handle.read()
    return snapshot


class TestReplicaLayout:
    def test_primary_keeps_the_bare_shard_name(self):
        assert replica_dir_name("s0003", 0) == "s0003"
        assert replica_dir_name("s0003", 2) == "s0003.r2"
        assert replica_name(0) == "r0"

    def test_builder_writes_bit_identical_replicas(self, tmp_path):
        directory = str(tmp_path / "corpus")
        manifest = build_corpus(random_corpus(7), directory, shards=2,
                                replicas=2)
        assert manifest.replicas == 2
        assert load_corpus_manifest(directory).replicas == 2
        for position in range(manifest.shard_count):
            primary, mirror = manifest.replica_dirs(position)
            assert os.path.basename(mirror) == \
                os.path.basename(primary) + ".r1"
            assert _tree_bytes(primary) == _tree_bytes(mirror)

    def test_builder_rejects_nonpositive_replicas(self, tmp_path):
        with pytest.raises(QueryError, match="replicas"):
            build_corpus(random_corpus(7), str(tmp_path / "c"),
                         shards=2, replicas=0)


# -- failover in the scatter --------------------------------------------------


@pytest.fixture()
def replicated(tmp_path):
    documents = random_corpus(13, count=4, max_nodes=18)
    directory = str(tmp_path / "corpus2")
    build_corpus(documents, directory, shards=2, replicas=2)
    return {"documents": documents, "directory": directory}


class TestReplicaFailover:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_dead_primaries_are_invisible(self, replicated, executor):
        # r0 of *every* shard rejects every visit; failover must
        # answer bit-identically from r1 with zero PARTIAL outcomes —
        # the PR's acceptance property.
        collector = MetricsCollector()
        faults = FaultInjector(
            [Fault(kind="replica_down", target="r0")], seed=3)
        service = CorpusService(replicated["directory"],
                                collector=collector, faults=faults)
        outcome = service.search(QUERY, k=5, executor=executor,
                                 workers=2)
        assert not outcome.partial
        assert corpus_rows(outcome) == oracle_rows(
            replicated["documents"], QUERY, 5)
        block = outcome.stats["corpus"]
        assert block["failovers"] >= 1
        counters = collector.snapshot()["counters"]
        assert counters["corpus.replica.failures"] >= 1
        assert counters["corpus.replica.failovers"] == block["failovers"]

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_crashed_process_worker_degrades_instead_of_raising(
            self, tmp_path, monkeypatch, replicas):
        # Every process task dies and breaks the pool: each visit
        # fails over, then runs once more in the coordinator.
        documents = random_corpus(5, count=4, max_nodes=18)
        directory = str(tmp_path / "crash")
        build_corpus(documents, directory, shards=3, replicas=replicas)
        service = CorpusService(directory)
        monkeypatch.setattr("repro.corpus.service.run_job",
                            crashing_job)
        outcome = service.search(QUERY, k=5, executor="process",
                                 workers=2)
        assert not outcome.partial
        assert corpus_rows(outcome) == oracle_rows(documents, QUERY, 5)
        block = outcome.stats["corpus"]
        assert block["degraded"] >= 1
        assert block["failed"] == 0

    def test_all_replicas_down_is_honestly_partial(self, replicated):
        manifest = load_corpus_manifest(replicated["directory"])
        victim = shard_name(0)
        faults = FaultInjector(
            [Fault(kind="replica_down", target=victim)], seed=3)
        service = CorpusService(replicated["directory"], faults=faults)
        outcome = service.search(QUERY, k=5)
        assert outcome.partial
        assert outcome.termination_reason == REASON_SHARD_FAILURE
        block = outcome.stats["corpus"]
        assert block["failed"] == 1
        assert block[ACTION_SEARCHED] == manifest.shard_count - 1

    def test_failing_shard_leaves_other_breakers_closed(
            self, replicated):
        # Satellite regression: breaker state is per shard per
        # replica — one persistently dead shard must not poison the
        # routing of shards that are perfectly healthy.
        manifest = load_corpus_manifest(replicated["directory"])
        victim = shard_name(0)
        faults = FaultInjector(
            [Fault(kind="replica_down", target=victim)], seed=3)
        service = CorpusService(replicated["directory"], faults=faults,
                                replica_breaker_threshold=2,
                                replica_cooldown_s=300.0)
        for _ in range(4):
            service.search(QUERY, k=5)
        stats = service.replica_stats()
        for replica in stats[victim]:
            assert replica["failures"] >= 2
            assert replica["breaker"]["state"] == "open"
        for shard, replicas in stats.items():
            if shard == victim:
                continue
            for replica in replicas:
                assert replica["failures"] == 0
                assert replica["breaker"]["state"] == "closed"
        health = service.health_snapshot()
        quarantined = {shard["shard"]: shard.get("quarantined")
                       for shard in health["shards"]}
        assert quarantined[victim] == ["r0", "r1"]


class TestSharedReplicaCopy:
    """Bit-identical replicas load into one in-memory index; damage on
    disk still fails the damaged replica alone."""

    @staticmethod
    def build(tmp_path, seed):
        # A seed no other test builds, so no earlier test's live copy
        # can answer for this content.
        documents = random_corpus(seed, count=4, max_nodes=18)
        directory = str(tmp_path / "shared")
        manifest = build_corpus(documents, directory, shards=2,
                                replicas=2)
        return documents, directory, manifest

    def test_replicas_serve_one_index_and_keep_their_directories(
            self, tmp_path):
        _documents, directory, manifest = self.build(tmp_path, 2011)
        collector = MetricsCollector()
        service = CorpusService(directory, collector=collector)
        for shard in service._shards:
            primary, mirror = (replica.service
                               for replica in shard.replicas)
            assert mirror.current_index() is primary.current_index()
            assert [replica.storage_stats()["directory"]
                    for replica in (primary, mirror)] == \
                list(manifest.replica_dirs(shard.position))
        counters = collector.snapshot()["counters"]
        assert counters["storage.load.databases"] == \
            2 * manifest.shard_count
        assert counters["storage.load.shared"] == manifest.shard_count

    def test_torn_replica_fails_alone_and_the_shard_stays_exact(
            self, tmp_path):
        documents, directory, manifest = self.build(tmp_path, 2012)
        primary, mirror = manifest.replica_dirs(0)
        snapshot = snapshot_path(mirror, current_generation(mirror))
        with open(os.path.join(snapshot, "postings.i64"), "a",
                  encoding="utf-8") as handle:
            handle.write("\n{torn")
        with pytest.raises(StorageError) as alone:
            load_database(mirror)
        service = CorpusService(directory)
        shard = service._shards[0]
        assert shard.replicas[0].service is not None
        assert shard.replicas[1].service is None
        assert shard.replicas[1].error == f"StorageError: {alone.value}"
        with pytest.raises(StorageError) as beside:
            load_database(mirror)
        assert str(beside.value) == str(alone.value)
        outcome = service.search(QUERY, k=5)
        assert not outcome.partial
        assert corpus_rows(outcome) == oracle_rows(documents, QUERY, 5)
        reports = dict(corpus_fsck(directory))
        assert sorted(reports) == ["s0000", "s0000.r1",
                                   "s0001", "s0001.r1"]
        assert [name for name, report in reports.items()
                if not report.clean] == ["s0000.r1"]


def _breaker_report(service):
    return {shard: [(replica["breaker"]["state"], replica["failures"])
                    for replica in replicas]
            for shard, replicas in service.replica_stats().items()}


class TestCallerErrors:
    """A caller error is the caller's, not a replica's: it raises a
    QueryError and never reaches a replica breaker."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("semantics", ["elca", "bogus"])
    def test_invalid_query_raises_and_breakers_stay_closed(
            self, replicated, executor, semantics):
        service = CorpusService(replicated["directory"],
                                replica_breaker_threshold=2)
        for _ in range(3):
            with pytest.raises(QueryError):
                service.search(QUERY, k=5, semantics=semantics,
                               executor=executor, workers=2)
        for replicas in _breaker_report(service).values():
            assert replicas == [("closed", 0), ("closed", 0)]
        # The corpus still answers a valid query completely.
        assert not service.search(QUERY, k=5).partial

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_query_error_inside_a_visit_is_not_a_replica_failure(
            self, replicated, executor, monkeypatch):
        def rejecting_search(self, *args, **kwargs):
            raise QueryError("keyword query rejected by the replica")

        service = CorpusService(replicated["directory"],
                                replica_breaker_threshold=2)
        monkeypatch.setattr(QueryService, "search", rejecting_search)
        for _ in range(3):
            with pytest.raises(QueryError, match="rejected"):
                service.search(QUERY, k=5, executor=executor,
                               workers=2)
        for replicas in _breaker_report(service).values():
            assert replicas == [("closed", 0), ("closed", 0)]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_query_error_from_a_visits_engine_call_is_not_a_replica_failure(
            self, replicated, executor, monkeypatch):
        # A visit is an engine call: the deepest place a caller error
        # can surface inside it is the engine entry the service makes.
        import repro.service.service as service_module

        def rejecting_engine(*args, **kwargs):
            raise QueryError("keyword query rejected by the engine")

        service = CorpusService(replicated["directory"],
                                replica_breaker_threshold=2)
        monkeypatch.setattr(service_module, "topk_search",
                            rejecting_engine)
        for _ in range(3):
            with pytest.raises(QueryError, match="rejected"):
                service.search(QUERY, k=5, executor=executor,
                               workers=2)
        for replicas in _breaker_report(service).values():
            assert replicas == [("closed", 0), ("closed", 0)]


# -- hedged scatter -----------------------------------------------------------


class TestHedging:
    def test_hedge_races_a_straggling_primary_and_stays_exact(
            self, replicated):
        collector = MetricsCollector()
        faults = FaultInjector(
            [Fault(kind="slow_replica", target="r0", delay_ms=400.0)],
            seed=3)
        service = CorpusService(replicated["directory"],
                                collector=collector, faults=faults,
                                hedge=HedgePolicy(hedge_ms=20.0),
                                executor="thread")
        tracer = SpanTracer(trace_id="hedge-test")
        outcome = service.search(QUERY, k=5, workers=2, tracer=tracer)
        assert not outcome.partial
        assert corpus_rows(outcome) == oracle_rows(
            replicated["documents"], QUERY, 5)
        block = outcome.stats["corpus"]
        assert block["hedges"]["fired"] >= 1
        counters = collector.snapshot()["counters"]
        fired = counters["corpus.hedge.fired"]
        won = counters.get("corpus.hedge.won", 0)
        lost = counters.get("corpus.hedge.lost", 0)
        assert won + lost <= fired
        assert any(span.name == "corpus.hedge"
                   for span in tracer.finished)
        # The scatter must not wait out the 400ms stragglers it
        # hedged over.
        assert outcome.stats["corpus"].get("degraded", 0) == 0

    def test_hedge_number_shorthand_and_off_by_default(
            self, replicated):
        service = CorpusService(replicated["directory"], hedge=30)
        assert service.search(QUERY, k=3).partial is False
        with pytest.raises(QueryError, match="hedge"):
            CorpusService(replicated["directory"], hedge=True)


# -- deadline budgets through the scatter -------------------------------------


class TestDeadlineBudget:
    def test_exhausted_budget_skips_shards_honestly(self, replicated):
        service = CorpusService(replicated["directory"])
        outcome = service.search(QUERY, k=5, deadline=1e-6)
        assert outcome.partial
        assert outcome.termination_reason == REASON_DEADLINE
        block = outcome.stats["corpus"]
        assert block[ACTION_DEADLINE] >= 1

    def test_two_slow_shards_cannot_overshoot_the_budget(
            self, tmp_path):
        # Satellite regression for the scatter deadline bug: each
        # visit must draw from the *remaining* budget, not re-spend
        # the caller's full deadline_ms.  Every shard here straggles
        # (5s each, far past the 250ms budget); with the old
        # behaviour the serial scatter would run shards * 5s.
        documents = build_tiered_docs()
        directory = str(tmp_path / "slow")
        build_corpus(documents, directory, shards=3)
        faults = FaultInjector(
            [Fault(kind="slow_replica", delay_ms=5000.0)], seed=3)
        service = CorpusService(directory, faults=faults)
        started = time.monotonic()
        outcome = service.search(QUERY, k=2, deadline=250.0)
        wall_s = time.monotonic() - started
        assert wall_s <= 0.25 + 0.75  # budget + epsilon
        assert outcome.partial
        assert outcome.termination_reason == REASON_DEADLINE
        assert outcome.stats["corpus"][ACTION_DEADLINE] >= 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_failover_starts_once_the_budget_is_out(
            self, replicated, executor):
        # r0 straggles to the end of the budget, then fails: the visit
        # must not fail over to r1 past the deadline.
        collector = MetricsCollector()
        faults = parse_faults("slow_replica:target=r0,delay_ms=400;"
                              "replica_down:target=r0", seed=3)
        service = CorpusService(replicated["directory"],
                                collector=collector, faults=faults)
        outcome = service.search(QUERY, k=5, executor=executor,
                                 workers=2, deadline=60)
        assert outcome.partial
        assert outcome.termination_reason == REASON_DEADLINE
        block = outcome.stats["corpus"]
        assert block[ACTION_SEARCHED] == 0
        assert block["failed"] >= 1
        assert block["failovers"] == 0
        for entry in block["detail"]:
            if entry["action"] == "failed":
                assert "deadline" in entry["error"]
        counters = collector.snapshot()["counters"]
        assert "corpus.replica.failovers" not in counters

    def test_batch_search_totals_count_deadline_skips(self, tmp_path):
        documents = build_tiered_docs()
        directory = str(tmp_path / "batch")
        build_corpus(documents, directory, shards=2)
        faults = FaultInjector(
            [Fault(kind="slow_replica", delay_ms=5000.0)], seed=3)
        service = CorpusService(directory, faults=faults)
        batch = service.batch_search([QUERY, ["k1"]], k=2,
                                     executor="serial",
                                     deadline_ms=100.0)
        assert len(batch) == 2
        assert batch.stats["corpus"][ACTION_DEADLINE] >= 1


# -- composed faults ----------------------------------------------------------


class TestComposedFaults:
    def test_worker_crash_reload_corrupt_and_deadline_in_one_batch(
            self, figure1_doc):
        # Satellite: the three fault families compose — a crashing
        # worker chunk, a rejected hot reload, and a per-query
        # deadline expiry, all against one service — and every query
        # still gets an explicit outcome; nothing escapes
        # batch_search.
        queries = [["k1"], ["k2"], ["k1", "k2"], ["k1"]]
        service = QueryService(figure1_doc,
                               collector=MetricsCollector())
        faults = FaultInjector(
            [Fault(kind="worker_crash", times=1, delay_ms=100.0),
             Fault(kind="slow_query", terms=("k1", "k2"),
                   delay_ms=400.0),
             Fault(kind="reload_corrupt", times=1)], seed=7)
        batch = service.batch_search(queries, workers=2,
                                     executor="process", faults=faults,
                                     max_retries=2, deadline_ms=200.0)
        assert len(batch) == len(queries)
        reasons = [outcome.termination_reason for outcome in batch]
        assert all(reason in ("complete", "deadline", "error")
                   for reason in reasons)
        res = batch.stats["resilience"]
        assert res["worker_crashes"] >= 1
        assert res["deadline_expired"] >= 1

        with pytest.raises(StorageError, match="reload rejected"):
            service.reload(faults=faults)
        assert service.storage_stats()["reloads"]["rejected"] == 1
        # The old generation keeps serving after the rejected reload.
        assert service.search(["k1"], k=3).results

    def test_corpus_batch_survives_replica_and_deadline_chaos(
            self, tmp_path):
        documents = random_corpus(17, count=4, max_nodes=18)
        directory = str(tmp_path / "composed")
        build_corpus(documents, directory, shards=2, replicas=2)
        faults = FaultInjector(
            [Fault(kind="replica_down", target="r0", times=3),
             Fault(kind="slow_replica", target="r1", rate=0.5,
                   delay_ms=300.0),
             Fault(kind="torn_replica", rate=0.2)], seed=11)
        service = CorpusService(directory, faults=faults)
        batch = service.batch_search(
            [QUERY, ["k1"], ["k2"], QUERY], k=3, executor="thread",
            workers=2, deadline_ms=250.0)
        assert len(batch) == 4
        for outcome in batch:
            assert outcome.termination_reason in (
                None, "complete", REASON_DEADLINE,
                REASON_SHARD_FAILURE)
            if outcome.partial:
                assert outcome.termination_reason in (
                    REASON_DEADLINE, REASON_SHARD_FAILURE)
