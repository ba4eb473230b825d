"""Batched metrics: ``observe_many``, per-run and per-query folding.

The stack engine keeps its ``engine.*`` counters and histogram samples
in local variables and folds them into the collector once per run
through :meth:`MetricsCollector.observe_many`; an EagerTopK query
stages its ``eager.*``, ``engine.*`` and ``heap.*`` metrics in a
:class:`~repro.obs.metrics.MetricsBuffer` and folds them once per
query.  These tests pin that the batched path leaves exactly the state
per-value observation would, that every exit path folds (including a
deadline cut and a raising query), that the sample buffers stay
bounded on long runs, and the identities between folded counters,
histograms and ``outcome.stats``.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.eager as eager_module
import repro.core.engine as engine_module
import repro.obs.metrics as metrics_module
from repro import (MetricsCollector, build_index, eager_topk_search,
                   encode_document, prstack_search)
from repro.obs.metrics import Histogram
from repro.resilience import Deadline
from tests.test_golden_answers import ind_mux_index


def _state(histogram):
    return (histogram.count, histogram.total, histogram.minimum,
            histogram.maximum, list(histogram._samples),
            histogram._stride, histogram._tick)


def _small_histogram(capacity):
    """A histogram whose reservoir thins after ``capacity`` samples, so
    short runs cross many thinning steps."""
    return type("SmallHistogram", (Histogram,),
                {"__slots__": (), "MAX_SAMPLES": capacity})()


_VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestHistogramObserveMany:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.sampled_from([2, 3, 4, 5, 8, 16]),
           runs=st.lists(st.lists(_VALUES, max_size=40), max_size=8))
    def test_equals_one_observe_per_value(self, capacity, runs):
        batched, single = (_small_histogram(capacity),
                           _small_histogram(capacity))
        for run in runs:
            batched.observe_many(run)
            for value in run:
                single.observe(value)
            assert _state(batched) == _state(single)

    @settings(max_examples=50, deadline=None)
    @given(prefix=st.lists(_VALUES, max_size=20),
           run=st.lists(st.integers(0, 64), max_size=60))
    def test_integer_samples_after_absorb(self, prefix, run):
        batched, single = _small_histogram(4), _small_histogram(4)
        for histogram in (batched, single):
            histogram.absorb(3, 6.0, 1.0, 3.0, samples=[1.0, 2.0, 3.0])
            for value in prefix:
                histogram.observe(value)
        batched.observe_many(run)
        for value in run:
            single.observe(value)
        assert _state(batched) == _state(single)

    def test_full_size_reservoir_thinning(self):
        values = [float((index * 7919) % 1000) for index in range(20000)]
        batched, single = Histogram(), Histogram()
        start = 0
        for size in (1, 4095, 1, 3000, 9000, 2, 3901):
            batched.observe_many(values[start:start + size])
            start += size
        for value in values[:start]:
            single.observe(value)
        assert single._stride > 2
        assert _state(batched) == _state(single)

    def test_empty_run_is_a_no_op(self):
        histogram = Histogram()
        histogram.observe_many([])
        assert _state(histogram) == _state(Histogram())


class TestCollectorObserveMany:
    def test_matches_count_and_observe(self):
        batched, single = MetricsCollector(), MetricsCollector()
        batched.observe_many({"a": [3, 1, 2], "b": [], "c": [0.5]},
                             {"n": 4, "m": 0})
        for value in (3, 1, 2):
            single.observe("a", value)
        single.observe("c", 0.5)
        single.count("n", 4)
        single.count("m", 0)
        assert batched.snapshot() == single.snapshot()
        assert "b" not in batched.histograms

    def test_null_collector_accepts_it(self):
        from repro.obs.metrics import NULL_COLLECTOR
        NULL_COLLECTOR.observe_many({"a": [1]}, {"n": 1})


class TestEngineFolding:
    def test_deadline_cut_still_folds_the_engine_metrics(self):
        collector = MetricsCollector()
        outcome = prstack_search(ind_mux_index(), ["author", "title"],
                                 k=5, collector=collector,
                                 deadline=Deadline(max_steps=40))
        assert outcome.partial
        stats = outcome.stats
        assert stats["entries_scanned"] == 40
        counters = collector.snapshot()["counters"]
        assert counters["engine.items_fed"] == stats["entries_scanned"]
        assert counters["engine.frames_pushed"] == stats["frames_pushed"]
        assert counters["engine.frames_popped"] == stats["frames_popped"]
        assert counters["engine.results_emitted"] == \
            stats["results_emitted"]
        depth = collector.snapshot()["histograms"]["engine.stack_depth"]
        assert depth["count"] == stats["entries_scanned"]

    def test_small_buffers_fold_the_same_metrics_in_bounded_chunks(
            self, monkeypatch):
        index = ind_mux_index()
        whole = MetricsCollector()
        prstack_search(index, ["author", "title"], k=5, collector=whole)

        chunks = []

        class ChunkRecorder(MetricsCollector):
            def observe_many(self, samples, counts=None):
                chunks.append({name: len(values)
                               for name, values in samples.items()})
                super().observe_many(samples, counts)

        monkeypatch.setattr(engine_module, "SAMPLE_BUFFER", 16)
        chunked = ChunkRecorder()
        prstack_search(index, ["author", "title"], k=5,
                       collector=chunked)
        for block in ("counters", "histograms"):
            assert chunked.snapshot()[block] == whole.snapshot()[block]
        assert chunked.quantile_snapshot()["histograms"] == \
            whole.quantile_snapshot()["histograms"]
        assert len(chunks) > 10
        depth = max(whole.snapshot()["histograms"]["engine.stack_depth"]
                    ["max"], 1)
        assert all(size <= 16 + depth for chunk in chunks
                   for size in chunk.values())

    def test_uninstrumented_engine_folds_nothing(self, fragment_doc,
                                                 monkeypatch):
        index = build_index(encode_document(fragment_doc))
        honest = engine_module.StackEngine._fold_samples
        folds = []

        def spy(self, counts=None):
            folds.append(counts)
            honest(self, counts)

        monkeypatch.setattr(engine_module.StackEngine, "_fold_samples",
                            spy)
        prstack_search(index, ["k1", "k2"], k=3)
        assert folds == []
        prstack_search(index, ["k1", "k2"], k=3,
                       collector=MetricsCollector())
        assert len(folds) == 1


#: ``eager.*`` and ``engine.*`` counters and the ``outcome.stats`` value
#: each must equal, summed over queries.
STAT_COUNTERS = {
    "eager.seeds": lambda stats: stats["seeds"],
    "eager.candidates_processed":
        lambda stats: stats["candidates_processed"],
    "eager.suspended_node_bound":
        lambda stats: stats["candidates_suspended"],
    "eager.pruned_path_bound": lambda stats: stats["candidates_pruned"],
    "eager.entries_consumed": lambda stats: stats["entries_consumed"],
    "eager.entries_unconsumed": lambda stats: stats["entries_unconsumed"],
    "eager.bound_evaluations":
        lambda stats: stats["pruning"]["bound_evaluations"],
    "eager.dead_path_skips":
        lambda stats: stats["pruning"]["dead_path_skips"],
    "engine.results_emitted": lambda stats: stats["results_emitted"],
    "heap.offers": lambda stats: stats["results_emitted"],
}

#: Each histogram that shadows a counter: one sample per count.
SHADOWS = {"eager.node_bound": "eager.bound_evaluations",
           "eager.sweep_items": "eager.candidates_processed",
           "engine.stack_depth": "engine.items_fed"}

EAGER_QUERIES = (["author", "title"], ["query", "data"],
                 ["db", "year", "query"], ["conf", "icde"])


class FoldRecorder(MetricsCollector):
    """Records the histogram names of every ``observe_many`` fold."""

    def __init__(self):
        super().__init__()
        self.folds = []

    def observe_many(self, samples, counts=None, timers=None):
        self.folds.append(sorted(samples))
        super().observe_many(samples, counts, timers)


def assert_fold_identities(snapshot):
    """The identities a folded EagerTopK snapshot satisfies."""
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    assert counters["engine.items_fed"] == \
        counters["eager.entries_consumed"] \
        + counters["eager.regions_collapsed"]
    assert counters.get("engine.preset_tables_fed", 0) == \
        counters["eager.regions_collapsed"]
    for histogram, counter in SHADOWS.items():
        assert histograms[histogram]["count"] == counters[counter], \
            histogram


class TestQueryFold:
    def test_counters_equal_summed_stats(self):
        index = ind_mux_index()
        collector = MetricsCollector()
        totals = dict.fromkeys(STAT_COUNTERS, 0)
        for keywords in EAGER_QUERIES:
            stats = eager_topk_search(index, keywords, 5,
                                      collector=collector).stats
            for name, value in STAT_COUNTERS.items():
                totals[name] += value(stats)
        snapshot = collector.snapshot()
        assert {name: snapshot["counters"].get(name, 0)
                for name in STAT_COUNTERS} == totals
        assert totals["eager.suspended_node_bound"] > 0
        assert_fold_identities(snapshot)

    def test_one_fold_per_query(self):
        collector = FoldRecorder()
        eager_topk_search(ind_mux_index(), ["author", "title"], 5,
                          collector=collector)
        assert len(collector.folds) == 1
        assert {"eager.node_bound", "engine.stack_depth",
                "heap.threshold"} <= set(collector.folds[0])

    def test_small_buffers_fold_early_to_the_same_snapshot(
            self, monkeypatch):
        index = ind_mux_index()
        whole = MetricsCollector()
        for keywords in EAGER_QUERIES:
            eager_topk_search(index, keywords, 5, collector=whole)
        monkeypatch.setattr(engine_module, "SAMPLE_BUFFER", 16)
        monkeypatch.setattr(metrics_module, "SAMPLE_BUFFER", 16)
        chunked = FoldRecorder()
        for keywords in EAGER_QUERIES:
            eager_topk_search(index, keywords, 5, collector=chunked)
        assert len(chunked.folds) > 2 * len(EAGER_QUERIES)
        assert _without_timers(chunked) == _without_timers(whole)
        assert chunked.quantile_snapshot()["histograms"] == \
            whole.quantile_snapshot()["histograms"]

    def test_a_raising_query_still_reports(self, monkeypatch):
        def broken(self, node):
            raise RuntimeError("climb failed")

        monkeypatch.setattr(eager_module._EagerSearch,
                            "_add_parent_candidate", broken)
        collector = MetricsCollector()
        with pytest.raises(RuntimeError, match="climb failed"):
            eager_topk_search(ind_mux_index(), ["author", "title"], 5,
                              collector=collector)
        counters = collector.snapshot()["counters"]
        assert counters["eager.candidates_processed"] == 1
        assert counters["engine.items_fed"] > 0
        assert counters["heap.offers"] > 0


def _without_timers(collector):
    snapshot = collector.snapshot()
    return {block: snapshot[block] for block in ("counters",
                                                 "histograms")}
