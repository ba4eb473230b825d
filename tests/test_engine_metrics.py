"""Batched engine metrics: ``observe_many`` and per-run folding.

The stack engine keeps its ``engine.*`` counters and histogram samples
in local variables and folds them into the collector once per run
through :meth:`MetricsCollector.observe_many`.  These tests pin that
the batched path leaves exactly the state per-value observation would,
that every exit path folds (including a deadline cut), and that the
sample buffers stay bounded on long runs.
"""

from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_module
from repro import (MetricsCollector, build_index, encode_document,
                   prstack_search)
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
