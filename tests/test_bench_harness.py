"""Unit tests for the measurement harness and table formatting."""

import pytest

from repro.bench import (format_series, format_table, measure_callable,
                         run_query, table2_rows, table3_rows)
from repro.core.result import SearchOutcome


class TestMeasure:
    def test_run_query_returns_sane_measurement(self, figure1_db):
        measurement = run_query(figure1_db, ["k1", "k2"], 5, "prstack",
                                repeats=2)
        assert measurement.response_time_ms >= 0.0
        assert measurement.peak_memory_mb > 0.0
        assert measurement.result_count >= 1
        assert measurement.stats["algorithm"] == "prstack"
        assert "ms" in measurement.as_row()

    def test_measure_callable_counts_results(self):
        outcome = SearchOutcome(stats={"algorithm": "fake"})
        measurement = measure_callable(lambda: outcome, repeats=1)
        assert measurement.result_count == 0
        assert measurement.stats == {"algorithm": "fake"}

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            measure_callable(lambda: SearchOutcome(), repeats=0)


class TestTables:
    def test_format_table_aligns(self):
        text = format_table("Title", ["a", "long_header"],
                            [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_series(self):
        text = format_series("Fig", "k", [10, 20],
                             {"prstack": [1.5, 2.5],
                              "eager": [0.5, 1.0]}, unit="ms")
        assert "prstack (ms)" in text
        assert "2.500" in text

    def test_table3_rows_cover_all_queries(self):
        rows = table3_rows()
        assert len(rows) == 15
        assert ("X1", "United States, Graduate") in rows

    def test_table2_rows(self, figure1_db):
        rows = table2_rows({"fixture": figure1_db})
        name, total, ind, mux, ordinary = rows[0]
        assert name == "fixture"
        assert total == ind + mux + ordinary
