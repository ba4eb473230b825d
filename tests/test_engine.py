"""Unit tests for the shared bottom-up stack engine."""

import pytest

from repro import DeweyCode, build_index, encode_document
from repro.core.distribution import DistTable
from repro.core.engine import StackEngine
from repro.exceptions import ReproError
from repro.index.matchlist import build_match_entries
from tests.conftest import coded_document


def collect_sink(encoded):
    results = []
    return results, lambda node, prob: results.append(
        (str(encoded.code(node)), prob))


def small(*codes, edges=None):
    """An encoded document holding the given codes, and a lookup from
    code text to node id."""
    encoded = encode_document(coded_document(codes, edges))
    return encoded, lambda text: encoded.id_at(
        DeweyCode.parse(text).positions)


def fragment_items(encoded, keywords=("k1", "k2")):
    """``(node_id, mask)`` feed arguments of the match columns."""
    index = build_index(encoded)
    ids, masks = build_match_entries(index, index.query_terms(keywords))
    return list(zip(ids, masks))


class TestWholeDocumentRuns:
    def test_fragment_harvests_c1(self, fragment_doc):
        encoded = encode_document(fragment_doc)
        results, sink = collect_sink(encoded)
        engine = StackEngine(0b11, sink, encoded)
        for item in fragment_items(encoded):
            engine.feed(*item)
        engine.finish()
        assert results == [("1.M1.I1.1", pytest.approx(0.00945))]
        assert engine.results_emitted == 1

    def test_no_items_no_results(self):
        encoded, _ = small("1")
        results, sink = collect_sink(encoded)
        engine = StackEngine(0b1, sink, encoded)
        engine.finish()
        assert results == []

    def test_single_match_at_root(self):
        encoded, node = small("1")
        results, sink = collect_sink(encoded)
        engine = StackEngine(0b1, sink, encoded)
        engine.feed(node("1"), 0b1)
        engine.finish()
        assert results == [("1", pytest.approx(1.0))]


class TestInputValidation:
    def test_out_of_order_rejected(self):
        encoded, node = small("1.2")
        _, sink = collect_sink(encoded)
        engine = StackEngine(0b1, sink, encoded)
        engine.feed(node("1.2"), 0b1)
        with pytest.raises(ReproError, match="document order"):
            engine.feed(node("1.1"), 0b1)

    def test_duplicate_rejected(self):
        encoded, node = small("1.2")
        _, sink = collect_sink(encoded)
        engine = StackEngine(0b1, sink, encoded)
        engine.feed(node("1.2"), 0b1)
        with pytest.raises(ReproError, match="document order"):
            engine.feed(node("1.2"), 0b1)

    def test_item_outside_context_rejected(self):
        encoded, node = small("1.2")
        _, sink = collect_sink(encoded)
        engine = StackEngine(0b1, sink, encoded, context_length=2)
        with pytest.raises(ReproError, match="outside"):
            engine.feed(node("1.2"), 0b1)

    def test_preset_with_mask_rejected(self):
        encoded, node = small("1.2")
        engine = StackEngine(0b1, lambda node, prob: None, encoded)
        with pytest.raises(ReproError, match="self mask"):
            engine.feed(node("1.2"), 0b1, DistTable.unit())

    def test_zero_full_mask_rejected(self):
        encoded, _ = small("1")
        with pytest.raises(ReproError):
            StackEngine(0, lambda node, prob: None, encoded)


class TestCandidateRuns:
    def test_finish_candidate_returns_unpromoted_table(self, fragment_doc):
        """Evaluating C1 as an EagerTopK candidate yields the paper's
        MUX2 table (Example 5) with the full mask harvested."""
        encoded = encode_document(fragment_doc)
        results, sink = collect_sink(encoded)
        c1 = encoded.id_at(DeweyCode.parse("1.M1.I1.1").positions)
        engine = StackEngine(0b11, sink, encoded,
                             context_length=encoded.depths[c1] - 1)
        for item in fragment_items(encoded):
            engine.feed(*item)
        table = engine.finish_candidate()
        assert results == [("1.M1.I1.1", pytest.approx(0.00945))]
        assert table.probability(0b11) == 0.0  # harvested
        assert table.lost == pytest.approx(0.063)
        assert table.probability(0b01) == pytest.approx(0.507)
        assert table.probability(0b10) == pytest.approx(0.327)
        assert table.probability(0b00) == pytest.approx(0.103)

    def test_finish_candidate_empty_returns_unit(self):
        encoded, _ = small("1.1")
        _, sink = collect_sink(encoded)
        engine = StackEngine(0b11, sink, encoded, context_length=1)
        table = engine.finish_candidate()
        assert table.probability(0) == 1.0

    def test_preset_table_used_verbatim(self):
        """Feeding a preset region table reproduces the same parent
        table as feeding the region's raw matches."""
        encoded, node = small("1.2", edges={"1.2": 0.4})
        results, sink = collect_sink(encoded)
        preset = DistTable({0b11: 0.5, 0b01: 0.5})
        engine = StackEngine(0b11, sink, encoded, context_length=0)
        engine.feed(node("1.2"), table=preset)
        table = engine.finish_candidate()
        # Root (ordinary) harvests 0.4 * 0.5 of full mass.
        assert results == [("1", pytest.approx(0.2))]
        assert table.probability(0b01) == pytest.approx(0.2)
        assert table.probability(0b00) == pytest.approx(0.6)
