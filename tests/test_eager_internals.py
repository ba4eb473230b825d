"""Unit tests for EagerTopK's internal data structures."""

import pytest

from repro import encode_document
from repro.core.distribution import DistTable
from repro.core.eager import _Region, _RegionRegistry
from tests.conftest import coded_document

#: Every code the registry tests address, in one document.
CODES = ("1.1", "1.2.1", "1.2.3", "1.3", "1.20")


@pytest.fixture
def encoded():
    return encode_document(coded_document(CODES))


def node(encoded, text):
    from repro import DeweyCode
    return encoded.id_at(DeweyCode.parse(text).positions)


def region(encoded, text, masks=None, lost=0.0):
    node_id = node(encoded, text)
    table = DistTable(dict(masks or {}), lost)
    return _Region(node_id, table, encoded.paths[node_id], full_mask=0b11)


def texts(encoded, regions):
    return [str(encoded.code(r.node)) for r in regions]


class TestRegionRegistry:
    def test_document_order_maintained(self, encoded):
        registry = _RegionRegistry(encoded.ends)
        for text in ("1.3", "1.1", "1.2"):
            registry.add(region(encoded, text))
        root = node(encoded, "1")
        codes = texts(encoded, registry.under(root))
        assert codes == ["1.1", "1.2", "1.3"]

    def test_add_collapses_covered_regions(self, encoded):
        registry = _RegionRegistry(encoded.ends)
        registry.add(region(encoded, "1.2.1"))
        registry.add(region(encoded, "1.2.3"))
        registry.add(region(encoded, "1.3"))
        assert len(registry) == 3
        registry.add(region(encoded, "1.2"))  # covers the first two
        assert len(registry) == 2
        codes = texts(encoded, registry.under(node(encoded, "1")))
        assert codes == ["1.2", "1.3"]

    def test_under_is_subtree_scoped(self, encoded):
        registry = _RegionRegistry(encoded.ends)
        registry.add(region(encoded, "1.2.1"))
        registry.add(region(encoded, "1.20"))
        inside = registry.under(node(encoded, "1.2"))
        assert texts(encoded, inside) == ["1.2.1"]

    def test_under_includes_self(self, encoded):
        registry = _RegionRegistry(encoded.ends)
        registry.add(region(encoded, "1.2"))
        assert texts(encoded, registry.under(node(encoded, "1.2"))) \
            == ["1.2"]


class TestRegionBounds:
    def test_coverage_numbers(self, encoded):
        entry = region(encoded, "1.2", masks={0b11: 0.3, 0b01: 0.7},
                       lost=0.0)
        assert entry.harvested == 0.0
        assert entry.all_cover == pytest.approx(0.3)

    def test_bound_for_uses_harvested_without_ordinary_between(self):
        """Region directly under the candidate: only ordinary-node
        coverage (lost) excludes the path."""
        encoded = encode_document(coded_document(["1.M1"]))
        table = DistTable({0b11: 0.4, 0b00: 0.3}, lost=0.3)
        entry = _Region(node(encoded, "1.1"), table, 1.0, 0b11)
        bound = entry.bound_for(node(encoded, "1"), 1.0, encoded)
        assert bound.cover_given_candidate == pytest.approx(0.3)

    def test_bound_for_upgrades_with_ordinary_between(self):
        """An ordinary node between region and candidate harvests the
        surviving full mass, so total coverage excludes the path."""
        encoded = encode_document(coded_document(["1.1.M1"]))
        table = DistTable({0b11: 0.4, 0b00: 0.3}, lost=0.3)
        entry = _Region(node(encoded, "1.1.1"), table, 1.0, 0b11)
        bound = entry.bound_for(node(encoded, "1"), 1.0, encoded)
        assert bound.cover_given_candidate == pytest.approx(0.7)

    def test_bound_scales_with_conditional_path(self):
        encoded = encode_document(coded_document(["1.2"],
                                                 edges={"1.2": 0.4}))
        table = DistTable({0b00: 0.5}, lost=0.5)
        region_node = node(encoded, "1.2")
        entry = _Region(region_node, table, encoded.paths[region_node],
                        0b11)
        bound = entry.bound_for(node(encoded, "1"), 1.0, encoded)
        assert bound.cover_given_candidate == pytest.approx(0.5 * 0.4)
        # The group is the candidate's child the region lies under.
        assert bound.group == region_node
