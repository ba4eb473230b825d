"""Unit tests for document encoding (node columns, Dewey codes and
PrLinks built on request)."""

import pytest

from repro import NodeType, PNode, encode_document
from repro.exceptions import EncodingError


def root_path_edges(encoded, node_id):
    """A node's PrLink: the edge column along its root path."""
    edges = []
    while node_id >= 0:
        edges.append(encoded.edges[node_id])
        node_id = encoded.parents[node_id]
    return tuple(reversed(edges))


class TestEncodeDocument:
    def test_codes_follow_figure_1b_convention(self, fragment_doc):
        encoded = encode_document(fragment_doc)
        by_label = {node.label: str(encoded.code(node.node_id))
                    for node in fragment_doc if node.is_ordinary}
        assert by_label["A"] == "1"
        assert by_label["C1"] == "1.M1.I1.1"
        assert by_label["D1"] == "1.M1.I1.1.M1.1"
        assert by_label["D2"] == "1.M1.I1.1.M1.I2.1"
        assert by_label["E1"] == "1.M1.I1.1.M1.I2.2"
        assert by_label["E2"] == "1.M1.I1.1.M1.3"

    def test_prlink_matches_paper_example(self, fragment_doc):
        """The paper stores D1's link as 1, 0.25, 0.6, 1, 0.5 (our
        fragment uses the same probabilities)."""
        encoded = encode_document(fragment_doc)
        d1 = fragment_doc.find_by_label("D1")[0]
        assert root_path_edges(encoded, d1.node_id) == \
            (1.0, 1.0, 0.25, 0.6, 1.0, 0.5)

    def test_path_probability(self, fragment_doc):
        encoded = encode_document(fragment_doc)
        c1 = fragment_doc.find_by_label("C1")[0]
        assert encoded.paths[c1.node_id] == pytest.approx(0.15)

    def test_codes_sorted_like_node_ids(self, figure1_doc):
        encoded = encode_document(figure1_doc)
        positions = [encoded.code(node_id).positions
                     for node_id in range(len(encoded))]
        assert positions == sorted(positions)

    def test_node_at_round_trip(self, figure1_doc):
        encoded = encode_document(figure1_doc)
        for node in figure1_doc:
            assert encoded.node_at(encoded.code(node.node_id)) is node

    def test_node_at_unknown_code(self, fragment_doc):
        from repro import DeweyCode
        encoded = encode_document(fragment_doc)
        with pytest.raises(EncodingError, match="no node"):
            encoded.node_at(DeweyCode.parse("1.9.9"))
        with pytest.raises(EncodingError, match="no node"):
            encoded.id_at((1, 9, 9))

    def test_links_aligned_with_codes(self, figure1_doc):
        encoded = encode_document(figure1_doc)
        for node in figure1_doc:
            code = encoded.code(node.node_id)
            link = root_path_edges(encoded, node.node_id)
            assert len(link) == len(code) == encoded.depths[node.node_id]
            assert link[0] == 1.0
            assert link[-1] == node.edge_prob

    def test_stale_document_detected(self, fragment_doc):
        fragment_doc.root.add_child(PNode("late"))
        # refresh() not called: the new node is unnumbered.
        with pytest.raises(EncodingError):
            encode_document(fragment_doc)

    def test_distributional_kinds_in_codes(self, fragment_doc):
        encoded = encode_document(fragment_doc)
        for node in fragment_doc:
            assert encoded.code(node.node_id).node_type is node.node_type
            assert encoded.kinds[node.node_id] is node.node_type
            if node.node_type is NodeType.MUX:
                assert str(encoded.code(node.node_id)) \
                    .split(".")[-1][0] == "M"
