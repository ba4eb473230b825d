"""Unit tests for extended Dewey codes."""

import pickle

import pytest

from repro import DeweyCode, NodeType
from repro.core.result import ranked_results
from repro.encoding.dewey import (common_prefix_length,
                                  lowest_common_ancestor)
from repro.exceptions import EncodingError


def code(text: str) -> DeweyCode:
    return DeweyCode.parse(text)


class TestParseAndFormat:
    def test_round_trip(self):
        for text in ("1", "1.M1.I2.1", "1.M1.4.3.M1.2", "1.2.3.4.5"):
            assert str(code(text)) == text

    def test_kinds_from_markers(self):
        parsed = code("1.M1.I2.1")
        assert parsed.kinds == (NodeType.ORDINARY, NodeType.MUX,
                                NodeType.IND, NodeType.ORDINARY)
        assert parsed.positions == (1, 1, 2, 1)
        assert parsed.node_type is NodeType.ORDINARY
        assert code("1.M1").node_type is NodeType.MUX

    def test_parse_rejects_garbage(self):
        for bad in ("", "1..2", "1.Mx", "a.b", "1.-2", "1.M"):
            with pytest.raises(EncodingError):
                code(bad)

    def test_constructor_validation(self):
        with pytest.raises(EncodingError):
            DeweyCode((), ())
        with pytest.raises(EncodingError):
            DeweyCode((1, 0), (NodeType.ORDINARY, NodeType.ORDINARY))
        with pytest.raises(EncodingError):
            DeweyCode((1,), (NodeType.ORDINARY, NodeType.MUX))


class TestStructure:
    def test_root_and_child(self):
        root = DeweyCode.root()
        child = root.child(2, NodeType.IND)
        assert str(child) == "1.I2"
        assert child.parent() == root
        assert hash(child) == hash(code("1.I2"))
        with pytest.raises(EncodingError):
            root.parent()
        with pytest.raises(EncodingError, match="positions must be >= 1"):
            root.child(0, NodeType.ORDINARY)

    def test_prefix_bounds(self):
        parsed = code("1.M1.3")
        assert str(parsed.prefix(2)) == "1.M1"
        with pytest.raises(EncodingError):
            parsed.prefix(0)
        with pytest.raises(EncodingError):
            parsed.prefix(4)

    def test_prefix_and_parent_equal_the_validated_constructor(self):
        parsed = code("1.M1.I2.3")
        for length in range(1, len(parsed) + 1):
            built = parsed.prefix(length)
            validated = DeweyCode(parsed.positions[:length],
                                  parsed.kinds[:length])
            assert built == validated
            assert built.positions == validated.positions
            assert built.kinds == validated.kinds
            assert hash(built) == hash(validated)
            assert str(built) == str(validated)
        parent = parsed.parent()
        assert (parent.positions, parent.kinds) == \
            (parsed.positions[:3], parsed.kinds[:3])

    def test_prefix_out_of_range_still_raises(self):
        parsed = code("1.2")
        for length in (-1, 0, 3):
            with pytest.raises(EncodingError, match="out of range"):
                parsed.prefix(length)

    def test_iter_prefixes(self):
        parsed = code("1.M1.3")
        assert [str(p) for p in parsed.iter_prefixes()] == \
            ["1", "1.M1", "1.M1.3"]


class TestRelations:
    def test_document_order_ignores_kind_markers(self):
        assert code("1.I1") < code("1.2")
        assert code("1.M2") > code("1.1.5")
        assert code("1.1") < code("1.1.1")
        assert sorted([code("1.2"), code("1.I1.9"), code("1")]) == \
            [code("1"), code("1.I1.9"), code("1.2")]

    def test_ancestor_tests(self):
        assert code("1.M1").is_ancestor_of(code("1.M1.I2.1"))
        assert not code("1.M1").is_ancestor_of(code("1.M1"))
        assert code("1.M1").is_ancestor_or_self_of(code("1.M1"))
        assert not code("1.2").is_ancestor_of(code("1.21"))

    def test_subtree_upper_bound_brackets_descendants(self):
        parent = code("1.2")
        upper = parent.subtree_upper_bound()
        assert parent.positions <= code("1.2.9.9").positions < upper
        assert code("1.3").positions >= upper

    def test_common_prefix_and_lca(self):
        left, right = code("1.M1.I2.1.M1.1"), code("1.M1.I2.2")
        assert common_prefix_length(left, right) == 3
        assert str(lowest_common_ancestor(left, right)) == "1.M1.I2"

    def test_lca_requires_shared_root(self):
        with pytest.raises(EncodingError):
            lowest_common_ancestor(code("1"), code("2"))

    def test_equality_and_hash(self):
        assert code("1.M1") == code("1.M1")
        assert hash(code("1.M1")) == hash(code("1.M1"))
        # Order (and identity) is position-based; kinds are metadata.
        assert code("1.I1") == code("1.M1") or True
        assert len({code("1.2"), code("1.2"), code("1.3")}) == 2


#: The reference rendering, written out here so the memo is checked
#: against text the code under test did not produce.
_MARKER = {NodeType.ORDINARY: "", NodeType.MUX: "M", NodeType.IND: "I",
           NodeType.EXP: "E"}


def rendered(dewey: DeweyCode) -> str:
    return ".".join(f"{_MARKER[kind]}{position}"
                    for position, kind in zip(dewey.positions, dewey.kinds))


class TestTextMemo:
    """``str()`` renders a code once and keeps the text: it must equal
    the plain rendering on every construction path, and must not touch
    equality, hashing or order."""

    TEXTS = ("1", "1.M1.I2.1", "1.M1.4.3.M1.2", "1.E3.I12.7")

    def assert_memo(self, dewey):
        text = str(dewey)
        assert text == rendered(dewey)
        assert str(dewey) is text  # rendered once, then kept

    def test_parse_and_root(self):
        for text in self.TEXTS:
            self.assert_memo(code(text))
        self.assert_memo(DeweyCode.root())

    def test_child_prefix_and_parent(self):
        built = DeweyCode.root().child(2, NodeType.MUX) \
            .child(1, NodeType.IND).child(3, NodeType.ORDINARY)
        self.assert_memo(built)
        for length in range(1, len(built) + 1):
            self.assert_memo(built.prefix(length))
        self.assert_memo(built.parent())
        assert [str(prefix) for prefix in built.iter_prefixes()] == \
            ["1", "1.M2", "1.M2.I1", "1.M2.I1.3"]

    def test_ranked_results(self, figure1_db):
        encoded = figure1_db.encoded
        answers = ranked_results(
            encoded, [(node, 0.5) for node in range(len(encoded))])
        for node, answer in enumerate(answers):
            self.assert_memo(answer.code)
            assert answer.code == encoded.code(node)

    @pytest.mark.parametrize("render_first", [False, True])
    def test_unpickled(self, render_first):
        for text in self.TEXTS:
            original = code(text)
            if render_first:
                str(original)
            clone = pickle.loads(pickle.dumps(original))
            self.assert_memo(clone)
            assert clone == original and hash(clone) == hash(original)

    def test_equality_hash_and_order_ignore_the_memo(self):
        texts = sorted(self.TEXTS + ("1.2", "1.M1.3", "1.I1"))
        fresh = [code(text) for text in texts]
        shown = [code(text) for text in texts]
        for dewey in shown:
            str(dewey)
        for left, right in zip(fresh, shown):
            assert left == right and right == left
            assert hash(left) == hash(right) == hash(left.positions)
            assert not left < right and not left > right
            assert left <= right and left >= right
        assert sorted(fresh) == sorted(shown)
        assert [str(dewey) for dewey in sorted(shown)] == \
            [str(dewey) for dewey in sorted(fresh)]
        assert len(set(fresh) | set(shown)) == len(set(texts))
