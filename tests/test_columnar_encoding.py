"""Differential tests of the columnar encoding.

:func:`encode_document` fills node columns instead of building one
Dewey code and one PrLink per node.  These tests keep a reference copy
of the per-node encoder it replaced and check, on seeded random
p-documents with IND, MUX and EXP nodes, that the columns carry the
same encoding:

* ``code(i)`` has the reference code's positions and kinds;
* the path column equals ``math.prod`` of the reference PrLink bit for
  bit (``float.hex``), and the edge column is the link's last entry;
* the subtree end column matches an ancestor scan over the codes;
* ``id_at(code(i).positions) == i``, and foreign positions raise
  :class:`EncodingError`.
"""

import math
import random

import pytest

from repro import DeweyCode, encode_document
from repro.exceptions import EncodingError
from tests.conftest import random_pdoc


def reference_encoding(document):
    """The per-node encoder the columns replaced: one extended Dewey
    code and one PrLink tuple per node, in one preorder pass."""
    count = len(document)
    codes = [None] * count
    links = [None] * count
    root = document.root
    codes[root.node_id] = DeweyCode.root()
    links[root.node_id] = (1.0,)
    stack = [root]
    while stack:
        node = stack.pop()
        code = codes[node.node_id]
        link = links[node.node_id]
        for position, child in enumerate(node.children, start=1):
            codes[child.node_id] = code.child(position, child.node_type)
            links[child.node_id] = link + (child.edge_prob,)
            stack.append(child)
    return codes, links


def documents():
    for seed in range(40):
        yield pytest.param(seed, id=f"seed-{seed}")


@pytest.mark.parametrize("seed", documents())
def test_columns_match_the_reference_encoder(seed):
    document = random_pdoc(random.Random(seed), max_nodes=60,
                           keywords=("k1", "k2", "k3"), with_exp=True)
    encoded = encode_document(document)
    codes, links = reference_encoding(document)
    assert len(encoded) == len(codes)
    for node_id, (reference, link) in enumerate(zip(codes, links)):
        code = encoded.code(node_id)
        assert code.positions == reference.positions
        assert code.kinds == reference.kinds
        assert encoded.kinds[node_id] is reference.node_type
        assert encoded.depths[node_id] == len(reference)
        assert encoded.positions[node_id] == reference.positions[-1]
        assert encoded.edges[node_id].hex() == link[-1].hex()
        assert encoded.paths[node_id].hex() == math.prod(link).hex()
        parent = encoded.parents[node_id]
        if node_id == 0:
            assert parent == -1
        else:
            assert codes[parent] == reference.parent()
        assert encoded.id_at(code.positions) == node_id


@pytest.mark.parametrize("seed", documents())
def test_subtree_ends_match_an_ancestor_scan(seed):
    document = random_pdoc(random.Random(seed), max_nodes=60,
                           with_exp=True)
    encoded = encode_document(document)
    codes, _ = reference_encoding(document)
    for node_id, code in enumerate(codes):
        end = node_id + 1
        while end < len(codes) and code.is_ancestor_of(codes[end]):
            end += 1
        assert encoded.ends[node_id] == end


@pytest.mark.parametrize("seed", range(10))
def test_foreign_positions_raise(seed):
    document = random_pdoc(random.Random(seed), max_nodes=30,
                           with_exp=True)
    encoded = encode_document(document)
    codes, _ = reference_encoding(document)
    known = {code.positions for code in codes}
    foreign = [(), (2,), (0,), (1, 0), (1, -1),
               (1, len(document.root.children) + 1)]
    for code in codes:
        positions = code.positions
        foreign.append(positions + (1 + sum(
            1 for other in known
            if len(other) == len(positions) + 1
            and other[:-1] == positions),))
    for positions in foreign:
        assert positions not in known
        with pytest.raises(EncodingError, match="no node"):
            encoded.id_at(positions)


def test_served_queries_hold_no_per_node_codes(tmp_path):
    """A loaded snapshot and 50 distinct served queries leave fewer new
    live :class:`DeweyCode` objects than 1% of the node count: codes
    are built on request for answers only, never cached per node.  The
    service's result cache keeps its answers' codes, so it is sized to
    one entry here."""
    import gc

    from repro import Database
    from repro.datagen import generate_dblp, make_probabilistic
    from repro.index.storage import load_database, save_database
    from repro.service import QueryService

    def live_codes():
        gc.collect()
        return sum(1 for item in gc.get_objects()
                   if isinstance(item, DeweyCode))

    before = live_codes()
    document = make_probabilistic(generate_dblp(550), seed=5)
    save_database(Database.from_document(document), tmp_path)
    del document
    database = load_database(tmp_path)
    nodes = len(database.encoded)
    assert 4500 <= nodes <= 6000
    index = database.index
    vocabulary = [term for term in index.vocabulary()
                  if 5 <= index.document_frequency(term) <= 400]
    rng = random.Random(3)
    queries = set()
    while len(queries) < 50:
        queries.add(tuple(sorted(rng.sample(vocabulary, 2))))
    service = QueryService(database, cache_size=1)
    for algorithm in ("eager", "prstack"):
        for terms in sorted(queries):
            service.search(list(terms), k=10, algorithm=algorithm)
    assert live_codes() - before < nodes / 100
    assert "path_probs" not in service.cache_stats()
