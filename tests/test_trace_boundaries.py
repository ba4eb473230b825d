"""The traced benchmark server's layer boundaries exist in the program.

``benchmarks/e2e/traced_serve.py`` wraps the functions named in its
``BOUNDARIES`` and refuses to serve when one cannot be found, so a
renamed boundary would only surface when the traced benchmark runs.
These tests load that file (without changing it) and check every
boundary resolves, that the entry count its wrapper records —
``len(result[1])`` of a match-list build — is the number of match
entries, and that each search calls its index boundaries once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro import Database, topk_search
from repro.index.matchlist import build_match_entries

TRACED_SERVE = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
                / "traced_serve.py")


@pytest.fixture(scope="module")
def traced_serve():
    spec = importlib.util.spec_from_file_location("traced_serve",
                                                  TRACED_SERVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attribute):
    """``(owner, name)`` of a boundary, as ``SpanLog.install`` walks it."""
    owner = importlib.import_module(module_name)
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def test_every_boundary_resolves(traced_serve):
    assert traced_serve.BOUNDARIES
    for layer, module_name, attribute in traced_serve.BOUNDARIES:
        owner, name = resolve(module_name, attribute)
        assert callable(getattr(owner, name)), (layer, module_name,
                                                attribute)


def test_recorded_entries_are_the_entry_count(traced_serve, figure1_db):
    index = figure1_db.index
    terms = index.query_terms(["k1", "k2"])
    distinct = set()
    for term in terms:
        distinct.update(index.postings(term))
    assert len(build_match_entries(index, terms)[1]) == len(distinct)

    log = traced_serve.SpanLog()
    wrapped = log.wrap("index", "repro.core.prstack.build_match_entries",
                       build_match_entries)
    ids, masks = wrapped(index, terms)
    (span,) = log.spans
    assert span[-1] == len(ids) == len(masks) == len(distinct)


def test_each_search_crosses_its_index_boundaries_once(traced_serve,
                                                       figure1_doc,
                                                       monkeypatch):
    log = traced_serve.SpanLog()
    for layer, module_name, attribute in traced_serve.BOUNDARIES:
        if layer == "index" and not attribute.endswith("load_database"):
            owner, name = resolve(module_name, attribute)
            monkeypatch.setattr(owner, name, log.wrap(
                layer, f"{module_name}.{attribute}", getattr(owner, name)))
    database = Database.from_document(figure1_doc)
    for algorithm in ("prstack", "eager"):
        del log.spans[:]
        outcome = topk_search(database, ["k1", "k2"], 3, algorithm)
        names = sorted(span[4] for span in log.spans)
        expected = {"prstack": ["repro.core.prstack.build_match_entries"],
                    "eager": ["repro.core.eager.build_match_entries",
                              "repro.core.eager.keyword_code_lists"]}
        assert names == expected[algorithm]
        entries = [span[-1] for span in log.spans if span[-1] is not None]
        assert entries == [outcome.stats["match_entries"]]
