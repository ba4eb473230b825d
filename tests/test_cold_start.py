"""Cold-start guards: a lean serve import and a server that never
builds the p-document tree.

A format 2 snapshot loads its columns and postings without parsing the
XML, and ``repro serve`` imports only what serving needs.  These tests
hold both properties:

* in a fresh interpreter, importing ``repro.cli`` and
  ``repro.serve.server`` leaves the XML parser and serializer,
  ``xml.sax`` (and through it ``urllib.request``), the linter and the
  data generators unimported — and every boundary the traced benchmark
  server wraps still resolves there;
* serving single-document, corpus and cache-hit queries from loaded
  format 2 snapshots constructs no :class:`PDocument`, and every served
  label is the tree's label for the served code.
"""

import http.client
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import CorpusService, build_corpus, concat_documents
from repro.datagen import generate_dblp, make_probabilistic
from repro.index.storage import Database, load_database, save_database
from repro.obs import MetricsCollector
from repro.prxml.model import PDocument
from repro.serve import ServeConfig, start_in_thread
from repro.service import QueryService

ROOT = Path(__file__).resolve().parents[1]

#: Modules a server process must never import.
NOT_SERVED = ("repro.prxml.parser", "repro.prxml.serializer", "xml.sax",
              "urllib.request", "repro.analysis.linter", "repro.datagen")

QUERIES = (["xml", "keyword"], ["query", "data"], ["xml"],
           ["keyword", "search", "probabilistic"])


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serve_import_leaves_tree_tools_unimported():
    loaded = json.loads(run_fresh(
        "import json, sys\n"
        "import repro.cli, repro.serve.server\n"
        f"print(json.dumps([m for m in {list(NOT_SERVED)!r} "
        "if m in sys.modules]))\n"))
    assert loaded == []


def test_single_document_serve_leaves_corpus_modules_unimported(tmp_path):
    """``repro serve`` on a database tells it from a corpus by the
    manifest file alone; the corpus builder, replication and sharding
    modules stay unimported once the snapshot is loaded."""
    directory = tmp_path / "db"
    save_database(Database.from_document(dblp(5)), directory)
    corpus = ["repro.corpus.builder", "repro.corpus.replication",
              "repro.corpus.sharding"]
    loaded = json.loads(run_fresh(
        "import asyncio, json, sys\n"
        "import repro.cli\n"
        "def stop(main):\n"
        "    main.close()\n"
        "    return 0\n"
        "asyncio.run = stop  # return once the server is built\n"
        f"assert repro.cli.main(['serve', {str(directory)!r}, "
        "'--port', '0']) == 0\n"
        "assert 'repro.service.service' in sys.modules\n"
        f"print(json.dumps([m for m in {corpus!r} "
        "if m in sys.modules]))\n"))
    assert loaded == []


def test_traced_boundaries_resolve_in_a_fresh_process():
    """The boundaries must be module attributes in their own right,
    not names a package ``__init__`` happened to import first."""
    missing = json.loads(run_fresh(
        "import importlib, importlib.util, json\n"
        "spec = importlib.util.spec_from_file_location('traced_serve', "
        f"{str(ROOT / 'benchmarks' / 'e2e' / 'traced_serve.py')!r})\n"
        "traced = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(traced)\n"
        "missing = []\n"
        "for layer, module, attribute in traced.BOUNDARIES:\n"
        "    owner = importlib.import_module(module)\n"
        "    for part in attribute.split('.'):\n"
        "        owner = getattr(owner, part, None)\n"
        "    if not callable(owner):\n"
        "        missing.append([module, attribute])\n"
        "print(json.dumps(missing))\n"))
    assert missing == []


def dblp(seed: int, publications: int = 40) -> PDocument:
    return make_probabilistic(generate_dblp(publications, seed=seed),
                              seed=seed)


class _TreeCounter:
    """Counts :class:`PDocument` constructions while installed."""

    def __init__(self, monkeypatch):
        self.built = 0
        original = PDocument.__init__

        def counting(document, root):
            self.built += 1
            original(document, root)

        monkeypatch.setattr(PDocument, "__init__", counting)


def post(port: int, payload) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/search",
                           body=json.dumps(payload).encode())
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 200, body
        return body
    finally:
        connection.close()


def serve_all(service, collector) -> list:
    """Every query twice (the second answer comes from the result
    cache); returns the served result rows."""
    handle = start_in_thread(service, ServeConfig(max_inflight=2),
                             collector=collector)
    try:
        rows = []
        for _ in range(2):
            for keywords in QUERIES:
                rows.extend(post(handle.port, {"keywords": keywords,
                                               "k": 5})["results"])
    finally:
        assert handle.stop() == 0
    return rows


def test_single_document_serving_builds_no_tree(tmp_path, monkeypatch):
    directory = tmp_path / "db"
    save_database(Database.from_document(dblp(5)), directory)
    database = load_database(directory)
    collector = MetricsCollector()
    counter = _TreeCounter(monkeypatch)
    rows = serve_all(QueryService(database, collector=collector),
                     collector)
    assert counter.built == 0
    assert not database.encoded.has_document
    counters = collector.snapshot()["counters"]
    assert counters.get("service.cache.results.hits", 0) >= len(QUERIES)
    assert rows
    monkeypatch.undo()
    encoded = database.encoded
    for row in rows:
        node = encoded.document.node_by_id(
            encoded.id_at(_positions(row["code"])))
        assert row["label"] == node.label


def test_corpus_serving_builds_no_tree(tmp_path, monkeypatch):
    documents = [(f"doc{seed}", dblp(seed, 25)) for seed in (11, 12, 13)]
    directory = str(tmp_path / "corpus")
    build_corpus(documents, directory, shards=2)
    oracle = Database.from_document(concat_documents(documents))
    collector = MetricsCollector()
    counter = _TreeCounter(monkeypatch)
    service = CorpusService(directory, collector=collector)
    rows = serve_all(service, collector)
    assert counter.built == 0
    assert rows
    monkeypatch.undo()
    encoded = oracle.encoded
    for row in rows:
        node = encoded.document.node_by_id(
            encoded.id_at(_positions(row["code"])))
        assert row["label"] == node.label


def _positions(code: str) -> tuple:
    """The sibling positions of a printed code (``1.M2.I1.3``)."""
    return tuple(int(part.lstrip("MIE")) for part in code.split("."))


@pytest.mark.parametrize("verify", [True, False])
def test_first_document_access_builds_one_tree(tmp_path, verify):
    directory = tmp_path / "db"
    document = dblp(3, 10)
    save_database(Database.from_document(document), directory)
    database = load_database(directory, verify=verify)
    assert not database.encoded.has_document
    first = database.document
    assert database.document is first
    assert [node.label for node in first] == \
        [node.label for node in document]
