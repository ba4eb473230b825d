"""A copy of the format 1 snapshot writer, for tests of the older format.

The library writes format 2 (packed columns and postings) but still
reads, verifies, repairs and migrates format 1 snapshots and legacy
flat directories.  These helpers write exactly what the format 1
writer wrote — ``document.pxml``, ``postings.jsonl`` (one
``{"t": term, "ids": [...]}`` object a line, terms sorted) and
``meta.json`` with ``"version": 1``, plus a ``repro.manifest/v1``
manifest recording each file's size and SHA-256 — so the tests
exercise real format 1 bytes, not the library's own idea of them.
"""

import hashlib
import json
import os

from repro.prxml.serializer import serialize_pxml

FORMAT1_FILES = ("document.pxml", "postings.jsonl", "meta.json")


def format1_bodies(database) -> dict:
    """Each format 1 data file's text."""
    lines = [json.dumps({"t": term, "ids": list(ids)}, ensure_ascii=False)
             for term, ids in sorted(database.index.raw_postings().items())]
    return {
        "document.pxml": serialize_pxml(database.document),
        "postings.jsonl": "\n".join(lines) + "\n" if lines else "",
        "meta.json": json.dumps({"version": 1,
                                 "nodes": len(database.document),
                                 "terms": len(database.index)},
                                indent=2) + "\n",
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def save_format1(database, directory) -> str:
    """Write a format 1 generation and point ``CURRENT`` at it."""
    directory = os.fspath(directory)
    snapshots = os.path.join(directory, "snapshots")
    os.makedirs(snapshots, exist_ok=True)
    numbers = [int(name[1:]) for name in os.listdir(snapshots)
               if name.startswith("g") and name[1:].isdigit()]
    generation = f"g{max(numbers, default=0) + 1:08d}"
    snapshot = os.path.join(snapshots, generation)
    os.makedirs(snapshot)
    bodies = format1_bodies(database)
    files = {}
    for name in FORMAT1_FILES:
        _write(os.path.join(snapshot, name), bodies[name])
        data = bodies[name].encode("utf-8")
        files[name] = {"bytes": len(data),
                       "sha256": hashlib.sha256(data).hexdigest()}
    manifest = {"format": "repro.manifest/v1", "generation": generation,
                "version": 1, "nodes": len(database.document),
                "terms": len(database.index), "files": files}
    _write(os.path.join(snapshot, "MANIFEST.json"),
           json.dumps(manifest, indent=2) + "\n")
    _write(os.path.join(directory, "CURRENT"), generation + "\n")
    return generation


def save_legacy(database, directory) -> None:
    """Write a pre-snapshot flat directory: format 1's three data files
    at the top level, no manifest and no ``CURRENT``."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    for name, text in format1_bodies(database).items():
        _write(os.path.join(directory, name), text)
