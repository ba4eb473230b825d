"""Building a sharded corpus on disk, and reading it back.

A corpus directory looks like::

    corpusdir/
      CORPUS.json               # the corpus manifest (atomic write)
      shards/
        s0000/                  # a full snapshot database directory
          CURRENT               #   (docs/STORAGE.md), searchable on
          snapshots/g00000001/  #   its own with the ordinary tools
          BOUNDS.json           # per-term probability bounds summary
        s0001/
        ...

Each shard holds its documents concatenated under one synthetic
ordinary root (edge probability 1).  SLCA and ELCA probabilities are
*subtree-local* — a node's answer probability depends only on its own
subtree — so concatenation changes no document's answers; the only new
candidate is the synthetic root itself, which the corpus search layer
filters out (docs/CORPUS.md).  Within a shard, documents keep their
global order, and the manifest records each document's child position
under the corpus-wide concatenation, so a shard-local Dewey code
rewrites to the global code by swapping one component.

``BOUNDS.json`` persists, per term, ``min(1, sum of path
probabilities of the term's posting nodes)`` — by the union bound an
upper bound on the probability that *any* node matching the term
exists, hence on any SLCA probability involving the term.  The file
names the snapshot generation it was computed from; a reader seeing a
different live generation must recompute instead of trusting it.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, StorageError
from repro.index.inverted import InvertedIndex
from repro.index.storage import Database, _atomic_write, save_database
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.model import NodeType, PDocument, PNode
from repro.corpus import CORPUS_FILE
from repro.corpus.replication import replica_dir_name
from repro.corpus.sharding import assign_shards

CORPUS_FORMAT = "repro.corpus/v1"
BOUNDS_FILE = "BOUNDS.json"
BOUNDS_FORMAT = "repro.corpus.bounds/v1"
SHARDS_DIR = "shards"

#: Label of the synthetic root every shard (and the oracle's global
#: concatenation) hangs its documents under.
ROOT_LABEL = "corpus"


@dataclass(frozen=True)
class CorpusDocument:
    """One document's placement in the corpus.

    Attributes:
        name: unique document name.
        global_position: the document's 1-based child position under
            the corpus-wide concatenation root — component two of its
            nodes' *global* Dewey codes.
        shard: 0-based shard index.
        local_position: 1-based child position under the *shard's*
            synthetic root — component two of its nodes' shard-local
            codes.
        nodes: node count (sharding weight, sanity checks).
    """

    name: str
    global_position: int
    shard: int
    local_position: int
    nodes: int


@dataclass(frozen=True)
class CorpusManifest:
    """The parsed ``CORPUS.json``."""

    directory: str
    strategy: str
    root_label: str
    shard_names: Tuple[str, ...]
    documents: Tuple[CorpusDocument, ...]
    #: Independent on-disk copies of each shard (1 = unreplicated;
    #: manifests written before replication existed parse as 1).
    replicas: int = 1

    @property
    def shard_count(self) -> int:
        return len(self.shard_names)

    def shard_dir(self, shard: int) -> str:
        """Absolute path of shard ``shard``'s *primary* replica (the
        bare shard directory — identical to the pre-replication
        layout, so every legacy reader keeps working)."""
        return self.replica_dir(shard, 0)

    def replica_dir(self, shard: int, replica: int) -> str:
        """Absolute path of one replica's database directory."""
        return os.path.join(
            self.directory, SHARDS_DIR,
            replica_dir_name(self.shard_names[shard], replica))

    def replica_dirs(self, shard: int) -> List[str]:
        """All replica directories of one shard, primary first."""
        return [self.replica_dir(shard, replica)
                for replica in range(self.replicas)]

    def shard_documents(self, shard: int) -> List[CorpusDocument]:
        """The shard's documents in local (= global) order."""
        return sorted((doc for doc in self.documents
                       if doc.shard == shard),
                      key=lambda doc: doc.local_position)

    def position_map(self, shard: int) -> Dict[int, int]:
        """``local_position -> global_position`` for one shard."""
        return {doc.local_position: doc.global_position
                for doc in self.documents if doc.shard == shard}


def shard_name(shard: int) -> str:
    """Zero-padded directory name of shard ``shard`` (``s0003``)."""
    return f"s{shard:04d}"


# -- concatenation -------------------------------------------------------------


def concat_documents(documents: Sequence[Tuple[str, PDocument]],
                     root_label: str = ROOT_LABEL) -> PDocument:
    """Concatenate p-documents under one synthetic ordinary root.

    Document ``i`` (0-based) becomes the root's child at position
    ``i + 1`` with edge probability 1, so every node's Dewey code
    gains a ``(1, i + 1, ...)`` prefix while its path probability —
    and therefore its SLCA/ELCA probability — is untouched.  Inputs
    are deep-copied; callers keep their documents.
    """
    if not documents:
        raise QueryError("cannot concatenate an empty document list")
    root = PNode(root_label, NodeType.ORDINARY)
    for _, document in documents:
        root.add_child(document.copy().root)
    return PDocument(root)


# -- bounds --------------------------------------------------------------------


def compute_bounds(index: InvertedIndex) -> Tuple[Dict[str, float], float]:
    """Per-term probability bounds over one (shard) index.

    Returns ``(bounds, max_path_probability)``: for every indexed term
    the union-bound probability that any matching node exists (capped
    at 1), and the largest path probability among posting nodes — the
    loosest answer any query against this shard could score.
    """
    path_probability = index.encoded.paths
    bounds: Dict[str, float] = {}
    best = 0.0
    for term, ids in index.raw_postings().items():
        total = 0.0
        for node_id in ids:
            probability = path_probability[node_id]
            total += probability
            if probability > best:
                best = probability
        bounds[term] = min(1.0, total)
    return bounds, best


def write_bounds(shard_dir: str, generation: Optional[str],
                 bounds: Dict[str, float],
                 max_path_probability: float) -> None:
    """Persist a shard's ``BOUNDS.json`` (atomically)."""
    payload = {
        "format": BOUNDS_FORMAT,
        "generation": generation,
        "max_path_probability": max_path_probability,
        "terms": bounds,
    }
    _atomic_write(os.path.join(shard_dir, BOUNDS_FILE),
                  json.dumps(payload, sort_keys=True))


def read_bounds(shard_dir: str) -> Optional[Dict[str, object]]:
    """A shard's persisted bounds, or ``None`` when absent/unreadable.

    Bounds are an optimisation, never a correctness dependency: a
    missing or corrupt file degrades to "recompute from the index",
    so this reader swallows shape problems instead of raising.
    """
    path = os.path.join(shard_dir, BOUNDS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) \
            or payload.get("format") != BOUNDS_FORMAT \
            or not isinstance(payload.get("terms"), dict):
        return None
    return payload


# -- build / load --------------------------------------------------------------


def build_corpus(documents: Sequence[Tuple[str, PDocument]],
                 directory: str, shards: int = 4,
                 strategy: str = "hash", replicas: int = 1,
                 collector: Collector = NULL_COLLECTOR) -> CorpusManifest:
    """Shard ``documents`` into a corpus directory.

    Every shard — including ones the assignment leaves empty — is
    written as a complete snapshot database plus its bounds summary,
    and the manifest lands last (atomically), so a reader never sees a
    manifest naming a shard that is not fully on disk.

    With ``replicas=N > 1``, each shard is written as N *independent
    copies* in distinct directories (``s0000``, ``s0000.r1``, ...):
    the primary is built once, then copied file-for-file, so every
    replica shares the primary's content fingerprint (the same
    snapshot generation, the same checksummed manifest, the same
    ``BOUNDS.json``) while losing any single directory loses no data.
    :class:`~repro.corpus.CorpusService` routes each shard visit to a
    healthy replica and fails over on error (docs/CORPUS.md).

    Args:
        documents: ``(name, document)`` pairs; the sequence order *is*
            the corpus's global document order.
        directory: corpus directory (created if missing).
        shards: shard count.
        strategy: a :data:`repro.corpus.sharding.STRATEGIES` entry.
        replicas: independent copies of each shard (default 1).
        collector: receives ``corpus.build.*`` counters/timers.

    Returns:
        The manifest that was written.
    """
    directory = os.fspath(directory)
    if replicas < 1:
        raise QueryError(f"replicas must be >= 1, got {replicas}")
    names = [name for name, _ in documents]
    sizes = [len(document) for _, document in documents]
    assignment = assign_shards(names, sizes, shards, strategy)

    os.makedirs(os.path.join(directory, SHARDS_DIR), exist_ok=True)
    entries: List[CorpusDocument] = []
    per_shard: List[List[Tuple[str, PDocument]]] = \
        [[] for _ in range(shards)]
    for position, (name, document) in enumerate(documents):
        shard = assignment[position]
        per_shard[shard].append((name, document))
        entries.append(CorpusDocument(
            name=name, global_position=position + 1, shard=shard,
            local_position=len(per_shard[shard]),
            nodes=sizes[position]))

    shard_names: List[str] = []
    with collector.time("corpus.build"):
        for shard, members in enumerate(per_shard):
            label = shard_name(shard)
            shard_names.append(label)
            shard_dir = os.path.join(directory, SHARDS_DIR, label)
            if members:
                combined = concat_documents(members)
            else:
                combined = PDocument(PNode(ROOT_LABEL,
                                           NodeType.ORDINARY))
            database = Database.from_document(combined)
            generation = save_database(database, shard_dir,
                                       collector=collector)
            bounds, best = compute_bounds(database.index)
            write_bounds(shard_dir, generation, bounds, best)
            for replica in range(1, replicas):
                replica_dir = os.path.join(
                    directory, SHARDS_DIR,
                    replica_dir_name(label, replica))
                # A rebuild over an existing corpus replaces the
                # replica wholesale; copying file-for-file preserves
                # the primary's generation and checksums, which is
                # what makes the copies bit-substitutable.
                if os.path.isdir(replica_dir):
                    shutil.rmtree(replica_dir)
                shutil.copytree(shard_dir, replica_dir)
                if collector.enabled:
                    collector.count("corpus.build.replicas")
            if collector.enabled:
                collector.count("corpus.build.shards")
                collector.count("corpus.build.nodes", len(combined))

    manifest_payload = {
        "format": CORPUS_FORMAT,
        "strategy": strategy,
        "root_label": ROOT_LABEL,
        "replicas": replicas,
        "shards": shard_names,
        "documents": [{
            "name": doc.name,
            "global_position": doc.global_position,
            "shard": doc.shard,
            "local_position": doc.local_position,
            "nodes": doc.nodes,
        } for doc in entries],
    }
    _atomic_write(os.path.join(directory, CORPUS_FILE),
                  json.dumps(manifest_payload, indent=2, sort_keys=True))
    if collector.enabled:
        collector.count("corpus.build.documents", len(entries))
    return load_corpus_manifest(directory)


def load_corpus_manifest(directory: str) -> CorpusManifest:
    """Parse ``CORPUS.json``; raises :class:`StorageError` when the
    directory is not a corpus or the manifest is malformed."""
    directory = os.fspath(directory)
    path = os.path.join(directory, CORPUS_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise StorageError(
            f"{directory} is not a corpus directory: cannot read "
            f"{CORPUS_FILE} ({error})") from error
    except ValueError as error:
        raise StorageError(
            f"corrupt corpus manifest {path}: {error}") from error
    if not isinstance(payload, dict) \
            or payload.get("format") != CORPUS_FORMAT:
        raise StorageError(
            f"{path} is not a {CORPUS_FORMAT} manifest")
    try:
        shard_names = tuple(str(name) for name in payload["shards"])
        documents = tuple(CorpusDocument(
            name=str(entry["name"]),
            global_position=int(entry["global_position"]),
            shard=int(entry["shard"]),
            local_position=int(entry["local_position"]),
            nodes=int(entry["nodes"]),
        ) for entry in payload["documents"])
        strategy = str(payload.get("strategy", "hash"))
        root_label = str(payload.get("root_label", ROOT_LABEL))
        replicas = int(payload.get("replicas", 1))
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"corrupt corpus manifest {path}: {error}") from error
    if replicas < 1:
        raise StorageError(
            f"corrupt corpus manifest {path}: replicas must be >= 1, "
            f"got {replicas}")
    for doc in documents:
        if not 0 <= doc.shard < len(shard_names):
            raise StorageError(
                f"corrupt corpus manifest {path}: document "
                f"{doc.name!r} names shard {doc.shard} of "
                f"{len(shard_names)}")
    return CorpusManifest(directory=directory, strategy=strategy,
                          root_label=root_label,
                          shard_names=shard_names,
                          documents=documents, replicas=replicas)
