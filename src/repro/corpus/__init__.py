"""Sharded multi-document corpora with bound-driven scatter-gather.

The single-document stack (PRs 1–8) answers top-k queries over *one*
p-document behind one :class:`~repro.service.QueryService`.  This
package scales the same contract horizontally (docs/CORPUS.md): many
p-documents are partitioned into **shards**, each shard is an ordinary
snapshot-generation database directory (docs/STORAGE.md) holding its
documents concatenated under a synthetic ordinary root, and
:class:`CorpusService` fans a query out across shards, merging the
per-shard heaps into one global top-k under the shared result order
(:mod:`repro.core.order`).

The paper's path-probability bounds (Properties 1–5) reappear here at
shard granularity: every shard persists, per term, an upper bound on
any answer probability the shard can contribute.  Once the global heap
holds k results, a shard whose query bound is *strictly below* the
current k-th probability is skipped entirely — the scatter never
touches it — with the skip counted in ``stats["corpus"]`` and the
``corpus.*`` metrics.  Answers are bit-identical to a brute-force
search over all documents concatenated into one tree.
"""

import os

from repro._lazy import lazy_exports

#: The corpus manifest; its presence is what makes a directory a corpus.
CORPUS_FILE = "CORPUS.json"


def is_corpus_directory(directory: str) -> bool:
    """Whether ``directory`` holds a corpus (a ``CORPUS.json``).
    Defined here, not in the builder, so ``repro serve`` can tell a
    corpus from a single database without importing the corpus
    modules."""
    return os.path.isfile(os.path.join(os.fspath(directory), CORPUS_FILE))


__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.corpus.builder": ("BOUNDS_FILE", "BOUNDS_FORMAT",
                             "CORPUS_FORMAT", "CorpusDocument",
                             "CorpusManifest", "build_corpus",
                             "compute_bounds", "concat_documents",
                             "load_corpus_manifest", "read_bounds",
                             "write_bounds"),
    "repro.corpus.replication": ("HedgePolicy", "LatencyTracker",
                                 "ReplicaHealth", "ReplicaSelector",
                                 "replica_dir_name", "replica_name"),
    "repro.corpus.service": ("CorpusService", "corpus_fsck"),
    "repro.corpus.sharding": ("STRATEGIES", "assign_shards"),
})

__all__ = [
    "CORPUS_FILE", "CORPUS_FORMAT", "BOUNDS_FILE", "BOUNDS_FORMAT",
    "CorpusDocument", "CorpusManifest", "CorpusService",
    "HedgePolicy", "LatencyTracker", "ReplicaHealth",
    "ReplicaSelector", "assign_shards", "build_corpus",
    "compute_bounds", "concat_documents", "corpus_fsck",
    "is_corpus_directory", "load_corpus_manifest", "read_bounds",
    "replica_dir_name", "replica_name", "write_bounds",
    "STRATEGIES",
]
