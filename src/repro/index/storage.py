"""Persistence: crash-safe, checksummed snapshots of a database.

A *database directory* holds versioned, immutable snapshots plus one
atomic pointer to the active generation::

    dbdir/
      CURRENT                    # the active generation name, e.g. g00000002
      snapshots/
        g00000001/
          document.pxml          # the p-document in the XML text format
          postings.jsonl         # one JSON object per line: {"t": term, "ids": [...]}
          meta.json              # format version and integrity counters
          MANIFEST.json          # repro.manifest/v1: per-file size + SHA-256
        g00000002/
          ...

:func:`save_database` writes every file of a new generation to a
staging directory (each file through :func:`_atomic_write`: temp name,
flush, fsync, rename), fsyncs, atomically renames the staging directory
into ``snapshots/<generation>/`` and only then flips ``CURRENT`` with
one more atomic rename.  A crash at *any* byte therefore leaves the
previous generation fully intact and loadable — at worst a stale
staging directory remains, which the next save (or ``repro fsck``)
sweeps away.

:func:`load_database` resolves ``CURRENT``, reads each data file once,
verifies those bytes' size and SHA-256 against the manifest (skippable
with ``verify=False`` for speed), and parses the same bytes: it
re-encodes the document (Dewey codes are deterministic, so they never
need to be stored) and cross-checks the posting lists against it.  A
verified snapshot whose content is already loaded in this process
shares that in-memory index instead of parsing it again.
Pre-snapshot *legacy* directories — the three data files sitting flat
in ``dbdir`` with no ``CURRENT`` — keep loading read-only for backward
compatibility; ``repro snapshot`` migrates them.

Corruption recovery lives in :mod:`repro.index.fsck`; the full layout
and manifest schema are documented in docs/STORAGE.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import threading
import weakref
from array import array
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.encoding.encoder import EncodedDocument, encode_document
from repro.exceptions import ParseError, ReproError, StorageError
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.parser import parse_pxml
from repro.prxml.serializer import serialize_pxml

FORMAT_VERSION = 1

#: Manifest schema identifier (``repro.manifest/v<n>``).
MANIFEST_FORMAT = "repro.manifest/v1"

CURRENT_FILE = "CURRENT"
SNAPSHOTS_DIR = "snapshots"
MANIFEST_FILE = "MANIFEST.json"

_DOCUMENT_FILE = "document.pxml"
_POSTINGS_FILE = "postings.jsonl"
_META_FILE = "meta.json"

#: The checksummed data files of one snapshot, in write order.
DATA_FILES = (_DOCUMENT_FILE, _POSTINGS_FILE, _META_FILE)

#: Prefix of staging directories (an interrupted save leaves one behind).
STAGING_PREFIX = ".staging-"


class Database:
    """A loaded document + encoding + inverted index bundle.

    Attributes:
        generation: the snapshot generation this database was loaded
            from (``None`` for in-memory builds and legacy flat
            directories).
        directory: the database directory it came from, if any.
    """

    def __init__(self, encoded: EncodedDocument, index: InvertedIndex,
                 generation: Optional[str] = None,
                 directory: Optional[str] = None):
        self.encoded = encoded
        self.index = index
        self.generation = generation
        self.directory = directory

    @property
    def document(self):
        """The underlying :class:`PDocument`."""
        return self.encoded.document

    @classmethod
    def from_document(cls, document) -> "Database":
        """Encode and index an in-memory document."""
        encoded = encode_document(document)
        return cls(encoded, InvertedIndex.from_document(encoded))


# -- the blessed atomic writer ------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so a crash never leaves a torn file.

    The bytes land in ``path + ".tmp"`` first, are flushed and fsynced,
    and only then renamed over ``path`` — readers see either the old
    complete file or the new complete file, never a prefix.  This is
    the *only* sanctioned way to write inside ``repro/index/`` and
    ``repro/service/`` (linter rule R007, docs/ANALYSIS.md).
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _fsync_dir(path: str) -> None:
    """Persist a directory's entry table (new/renamed children)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # repro: ignore[R006] dir fsync is best-effort
        pass  # pragma: no cover - platform without directory fsync
    finally:
        os.close(fd)


def _sha256_text(text: str) -> Tuple[str, int]:
    """Checksum and byte size of a file body (UTF-8)."""
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def sha256_file(path: str) -> Tuple[str, int]:
    """Streaming checksum and size of an existing file."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


# -- directory layout ---------------------------------------------------------


def generation_name(number: int) -> str:
    """The canonical zero-padded generation directory name."""
    return f"g{number:08d}"


def list_generations(directory) -> List[str]:
    """All snapshot generation names in ``directory``, oldest first."""
    snapshots = os.path.join(os.fspath(directory), SNAPSHOTS_DIR)
    try:
        names = os.listdir(snapshots)
    except OSError:
        return []
    return sorted(name for name in names
                  if name.startswith("g") and name[1:].isdigit()
                  and os.path.isdir(os.path.join(snapshots, name)))


def current_generation(directory) -> Optional[str]:
    """The generation named by ``CURRENT`` (``None`` when absent)."""
    pointer = os.path.join(os.fspath(directory), CURRENT_FILE)
    try:
        with open(pointer, encoding="utf-8") as handle:
            name = handle.read().strip()
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"cannot read {pointer}: {exc}") from exc
    if not name:
        raise StorageError(f"{pointer} is empty; run 'repro fsck' to "
                           f"recover the newest intact generation")
    return name


def snapshot_path(directory, generation: str) -> str:
    """The directory of one snapshot generation."""
    return os.path.join(os.fspath(directory), SNAPSHOTS_DIR, generation)


def is_legacy_layout(directory) -> bool:
    """Whether ``directory`` is a pre-snapshot flat database dir."""
    directory = os.fspath(directory)
    return (not os.path.exists(os.path.join(directory, CURRENT_FILE))
            and os.path.exists(os.path.join(directory, _META_FILE)))


def _next_generation(directory: str) -> str:
    highest = 0
    for name in list_generations(directory):
        highest = max(highest, int(name[1:]))
    return generation_name(highest + 1)


# -- saving -------------------------------------------------------------------


def _postings_text(index: InvertedIndex) -> str:
    """Render the postings JSONL body, rejecting corrupt inputs."""
    lines: List[str] = []
    for term, ids in sorted(index.raw_postings().items()):
        if not len(ids):
            # A term with no matching node cannot come from indexing a
            # document; writing it would only defer the failure to load
            # time.  Reject symmetrically with the loader.
            raise StorageError(
                f"term {term!r} has an empty posting list; "
                f"refusing to persist a corrupt index")
        # ensure_ascii=False keeps non-ASCII terms (e.g. 'café') as
        # readable UTF-8 in the JSONL, matching the file's declared
        # encoding instead of double-escaping.
        lines.append(json.dumps({"t": term, "ids": list(ids)},
                                ensure_ascii=False))
    return "\n".join(lines) + "\n" if lines else ""


def build_manifest(generation: str, nodes: int, terms: int,
                   files: Dict[str, Dict[str, object]]
                   ) -> Dict[str, object]:
    """The ``repro.manifest/v1`` record for one snapshot."""
    return {
        "format": MANIFEST_FORMAT,
        "generation": generation,
        "version": FORMAT_VERSION,
        "nodes": nodes,
        "terms": terms,
        "files": files,
    }


def save_database(database: Database, directory,
                  collector: Collector = NULL_COLLECTOR) -> str:
    """Write a new snapshot generation and flip ``CURRENT`` to it.

    The directory is created if missing.  Returns the new generation
    name; the database's ``generation``/``directory`` attributes are
    updated to match.  A failure (or crash) at any point leaves the
    previously-current generation untouched and loadable.
    """
    directory = os.fspath(directory)
    snapshots = os.path.join(directory, SNAPSHOTS_DIR)
    staging: Optional[str] = None
    try:
        with collector.time("storage.save"):
            os.makedirs(snapshots, exist_ok=True)
            generation = _next_generation(directory)
            staging = os.path.join(snapshots, STAGING_PREFIX + generation)
            shutil.rmtree(staging, ignore_errors=True)
            os.makedirs(staging)

            bodies = {
                _DOCUMENT_FILE: serialize_pxml(database.document),
                _POSTINGS_FILE: _postings_text(database.index),
                _META_FILE: json.dumps({
                    "version": FORMAT_VERSION,
                    "nodes": len(database.document),
                    "terms": len(database.index),
                }, indent=2) + "\n",
            }
            files: Dict[str, Dict[str, object]] = {}
            for name in DATA_FILES:
                _atomic_write(os.path.join(staging, name), bodies[name])
                digest, size = _sha256_text(bodies[name])
                files[name] = {"bytes": size, "sha256": digest}
            manifest = build_manifest(generation,
                                      len(database.document),
                                      len(database.index), files)
            _atomic_write(os.path.join(staging, MANIFEST_FILE),
                          json.dumps(manifest, indent=2) + "\n")
            _fsync_dir(staging)

            final = os.path.join(snapshots, generation)
            os.replace(staging, final)
            staging = None
            _fsync_dir(snapshots)

            # The commit point: one atomic rename flips the active
            # generation.  Everything before this line is invisible to
            # readers; everything after it is durable.
            _atomic_write(os.path.join(directory, CURRENT_FILE),
                          generation + "\n")
            _fsync_dir(directory)
        if collector.enabled:
            collector.count("storage.save.generations")
        database.generation = generation
        database.directory = directory
        return generation
    except OSError as exc:
        raise StorageError(f"cannot write database to {directory}: {exc}"
                           ) from exc
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)


# -- manifest reading and verification ----------------------------------------


def read_manifest(snapshot_dir) -> Dict[str, object]:
    """Read and structurally validate one snapshot's manifest.

    Raises:
        StorageError: when the manifest is missing, malformed, or a
            newer schema than this library understands (named in the
            message, with the upgrade path).
    """
    path = os.path.join(os.fspath(snapshot_dir), MANIFEST_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(
            f"{path} is missing; this snapshot cannot be verified "
            f"(run 'repro fsck --repair' to rebuild it)") from exc
    except (OSError, ValueError) as exc:
        # ValueError covers both JSONDecodeError and the
        # UnicodeDecodeError binary garbage produces.
        raise StorageError(f"cannot read {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StorageError(f"{path}: manifest is not a JSON object")
    fmt = manifest.get("format")
    if fmt != MANIFEST_FORMAT:
        if isinstance(fmt, str) and fmt.startswith("repro.manifest/"):
            raise StorageError(
                f"{path}: manifest format {fmt!r} is newer than this "
                f"library's {MANIFEST_FORMAT!r}; upgrade the repro "
                f"library to read this snapshot")
        raise StorageError(
            f"{path}: not a repro manifest (format={fmt!r}, expected "
            f"{MANIFEST_FORMAT!r})")
    if not isinstance(manifest.get("files"), dict):
        raise StorageError(f"{path}: manifest has no 'files' table")
    return manifest


def verify_snapshot(snapshot_dir,
                    manifest: Optional[Dict[str, object]] = None
                    ) -> List[Tuple[str, str, str]]:
    """Compare a snapshot's files against its manifest.

    Returns a list of ``(file, kind, detail)`` problems, where kind is
    ``missing_file``, ``size_mismatch`` or ``checksum_mismatch`` — an
    empty list means every recorded file is bit-for-bit intact.
    """
    snapshot_dir = os.fspath(snapshot_dir)
    if manifest is None:
        manifest = read_manifest(snapshot_dir)
    problems: List[Tuple[str, str, str]] = []
    files = manifest.get("files", {})
    for name in DATA_FILES:
        record = files.get(name)
        path = os.path.join(snapshot_dir, name)
        measured = (sha256_file(path)
                    if record is not None and os.path.exists(path)
                    else None)
        problem = _file_problem(name, path, record, measured)
        if problem is not None:
            problems.append(problem)
    return problems


def _file_problem(name: str, path: str, record: Optional[Dict],
                  measured: Optional[Tuple[str, int]]
                  ) -> Optional[Tuple[str, str, str]]:
    """One data file against its manifest record (``measured`` is its
    ``(sha256, bytes)``, or ``None`` when the file is missing)."""
    if record is None:
        return (name, "missing_file",
                f"{path}: not recorded in the manifest")
    if measured is None:
        return (name, "missing_file", f"{path}: missing")
    digest, size = measured
    if size != record.get("bytes"):
        return (name, "size_mismatch",
                f"{path}: {size} bytes on disk but the manifest "
                f"recorded {record.get('bytes')}")
    if digest != record.get("sha256"):
        return (name, "checksum_mismatch",
                f"{path}: SHA-256 {digest[:12]}... does not match the "
                f"manifest's {str(record.get('sha256'))[:12]}...")
    return None


# -- loading ------------------------------------------------------------------


def resolve_snapshot(directory) -> Tuple[str, Optional[str]]:
    """Locate the active data files of a database directory.

    Returns ``(data_dir, generation)``; ``generation`` is ``None`` for
    a legacy flat-layout directory (which stays read-only).

    Raises:
        StorageError: when the directory is no database at all, or
            ``CURRENT`` points at a missing generation.
    """
    directory = os.fspath(directory)
    generation = current_generation(directory)
    if generation is not None:
        snapshot = snapshot_path(directory, generation)
        if not os.path.isdir(snapshot):
            known = ", ".join(list_generations(directory)) or "none"
            raise StorageError(
                f"{os.path.join(directory, CURRENT_FILE)} points at "
                f"generation {generation!r} but {snapshot} does not "
                f"exist (present: {known}); run 'repro fsck --repair' "
                f"to fall back to the newest intact generation")
        return snapshot, generation
    if os.path.exists(os.path.join(directory, _META_FILE)):
        return directory, None
    raise StorageError(
        f"{directory} is not a database directory: no {CURRENT_FILE} "
        f"pointer and no legacy {_META_FILE}")


def load_database(directory, verify: bool = True,
                  collector: Collector = NULL_COLLECTOR) -> Database:
    """Load the active generation written by :func:`save_database`.

    Each data file is read once: the bytes checked against the
    manifest are the bytes parsed.  A verified snapshot whose content
    is already loaded in this process — a shard's other replica, a
    reload of an unchanged generation — shares that in-memory index
    (see :class:`_SharedIndexes`); the returned :class:`Database`
    still names its own generation and directory.

    Args:
        directory: the database directory (snapshot layout, or a
            legacy flat directory — loaded read-only).
        verify: check every data file's size and SHA-256 against the
            snapshot manifest before parsing (legacy directories have
            no manifest and skip this).  Passing ``False`` trades the
            integrity check for load speed; unverified loads never
            share an index.
        collector: receives ``storage.load`` timing and
            ``storage.verify.*`` / ``storage.load.*`` counters.
    """
    directory = os.fspath(directory)
    with collector.time("storage.load"):
        data_dir, generation = resolve_snapshot(directory)
        manifest = (read_manifest(data_dir) if generation is not None
                    else None)
        bodies = _read_bodies(data_dir)
        key: Optional[_ContentKey] = None
        if manifest is not None and verify:
            with collector.time("storage.verify"):
                problems = _verify_bodies(data_dir, manifest, bodies)
            if collector.enabled:
                collector.count("storage.verify.files", len(DATA_FILES))
                collector.count("storage.verify.failures", len(problems))
            if problems:
                _file, kind, detail = problems[0]
                more = (f" (and {len(problems) - 1} more problem(s))"
                        if len(problems) > 1 else "")
                raise StorageError(
                    f"snapshot {generation} failed verification: "
                    f"{kind}: {detail}{more}; run 'repro fsck "
                    f"--repair' to quarantine and rebuild")
            key = _content_key(manifest)
        index = _SHARED.get(key) if key is not None else None
        shared = index is not None
        if index is None:
            parsed = _index_from_bodies(data_dir, bodies)
            index = parsed if key is None else _SHARED.offer(key, parsed)
            shared = index is not parsed
        database = Database(index.encoded, index, generation, directory)
    if collector.enabled:
        collector.count("storage.load.databases")
        if shared:
            collector.count("storage.load.shared")
        if generation is None:
            collector.count("storage.load.legacy")
    return database


#: The manifest's ``(file, bytes, sha256)`` for every data file.
_ContentKey = Tuple[Tuple[str, object, object], ...]


def _content_key(manifest: Dict[str, object]) -> _ContentKey:
    files = manifest.get("files", {})
    return tuple((name, files[name].get("bytes"), files[name].get("sha256"))
                 for name in DATA_FILES)


class _SharedIndexes:
    """One in-memory index per verified snapshot content.

    Snapshot indexes are read-only once loaded, so every verified load
    of the same bytes can serve the same :class:`InvertedIndex`.  The
    map holds its entries weakly: a copy lives only while some loaded
    :class:`Database` (and so some service state) still holds it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: weakref.WeakValueDictionary[  # repro: guarded-by[_lock]
            _ContentKey, InvertedIndex] = weakref.WeakValueDictionary()

    def get(self, key: _ContentKey) -> Optional[InvertedIndex]:
        with self._lock:
            return self._entries.get(key)

    def offer(self, key: _ContentKey,
              index: InvertedIndex) -> InvertedIndex:
        """Record ``index`` for ``key`` and return the copy to serve —
        an earlier one if a concurrent load recorded it first."""
        with self._lock:
            return self._entries.setdefault(key, index)

    def after_fork(self) -> None:
        """A fork while another thread held the lock would leave the
        child's copy locked forever; the child starts a new one."""
        self._lock = threading.Lock()


_SHARED = _SharedIndexes()
os.register_at_fork(after_in_child=_SHARED.after_fork)


def _read_bodies(data_dir: str) -> Dict[str, Union[bytes, OSError]]:
    """Each data file's bytes, or the error reading it, in one read."""
    bodies: Dict[str, Union[bytes, OSError]] = {}
    for name in DATA_FILES:
        try:
            with open(os.path.join(data_dir, name), "rb") as handle:
                bodies[name] = handle.read()
        except OSError as exc:
            bodies[name] = exc
    return bodies


def _verify_bodies(data_dir: str, manifest: Dict[str, object],
                   bodies: Dict[str, Union[bytes, OSError]]
                   ) -> List[Tuple[str, str, str]]:
    """:func:`verify_snapshot` over bytes already read."""
    problems: List[Tuple[str, str, str]] = []
    files = manifest.get("files", {})
    for name in DATA_FILES:
        path = os.path.join(data_dir, name)
        measured = None
        if not isinstance(bodies[name], FileNotFoundError):
            body = _body(bodies, name, path)
            measured = (hashlib.sha256(body).hexdigest(), len(body))
        problem = _file_problem(name, path, files.get(name), measured)
        if problem is not None:
            problems.append(problem)
    return problems


def _body(bodies: Dict[str, Union[bytes, OSError]], name: str, path: str,
          error: Type[ReproError] = StorageError) -> bytes:
    """A read body, or ``error`` naming why it could not be read."""
    body = bodies[name]
    if isinstance(body, OSError):
        raise error(f"cannot read {path}: {body}") from body
    return body


def _index_from_bodies(data_dir: str,
                       bodies: Dict[str, Union[bytes, OSError]]
                       ) -> InvertedIndex:
    """Parse and cross-check the three data files of one location."""
    meta_path = os.path.join(data_dir, _META_FILE)
    try:
        meta = json.loads(_body(bodies, _META_FILE, meta_path)
                          .decode("utf-8"))
    except ValueError as exc:
        raise StorageError(f"cannot read {meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise StorageError(f"{meta_path}: not a JSON object")
    version = meta.get("version")
    if version != FORMAT_VERSION:
        if isinstance(version, int) and version > FORMAT_VERSION:
            raise StorageError(
                f"{meta_path}: database format version {version} is "
                f"newer than this library's supported version "
                f"{FORMAT_VERSION}; upgrade the repro library (or "
                f"re-run 'repro index' with this version to rewrite "
                f"the database)")
        raise StorageError(
            f"{meta_path}: unsupported database format version "
            f"{version!r} (this library reads version {FORMAT_VERSION}); "
            f"re-index the source document with 'repro index'")

    document_path = os.path.join(data_dir, _DOCUMENT_FILE)
    document = parse_pxml(_body(bodies, _DOCUMENT_FILE, document_path,
                                error=ParseError),
                          path=document_path)
    if len(document) != meta.get("nodes"):
        raise StorageError(
            f"document has {len(document)} nodes but metadata recorded "
            f"{meta.get('nodes')}")
    encoded = encode_document(document)

    postings_path = os.path.join(data_dir, _POSTINGS_FILE)
    postings = _parse_postings(
        postings_path, _body(bodies, _POSTINGS_FILE, postings_path))
    if len(postings) != meta.get("terms"):
        raise StorageError(
            f"index has {len(postings)} terms but metadata recorded "
            f"{meta.get('terms')}")
    index = InvertedIndex(encoded, postings)
    index.check_integrity()
    return index


def _parse_postings(postings_path: str, body: bytes) -> Dict[str, array]:
    """Strictly parse a postings JSONL body."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StorageError(f"cannot read {postings_path}: {exc}") from exc
    postings: Dict[str, array] = {}
    # StringIO splits lines exactly as reading the file as text would.
    for line_number, line in enumerate(io.StringIO(text, newline=None),
                                       start=1):
        if not line.strip():
            continue
        term, ids = parse_posting_line(postings_path, line_number, line)
        if term in postings:
            raise StorageError(
                f"{postings_path}:{line_number}: term "
                f"{term!r} appears twice")
        postings[term] = ids
    return postings


def parse_posting_line(postings_path: str, line_number: int,
                       line: str) -> Tuple[str, array]:
    """Parse one postings JSONL line, or raise a located StorageError."""
    try:
        record = json.loads(line)
        term = record["t"]
        ids = array("q", record["ids"])
    except (json.JSONDecodeError, KeyError, TypeError,
            OverflowError) as exc:
        raise StorageError(
            f"{postings_path}:{line_number}: bad record: {exc}"
        ) from exc
    if not isinstance(term, str):
        raise StorageError(
            f"{postings_path}:{line_number}: term "
            f"{term!r} is not a string")
    if not len(ids):
        raise StorageError(
            f"{postings_path}:{line_number}: term "
            f"{term!r} has an empty posting list")
    return term, ids
