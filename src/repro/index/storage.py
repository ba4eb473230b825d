"""Persistence: crash-safe, checksummed snapshots of a database.

A *database directory* holds versioned, immutable snapshots plus one
atomic pointer to the active generation::

    dbdir/
      CURRENT                    # the active generation name, e.g. g00000002
      snapshots/
        g00000001/
          document.pxml          # the p-document in the XML text format
          parents.i64 ...        # the node columns, packed little-endian
          tags.json, exp.json    # interned tags, EXP subset table
          terms.json             # the postings: sorted term list,
          postings.i64           #   every list's ids back to back,
          offsets.i64            #   and where each list starts
          meta.json              # format version and integrity counters
          MANIFEST.json          # repro.manifest/v1: per-file size + SHA-256
        g00000002/
          ...

:func:`save_database` writes format 2 (:data:`DATA_FILES`): every
column of the encoding (:class:`~repro.encoding.encoder.EncodedDocument`)
and the postings as packed arrays, beside the document's XML text.  It
writes every file of a new generation to a staging directory (each
file through :func:`_atomic_write`: temp name, flush, fsync, rename),
fsyncs, atomically renames the staging directory into
``snapshots/<generation>/`` and only then flips ``CURRENT`` with one
more atomic rename.  A crash at *any* byte therefore leaves the
previous generation fully intact and loadable — at worst a stale
staging directory remains, which the next save (or ``repro fsck``)
sweeps away.

:func:`load_database` resolves ``CURRENT``, reads each data file once,
verifies those bytes' size and SHA-256 against the manifest (skippable
with ``verify=False`` for speed), and unpacks the columns and postings
with ``array.frombytes``; it does not parse the XML.  The document tree
is built on first use of ``.document`` (explain, twig, validation,
saving), after re-reading ``document.pxml`` and re-checking its
checksum.  A verified snapshot whose content is already loaded in this
process shares that in-memory index instead of unpacking it again.

Format 1 snapshots (``document.pxml``, ``postings.jsonl``,
``meta.json``: :data:`FORMAT1_FILES`) keep loading — their document is
parsed and re-encoded — and ``repro snapshot`` migrates them to format
2.  Pre-snapshot *legacy* directories — format 1's three data files
sitting flat in ``dbdir`` with no ``CURRENT`` — keep loading read-only
for backward compatibility; ``repro snapshot`` migrates them too.

Corruption recovery lives in :mod:`repro.index.fsck`; the full layout
and manifest schema are documented in docs/STORAGE.md, the byte layout
of the packed files in docs/FORMAT.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import threading
import weakref
from array import array
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple, Type, Union)

from repro.encoding.encoder import EncodedDocument, encode_document
from repro.exceptions import ParseError, ReproError, StorageError
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.model import NodeType

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.prxml.model import PDocument

#: The format :func:`save_database` writes.
FORMAT_VERSION = 2

#: The older format :func:`load_database` still reads.
FORMAT1_VERSION = 1

#: Manifest schema identifier (``repro.manifest/v<n>``).
MANIFEST_FORMAT = "repro.manifest/v1"

CURRENT_FILE = "CURRENT"
SNAPSHOTS_DIR = "snapshots"
MANIFEST_FILE = "MANIFEST.json"

DOCUMENT_FILE = "document.pxml"
META_FILE = "meta.json"
POSTINGS_JSONL_FILE = "postings.jsonl"
TAGS_FILE = "tags.json"
EXP_FILE = "exp.json"
TERMS_FILE = "terms.json"
POSTINGS_FILE = "postings.i64"
OFFSETS_FILE = "offsets.i64"

#: Format 2's node columns: ``(file, array typecode, column)``.  Each
#: file is the column's values packed little-endian; the suffix names
#: the element type (``i64``/``i32`` signed, ``u8`` unsigned, ``f64``
#: IEEE 754 double).
COLUMN_FILES: Tuple[Tuple[str, str, str], ...] = (
    ("parents.i64", "q", "parents"),
    ("depths.i32", "i", "depths"),
    ("positions.i32", "i", "positions"),
    ("kinds.u8", "B", "kinds"),
    ("edges.f64", "d", "edges"),
    ("paths.f64", "d", "paths"),
    ("ends.i64", "q", "ends"),
    ("labels.i32", "i", "labels"),
)

#: The checksummed data files of a format 2 snapshot, in write order.
DATA_FILES: Tuple[str, ...] = (
    (DOCUMENT_FILE,) + tuple(name for name, _, _ in COLUMN_FILES)
    + (TAGS_FILE, EXP_FILE, TERMS_FILE, POSTINGS_FILE, OFFSETS_FILE,
       META_FILE))

#: The data files of a format 1 snapshot (and of a legacy directory).
FORMAT1_FILES: Tuple[str, ...] = (DOCUMENT_FILE, POSTINGS_JSONL_FILE,
                                  META_FILE)

#: The ``kinds.u8`` code of each node type (its index).
KIND_CODES: Tuple[NodeType, ...] = (NodeType.ORDINARY, NodeType.IND,
                                    NodeType.MUX, NodeType.EXP)

#: Keyed by member identity: hashing an Enum member runs Python code,
#: which would dominate packing a large kinds column.
_KIND_CODE = {id(kind): code for code, kind in enumerate(KIND_CODES)}

#: Packed arrays are little-endian on disk whatever the host's order.
_SWAP = sys.byteorder != "little"

#: Prefix of staging directories (an interrupted save leaves one behind).
STAGING_PREFIX = ".staging-"


def data_files(version: object) -> Tuple[str, ...]:
    """The data files of a snapshot in format ``version``.

    Raises:
        StorageError: for a version this library cannot read.
    """
    if version == FORMAT_VERSION:
        return DATA_FILES
    if version == FORMAT1_VERSION:
        return FORMAT1_FILES
    raise StorageError(_version_message(version))


def _version_message(version: object) -> str:
    if isinstance(version, int) and version > FORMAT_VERSION:
        return (f"database format version {version} is newer than this "
                f"library's supported version {FORMAT_VERSION}; upgrade "
                f"the repro library (or re-run 'repro index' with this "
                f"version to rewrite the database)")
    return (f"unsupported database format version {version!r} (this "
            f"library reads version {FORMAT_VERSION} and migrates version "
            f"{FORMAT1_VERSION}); re-index the source document with "
            f"'repro index'")


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
    def document(self) -> "PDocument":
        """The underlying :class:`PDocument` (built on first use when
        the database came from a format 2 snapshot)."""
        return self.encoded.document

    @classmethod
    def from_document(cls, document) -> "Database":
        """Encode and index an in-memory document."""
        encoded = encode_document(document)
        return cls(encoded, InvertedIndex.from_document(encoded))


# -- the blessed atomic writer ------------------------------------------------


def _atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Write ``data`` (text is encoded as UTF-8) to ``path`` so a crash
    never leaves a torn file.

    The bytes land in ``path + ".tmp"`` first, are flushed and fsynced,
    and only then renamed over ``path`` — readers see either the old
    complete file or the new complete file, never a prefix.  This is
    the *only* sanctioned way to write inside ``repro/index/`` and
    ``repro/service/`` (linter rule R007, docs/ANALYSIS.md).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
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


def _sha256_bytes(data: bytes) -> Tuple[str, int]:
    """Checksum and byte size of a file body."""
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
            and os.path.exists(os.path.join(directory, META_FILE)))


def _next_generation(directory: str) -> str:
    highest = 0
    for name in list_generations(directory):
        highest = max(highest, int(name[1:]))
    return generation_name(highest + 1)


# -- saving -------------------------------------------------------------------


def _packed(values: Sequence, typecode: str) -> bytes:
    """``values`` as a little-endian packed array of ``typecode``."""
    packed = array(typecode, values)
    if _SWAP:  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return packed.tobytes()


def _unpacked(path: str, body: bytes, typecode: str) -> array:
    """The packed array in ``body``; raises naming ``path`` when its
    size is not a whole number of elements."""
    values = array(typecode)
    if len(body) % values.itemsize:
        raise StorageError(f"{path}: {len(body)} bytes is not a whole "
                           f"number of {values.itemsize}-byte values")
    values.frombytes(body)
    if _SWAP:  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


def _json_bytes(value: object) -> bytes:
    # ensure_ascii=False keeps non-ASCII text (e.g. 'café') as readable
    # UTF-8 instead of double-escaping it.
    return (json.dumps(value, ensure_ascii=False) + "\n").encode("utf-8")


def _format2_bodies(database: Database) -> Dict[str, bytes]:
    """Every format 2 data file's bytes, rejecting corrupt inputs."""
    encoded = database.encoded
    bodies: Dict[str, bytes] = {}
    for name, typecode, column in COLUMN_FILES:
        values = getattr(encoded, column)
        if column == "kinds":
            values = list(map(_KIND_CODE.__getitem__, map(id, values)))
        bodies[name] = _packed(values, typecode)
    bodies[TAGS_FILE] = _json_bytes(encoded.tags)
    bodies[EXP_FILE] = _json_bytes(
        [[node_id, [[list(positions), probability]
                    for positions, probability in subsets]]
         for node_id, subsets in sorted(encoded.exp.items())])
    postings = database.index.raw_postings()
    terms = sorted(postings)
    ids = array("q")
    offsets = [0]
    for term in terms:
        if not len(postings[term]):
            # A term with no matching node cannot come from indexing a
            # document; writing it would only defer the failure to
            # load time.  Reject symmetrically with the loader.
            raise StorageError(
                f"term {term!r} has an empty posting list; "
                f"refusing to persist a corrupt index")
        ids.extend(postings[term])
        offsets.append(len(ids))
    bodies[TERMS_FILE] = _json_bytes(terms)
    bodies[POSTINGS_FILE] = _packed(ids, "q")
    bodies[OFFSETS_FILE] = _packed(offsets, "q")
    return bodies


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
    # Imported here: saving is the only storage path that writes XML,
    # and a server never saves.
    from repro.prxml.serializer import serialize_pxml
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

            nodes = len(database.encoded)
            bodies = _format2_bodies(database)
            bodies[DOCUMENT_FILE] = serialize_pxml(
                database.document).encode("utf-8")
            bodies[META_FILE] = (json.dumps({
                "version": FORMAT_VERSION,
                "nodes": nodes,
                "terms": len(database.index),
            }, indent=2) + "\n").encode("utf-8")
            files: Dict[str, Dict[str, object]] = {}
            for name in DATA_FILES:
                _atomic_write(os.path.join(staging, name), bodies[name])
                digest, size = _sha256_bytes(bodies[name])
                files[name] = {"bytes": size, "sha256": digest}
            manifest = build_manifest(generation, nodes,
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
    version = manifest.get("version")
    if version not in (FORMAT_VERSION, FORMAT1_VERSION):
        raise StorageError(f"{path}: {_version_message(version)}")
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
    for name in data_files(manifest.get("version")):
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
    if os.path.exists(os.path.join(directory, META_FILE)):
        return directory, None
    raise StorageError(
        f"{directory} is not a database directory: no {CURRENT_FILE} "
        f"pointer and no legacy {META_FILE}")


def load_database(directory, verify: bool = True,
                  collector: Collector = NULL_COLLECTOR) -> Database:
    """Load the active generation written by :func:`save_database`.

    Each data file is read once: the bytes checked against the
    manifest are the bytes unpacked.  A format 2 load parses no XML —
    ``document.pxml`` is read only to check it, and the tree is built
    from it when first asked for.  A verified snapshot whose content
    is already loaded in this process — a shard's other replica, a
    reload of an unchanged generation — shares that in-memory index
    (see :class:`_SharedIndexes`); the returned :class:`Database`
    still names its own generation and directory.

    Args:
        directory: the database directory (snapshot layout, or a
            legacy flat directory — loaded read-only).
        verify: check every data file's size and SHA-256 against the
            snapshot manifest before unpacking (legacy directories
            have no manifest and skip this), and check
            ``document.pxml`` again before the tree is built from it.
            Passing ``False`` trades the integrity checks for load
            speed; unverified loads never share an index.
        collector: receives ``storage.load`` timing and
            ``storage.verify.*`` / ``storage.load.*`` counters.
    """
    directory = os.fspath(directory)
    with collector.time("storage.load"):
        data_dir, generation = resolve_snapshot(directory)
        manifest: Optional[Dict[str, object]] = None
        if generation is not None:
            manifest = read_manifest(data_dir)
            version = manifest["version"]
        elif os.path.exists(os.path.join(data_dir, POSTINGS_JSONL_FILE)):
            version = FORMAT1_VERSION
        else:
            version = FORMAT_VERSION
        files = data_files(version)
        verified = manifest if verify else None
        bodies = _read_bodies(data_dir, [
            name for name in files
            if name != DOCUMENT_FILE or verified is not None
            or version == FORMAT1_VERSION])
        key: Optional[_ContentKey] = None
        if verified is not None:
            with collector.time("storage.verify"):
                problems = _verify_bodies(data_dir, verified, files,
                                          bodies)
            if collector.enabled:
                collector.count("storage.verify.files", len(files))
                collector.count("storage.verify.failures", len(problems))
            if problems:
                _file, kind, detail = problems[0]
                more = (f" (and {len(problems) - 1} more problem(s))"
                        if len(problems) > 1 else "")
                raise StorageError(
                    f"snapshot {generation} failed verification: "
                    f"{kind}: {detail}{more}; run 'repro fsck "
                    f"--repair' to quarantine and rebuild")
            key = _content_key(verified, files)
        index = _SHARED.get(key) if key is not None else None
        shared = index is not None
        if index is None:
            parsed = _index_from_bodies(data_dir, bodies, version,
                                        verified)
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


def _content_key(manifest: Dict[str, object],
                 files: Sequence[str]) -> _ContentKey:
    records = manifest.get("files", {})
    return tuple((name, records[name].get("bytes"),
                  records[name].get("sha256"))
                 for name in files)


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


def _read_bodies(data_dir: str, names: Sequence[str]
                 ) -> Dict[str, Union[bytes, OSError]]:
    """Each named file's bytes, or the error reading it, in one read."""
    bodies: Dict[str, Union[bytes, OSError]] = {}
    for name in names:
        try:
            with open(os.path.join(data_dir, name), "rb") as handle:
                bodies[name] = handle.read()
        except OSError as exc:
            bodies[name] = exc
    return bodies


def _verify_bodies(data_dir: str, manifest: Dict[str, object],
                   files: Sequence[str],
                   bodies: Dict[str, Union[bytes, OSError]]
                   ) -> List[Tuple[str, str, str]]:
    """:func:`verify_snapshot` over bytes already read."""
    problems: List[Tuple[str, str, str]] = []
    records = manifest.get("files", {})
    for name in files:
        path = os.path.join(data_dir, name)
        measured = None
        if not isinstance(bodies[name], FileNotFoundError):
            measured = _sha256_bytes(_body(bodies, name, path))
        problem = _file_problem(name, path, records.get(name), measured)
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


def _json_body(bodies: Dict[str, Union[bytes, OSError]], data_dir: str,
               name: str) -> object:
    path = os.path.join(data_dir, name)
    try:
        return json.loads(_body(bodies, name, path).decode("utf-8"))
    except ValueError as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        raise StorageError(f"cannot read {path}: {exc}") from exc


def _index_from_bodies(data_dir: str,
                       bodies: Dict[str, Union[bytes, OSError]],
                       version: object,
                       manifest: Optional[Dict[str, object]]
                       ) -> InvertedIndex:
    """Unpack (format 2) or parse (format 1) the data files of one
    location and cross-check them.  ``manifest`` is given when the
    load verifies: the lazy tree then checks ``document.pxml`` against
    it again."""
    meta_path = os.path.join(data_dir, META_FILE)
    meta = _json_body(bodies, data_dir, META_FILE)
    if not isinstance(meta, dict):
        raise StorageError(f"{meta_path}: not a JSON object")
    if meta.get("version") != version:
        raise StorageError(f"{meta_path}: "
                           f"{_version_message(meta.get('version'))}")
    if version == FORMAT1_VERSION:
        encoded = _format1_encoding(data_dir, bodies, meta)
        postings_path = os.path.join(data_dir, POSTINGS_JSONL_FILE)
        postings = _parse_postings(
            postings_path, _body(bodies, POSTINGS_JSONL_FILE,
                                 postings_path))
    else:
        records = manifest.get("files") if manifest is not None else None
        record = records.get(DOCUMENT_FILE) \
            if isinstance(records, dict) else None
        encoded = _format2_encoding(data_dir, bodies, meta, record)
        postings = _format2_postings(data_dir, bodies)
    if len(postings) != meta.get("terms"):
        raise StorageError(
            f"index has {len(postings)} terms but metadata recorded "
            f"{meta.get('terms')}")
    index = InvertedIndex(encoded, postings)
    index.check_integrity()
    return index


def _format1_encoding(data_dir: str,
                      bodies: Dict[str, Union[bytes, OSError]],
                      meta: Dict[str, object]) -> EncodedDocument:
    """Format 1 stores only the XML: parse and re-encode it."""
    from repro.prxml.parser import parse_pxml
    document_path = os.path.join(data_dir, DOCUMENT_FILE)
    document = parse_pxml(_body(bodies, DOCUMENT_FILE, document_path,
                                error=ParseError),
                          path=document_path)
    if len(document) != meta.get("nodes"):
        raise StorageError(
            f"document has {len(document)} nodes but metadata recorded "
            f"{meta.get('nodes')}")
    return encode_document(document)


def _format2_encoding(data_dir: str,
                      bodies: Dict[str, Union[bytes, OSError]],
                      meta: Dict[str, object],
                      record: Optional[Dict[str, object]]
                      ) -> EncodedDocument:
    """The node columns, label and EXP tables of a format 2 snapshot."""
    nodes = meta.get("nodes")
    columns: Dict[str, array] = {}
    for name, typecode, column in COLUMN_FILES:
        path = os.path.join(data_dir, name)
        values = _unpacked(path, _body(bodies, name, path), typecode)
        if len(values) != nodes:
            raise StorageError(
                f"{path} holds {len(values)} nodes but metadata "
                f"recorded {nodes}")
        columns[column] = values
    kinds_path = os.path.join(data_dir, COLUMN_FILES[3][0])
    try:
        kinds = list(map(KIND_CODES.__getitem__, columns["kinds"]))
    except IndexError:
        raise StorageError(f"{kinds_path}: unknown node kind code "
                           f"{max(columns['kinds'])}") from None
    tags_path = os.path.join(data_dir, TAGS_FILE)
    tags = _json_body(bodies, data_dir, TAGS_FILE)
    if not isinstance(tags, list) \
            or not all(isinstance(tag, str) for tag in tags):
        raise StorageError(f"{tags_path}: not a list of tags")
    labels = columns["labels"]
    if labels and not 0 <= min(labels) <= max(labels) < len(tags):
        raise StorageError(f"{os.path.join(data_dir, COLUMN_FILES[7][0])}"
                           f": label index outside the {len(tags)} tags "
                           f"of {tags_path}")
    exp_path = os.path.join(data_dir, EXP_FILE)
    try:
        exp = {node_id: [(tuple(positions), probability)
                         for positions, probability in subsets]
               for node_id, subsets in _json_body(bodies, data_dir,
                                                  EXP_FILE)}
    except (TypeError, ValueError) as exc:
        raise StorageError(f"{exp_path}: bad EXP table: {exc}") from exc
    document_path = os.path.join(data_dir, DOCUMENT_FILE)
    return EncodedDocument(
        columns["parents"], columns["depths"], columns["positions"], kinds,
        columns["edges"], columns["paths"], columns["ends"], labels, tags,
        exp, load=_document_loader(document_path, record, len(kinds)))


def _format2_postings(data_dir: str,
                      bodies: Dict[str, Union[bytes, OSError]]
                      ) -> Dict[str, array]:
    """The term list, id array and offsets of a format 2 snapshot."""
    terms_path = os.path.join(data_dir, TERMS_FILE)
    terms = _json_body(bodies, data_dir, TERMS_FILE)
    if not isinstance(terms, list) \
            or not all(isinstance(term, str) for term in terms):
        raise StorageError(f"{terms_path}: not a list of terms")
    ids_path = os.path.join(data_dir, POSTINGS_FILE)
    ids = _unpacked(ids_path, _body(bodies, POSTINGS_FILE, ids_path), "q")
    offsets_path = os.path.join(data_dir, OFFSETS_FILE)
    offsets = _unpacked(offsets_path,
                        _body(bodies, OFFSETS_FILE, offsets_path), "q")
    if len(offsets) != len(terms) + 1 or offsets[0] != 0 \
            or offsets[-1] != len(ids):
        raise StorageError(
            f"{offsets_path}: {len(offsets)} offsets do not delimit "
            f"{len(terms)} terms' lists in the {len(ids)} ids of "
            f"{ids_path}")
    postings: Dict[str, array] = {}
    start = 0
    for term, end in zip(terms, offsets[1:]):
        if end <= start:
            raise StorageError(f"{offsets_path}: term {term!r} has an "
                               f"empty posting list")
        if term in postings:
            raise StorageError(f"{terms_path}: term {term!r} appears "
                               f"twice")
        postings[term] = ids[start:end]
        start = end
    return postings


def _document_loader(path: str, record: Optional[Dict[str, object]],
                     nodes: int) -> "Callable[[], PDocument]":
    """Build the tree of a format 2 snapshot on demand: re-read
    ``document.pxml``, check it against its manifest ``record`` (when
    the load verified), parse it and match its size to the columns."""
    def load() -> "PDocument":
        from repro.prxml.parser import parse_pxml
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except OSError as exc:
            raise StorageError(f"cannot read {path}: {exc}") from exc
        if record is not None:
            problem = _file_problem(DOCUMENT_FILE, path, record,
                                    _sha256_bytes(body))
            if problem is not None:
                raise StorageError(
                    f"{path} no longer matches its snapshot: "
                    f"{problem[1]}: {problem[2]}; run 'repro fsck "
                    f"--repair'")
        document = parse_pxml(body, path=path)
        if len(document) != nodes:
            raise StorageError(
                f"{path} has {len(document)} nodes but the snapshot's "
                f"columns hold {nodes}")
        return document
    return load


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
