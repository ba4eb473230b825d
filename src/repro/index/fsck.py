"""fsck for database directories: classify, quarantine, salvage.

:func:`fsck_database` walks a database directory written by
:func:`repro.index.storage.save_database` (or a legacy flat directory)
and triages every corruption it finds into a typed
:class:`FsckFinding` — a missing file, a checksum mismatch (each
format 2 column, table and postings file is named on its own), a
truncated or malformed format 1 postings line, a posting id outside
the document, a malformed p-document element — each carrying a
``path[:line]`` diagnostic.

With ``repair=True`` it acts on the triage, always through the same
crash-safe primitives the writer uses (a repair interrupted halfway is
just another crash the *next* fsck recovers from):

* bad postings lines and malformed document subtrees are copied into
  ``quarantine/<generation>/`` next to a ``REPORT.txt`` of
  ``path:line`` diagnostics;
* when the snapshot's *document* is bit-for-bit intact (its manifest
  checksum matches), the columns, postings and metadata are rebuilt
  from it into a **new** format 2 generation — by construction the
  rebuilt index answers every query exactly like the pristine
  database;
* when the document itself is damaged, ``CURRENT`` is rolled back to
  the newest older generation that verifies end-to-end;
* a damaged document is **never** silently patched into a loadable
  database: if no generation survives, the report says unrecoverable
  (``document_ok`` false, nonzero exit) rather than serving wrong
  answers.

Legacy flat directories carry no manifest, so exactness cannot be
proven; there fsck falls back to lenient salvage
(:func:`repro.prxml.parser.parse_pxml_salvage`), quarantines malformed
subtrees, rebuilds the postings from the surviving document, and
migrates the result into the snapshot layout — loudly marked as
``document_degraded`` when anything was dropped.

See docs/STORAGE.md for the corruption taxonomy and recovery matrix.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import IndexError_, ParseError, StorageError
from repro.index.storage import (CURRENT_FILE, DOCUMENT_FILE,
                                 FORMAT1_VERSION, MANIFEST_FILE,
                                 META_FILE, POSTINGS_JSONL_FILE,
                                 SNAPSHOTS_DIR, STAGING_PREFIX, Database,
                                 _atomic_write, _fsync_dir,
                                 _index_from_bodies, _read_bodies,
                                 current_generation, data_files,
                                 is_legacy_layout, list_generations,
                                 parse_posting_line, read_manifest,
                                 save_database, snapshot_path,
                                 verify_snapshot)
from repro.obs.logging import get_logger
from repro.obs.metrics import Collector, NULL_COLLECTOR
from repro.prxml.parser import (SalvageDrop, parse_pxml_file,
                                parse_pxml_salvage)

_log = get_logger("fsck")

#: Quarantine directory name inside a database directory.
QUARANTINE_DIR = "quarantine"

# -- corruption taxonomy (docs/STORAGE.md) ------------------------------------

KIND_BAD_CURRENT = "bad_current"
KIND_STALE_STAGING = "stale_staging"
KIND_BAD_MANIFEST = "bad_manifest"
KIND_MISSING_FILE = "missing_file"
KIND_SIZE_MISMATCH = "size_mismatch"
KIND_CHECKSUM_MISMATCH = "checksum_mismatch"
KIND_MALFORMED_DOCUMENT = "malformed_document"
KIND_MALFORMED_ELEMENT = "malformed_element"
KIND_TRUNCATED_LINE = "truncated_line"
KIND_BAD_RECORD = "bad_record"
KIND_POSTING_OUT_OF_RANGE = "posting_out_of_range"
KIND_BAD_META = "bad_meta"
KIND_BAD_COLUMN = "bad_column"
KIND_COUNT_MISMATCH = "count_mismatch"
KIND_FALLBACK = "generation_fallback"
KIND_DOCUMENT_DEGRADED = "document_degraded"

#: Internal triage verdicts for one generation.
_INTACT, _REPAIRABLE, _UNUSABLE = "intact", "repairable", "unusable"


@dataclass(frozen=True)
class FsckFinding:
    """One classified corruption (or recovery action)."""

    kind: str
    path: str
    detail: str
    line: Optional[int] = None

    def describe(self) -> str:
        """Conventional ``path[:line]: [kind] detail`` diagnostic."""
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.kind}] {self.detail}"


@dataclass
class FsckReport:
    """Everything one fsck run found and did.

    ``document_ok`` is the load-bearing verdict: True means a
    trustworthy document survives (possibly after repair/rollback) and
    the database answers queries exactly; False means the document is
    unrecoverable and the CLI exits nonzero.
    """

    directory: str
    generation: Optional[str] = None
    findings: List[FsckFinding] = field(default_factory=list)
    document_ok: bool = False
    repaired: bool = False
    recovered_generation: Optional[str] = None
    quarantine_dir: Optional[str] = None
    quarantined: List[str] = field(default_factory=list)
    scanned_generations: List[str] = field(default_factory=list)
    legacy: bool = False

    @property
    def clean(self) -> bool:
        """No corruption at all (recovery-action findings excluded)."""
        actions = (KIND_FALLBACK,)
        return not any(finding.kind not in actions
                       for finding in self.findings)

    def exit_code(self) -> int:
        """0 while a trustworthy document survives, 1 otherwise."""
        return 0 if self.document_ok else 1

    def add(self, kind: str, path: str, detail: str,
            line: Optional[int] = None) -> None:
        self.findings.append(FsckFinding(kind=kind, path=path,
                                         detail=detail, line=line))

    def lines(self) -> List[str]:
        """Human-readable report (the ``repro fsck`` output)."""
        out = [finding.describe() for finding in self.findings]
        if self.clean:
            out.append(f"{self.directory}: clean "
                       f"(generation {self.generation or 'legacy'})")
        if self.quarantined:
            out.append(f"quarantined {len(self.quarantined)} item(s) "
                       f"under {self.quarantine_dir}")
        if self.repaired:
            out.append(f"repaired: generation "
                       f"{self.recovered_generation} is now current")
        if not self.document_ok:
            out.append("UNRECOVERABLE: no generation holds a "
                       "trustworthy document (restore from a backup "
                       "or re-index the source document)")
        elif not self.clean and not self.repaired:
            out.append("run 'repro fsck --repair' to quarantine and "
                       "rebuild")
        return out


# -- scanning -----------------------------------------------------------------


@dataclass
class _PostingsScan:
    """Triage of one snapshot's postings: line by line for a format 1
    postings.jsonl, one decode check for format 2's packed files,
    whose damaged files (``bad_files``, with their findings) are kept
    whole in the quarantine."""

    findings: List[FsckFinding] = field(default_factory=list)
    bad_lines: List[Tuple[int, str]] = field(default_factory=list)
    bad_files: List[FsckFinding] = field(default_factory=list)
    terms: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _scan_postings(postings_path: str, node_count: int) -> _PostingsScan:
    """Classify every line of a postings file without giving up early."""
    scan = _PostingsScan()
    try:
        with open(postings_path, encoding="utf-8", errors="replace") \
                as handle:
            body = handle.read()
    except OSError as exc:
        scan.findings.append(FsckFinding(
            kind=KIND_MISSING_FILE, path=postings_path,
            detail=f"cannot read: {exc}"))
        return scan
    seen: Dict[str, int] = {}
    lines = body.split("\n")
    truncated_tail = bool(body) and not body.endswith("\n")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            term, ids = parse_posting_line(postings_path, number,
                                           line)
        except StorageError as exc:
            kind = (KIND_TRUNCATED_LINE
                    if truncated_tail and number == len(lines)
                    else KIND_BAD_RECORD)
            scan.findings.append(FsckFinding(
                kind=kind, path=postings_path, line=number,
                detail=_bare_detail(str(exc))))
            scan.bad_lines.append((number, line))
            continue
        if term in seen:
            scan.findings.append(FsckFinding(
                kind=KIND_BAD_RECORD, path=postings_path, line=number,
                detail=f"term {term!r} already appeared on line "
                       f"{seen[term]}"))
            scan.bad_lines.append((number, line))
            continue
        seen[term] = number
        scan.terms += 1
        out_of_range = [i for i in ids if i < 0 or i >= node_count]
        if out_of_range:
            scan.findings.append(FsckFinding(
                kind=KIND_POSTING_OUT_OF_RANGE, path=postings_path,
                line=number,
                detail=f"term {term!r}: posting id"
                       f"{'s' if len(out_of_range) > 1 else ''} "
                       f"{out_of_range[:5]} outside the document's "
                       f"{node_count} nodes"))
            scan.bad_lines.append((number, line))
        elif list(ids) != sorted(set(ids)):
            scan.findings.append(FsckFinding(
                kind=KIND_BAD_RECORD, path=postings_path, line=number,
                detail=f"term {term!r}: ids are not strictly "
                       f"increasing"))
            scan.bad_lines.append((number, line))
    return scan


def _bare_detail(message: str) -> str:
    """Strip the ``path:line:`` prefix a StorageError already carries."""
    marker = ": "
    head, sep, tail = message.partition(marker)
    if sep and (head.endswith(".jsonl") or head.rsplit(":", 1)[-1].isdigit()):
        # message looked like "<path>:<line>: detail"
        return tail
    return message


def _scan_meta(meta_path: str, nodes: int, terms: Optional[int],
               version: int) -> List[FsckFinding]:
    """Classify a meta.json against the actual document and postings
    (``terms`` is ``None`` when the postings could not be counted)."""
    findings: List[FsckFinding] = []
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        findings.append(FsckFinding(KIND_MISSING_FILE, meta_path,
                                    "missing"))
        return findings
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and the UnicodeDecodeError
        # binary garbage produces.
        findings.append(FsckFinding(KIND_BAD_META, meta_path,
                                    f"unreadable: {exc}"))
        return findings
    if not isinstance(meta, dict):
        findings.append(FsckFinding(KIND_BAD_META, meta_path,
                                    "not a JSON object"))
        return findings
    if meta.get("version") != version:
        findings.append(FsckFinding(
            KIND_BAD_META, meta_path,
            f"format version {meta.get('version')!r} in a format "
            f"{version} snapshot"))
    if meta.get("nodes") != nodes:
        findings.append(FsckFinding(
            KIND_COUNT_MISMATCH, meta_path,
            f"records {meta.get('nodes')!r} nodes but the document "
            f"has {nodes}"))
    if terms is not None and meta.get("terms") != terms:
        findings.append(FsckFinding(
            KIND_COUNT_MISMATCH, meta_path,
            f"records {meta.get('terms')!r} terms but the postings "
            f"hold {terms}"))
    return findings


def _triage_snapshot(snapshot_dir: str, report: FsckReport
                     ) -> Tuple[str, Optional[object], _PostingsScan]:
    """Classify one snapshot generation.

    Returns ``(verdict, document, postings_scan)`` where verdict is
    ``_INTACT`` / ``_REPAIRABLE`` / ``_UNUSABLE`` and ``document`` is
    the parsed p-document whenever it can be trusted (its manifest
    checksum matched and it parsed).
    """
    doc_path = os.path.join(snapshot_dir, DOCUMENT_FILE)
    meta_path = os.path.join(snapshot_dir, META_FILE)
    try:
        manifest = read_manifest(snapshot_dir)
    except StorageError as exc:
        report.add(KIND_BAD_MANIFEST,
                   os.path.join(snapshot_dir, MANIFEST_FILE), str(exc))
        return _UNUSABLE, None, _PostingsScan()
    version = manifest["version"]
    problems = verify_snapshot(snapshot_dir, manifest)
    scan = _PostingsScan()
    damaged = set()
    for name, kind, detail in problems:
        report.add(kind, os.path.join(snapshot_dir, name), detail)
        damaged.add(name)
        if version != FORMAT1_VERSION and kind != KIND_MISSING_FILE:
            scan.bad_files.append(report.findings[-1])
    if DOCUMENT_FILE in damaged:
        return _UNUSABLE, None, _PostingsScan()
    try:
        document = parse_pxml_file(doc_path)
    except ParseError as exc:
        # A checksum-clean file that fails to parse was saved
        # corrupt (or the library regressed) — either way the
        # document cannot be trusted.
        report.add(KIND_MALFORMED_DOCUMENT, doc_path, str(exc))
        return _UNUSABLE, None, _PostingsScan()

    terms: Optional[int] = None
    if version == FORMAT1_VERSION:
        postings_path = os.path.join(snapshot_dir, POSTINGS_JSONL_FILE)
        if os.path.exists(postings_path):
            scan = _scan_postings(postings_path, len(document))
            report.findings.extend(scan.findings)
        terms = scan.terms
    elif not damaged:
        terms = _scan_format2(snapshot_dir, version, scan)
        report.findings.extend(scan.findings)
    meta_findings = _scan_meta(meta_path, len(document), terms, version)
    # A postings file already known damaged makes the term-count
    # mismatch in meta.json derivative noise, but the findings stay —
    # each names exactly what will be rebuilt.
    report.findings.extend(meta_findings)

    if not damaged and scan.clean and not meta_findings:
        return _INTACT, document, scan
    return _REPAIRABLE, document, scan


def _scan_format2(snapshot_dir: str, version: int,
                  scan: _PostingsScan) -> Optional[int]:
    """Unpack a checksum-clean format 2 snapshot the way a load does;
    returns its term count, or ``None`` (with a finding) when its
    files do not decode into a consistent index."""
    bodies = _read_bodies(snapshot_dir, [
        name for name in data_files(version) if name != DOCUMENT_FILE])
    try:
        return len(_index_from_bodies(snapshot_dir, bodies, version,
                                      None))
    except (StorageError, IndexError_) as exc:
        scan.findings.append(FsckFinding(KIND_BAD_COLUMN, snapshot_dir,
                                         str(exc)))
        return None


# -- quarantine ---------------------------------------------------------------


def _quarantine(directory: str, generation: str, report: FsckReport,
                scan: _PostingsScan,
                drops: Optional[List[SalvageDrop]] = None) -> None:
    """Preserve the bad bytes and their diagnostics before rebuilding."""
    if not scan.bad_lines and not scan.bad_files and not drops:
        return
    base = os.path.join(directory, QUARANTINE_DIR, generation)
    suffix = 1
    target = base
    while os.path.exists(target):
        suffix += 1
        target = f"{base}-{suffix}"
    os.makedirs(target)
    diagnostics: List[str] = []
    if scan.bad_lines:
        body = "".join(line + "\n" for _num, line in scan.bad_lines)
        path = os.path.join(target, "postings.bad.jsonl")
        _atomic_write(path, body)
        report.quarantined.append(path)
        diagnostics.extend(
            finding.describe() for finding in scan.findings)
    for finding in scan.bad_files:
        path = os.path.join(target, os.path.basename(finding.path))
        with open(finding.path, "rb") as handle:
            _atomic_write(path, handle.read())
        report.quarantined.append(path)
        diagnostics.append(finding.describe())
    for number, drop in enumerate(drops or (), start=1):
        path = os.path.join(target, f"subtree-{number:03d}.xml")
        _atomic_write(path, drop.xml_text + "\n")
        report.quarantined.append(path)
        diagnostics.append(drop.describe())
    _atomic_write(os.path.join(target, "REPORT.txt"),
                  "".join(line + "\n" for line in diagnostics))
    report.quarantine_dir = os.path.join(directory, QUARANTINE_DIR)


# -- the fsck entry point -----------------------------------------------------


def fsck_database(directory, repair: bool = False,
                  collector: Collector = NULL_COLLECTOR) -> FsckReport:
    """Triage (and with ``repair=True``, recover) a database directory.

    Raises:
        StorageError: only when ``directory`` is not a database
            directory at all; every corruption inside one is reported,
            not raised.
    """
    directory = os.fspath(directory)
    report = FsckReport(directory=directory)
    if collector.enabled:
        collector.count("storage.fsck.runs")

    with collector.time("storage.fsck"):
        _sweep_staging(directory, report, repair)

        generation = _resolve_current(directory, report)
        if generation is None and is_legacy_layout(directory):
            _fsck_legacy(directory, report, repair)
        elif generation is None and not list_generations(directory):
            raise StorageError(
                f"{directory} is not a database directory: no "
                f"{CURRENT_FILE} pointer, no snapshots and no legacy "
                f"{META_FILE}")
        else:
            _fsck_snapshots(directory, generation, report, repair)

    if collector.enabled:
        collector.count("storage.fsck.findings", len(report.findings))
        if report.repaired:
            collector.count("storage.fsck.repairs")
    return report


def _sweep_staging(directory: str, report: FsckReport,
                   repair: bool) -> None:
    snapshots = os.path.join(directory, SNAPSHOTS_DIR)
    try:
        names = sorted(os.listdir(snapshots))
    except OSError:
        return
    for name in names:
        if not name.startswith(STAGING_PREFIX):
            continue
        path = os.path.join(snapshots, name)
        report.add(KIND_STALE_STAGING, path,
                   "interrupted save left a staging directory"
                   + ("; removed" if repair else ""))
        if repair:
            shutil.rmtree(path, ignore_errors=True)


def _resolve_current(directory: str,
                     report: FsckReport) -> Optional[str]:
    try:
        return current_generation(directory)
    except StorageError as exc:
        report.add(KIND_BAD_CURRENT,
                   os.path.join(directory, CURRENT_FILE), str(exc))
        return None


def _fsck_snapshots(directory: str, generation: Optional[str],
                    report: FsckReport, repair: bool) -> None:
    """The snapshot-layout path: triage current, else fall back."""
    candidates: List[str] = []
    if generation is not None:
        snapshot = snapshot_path(directory, generation)
        if os.path.isdir(snapshot):
            candidates.append(generation)
        else:
            report.add(KIND_MISSING_FILE, snapshot,
                       f"{CURRENT_FILE} points at generation "
                       f"{generation!r} but it does not exist")
    for name in reversed(list_generations(directory)):
        if name not in candidates:
            candidates.append(name)

    report.generation = generation
    for position, name in enumerate(candidates):
        snapshot = snapshot_path(directory, name)
        report.scanned_generations.append(name)
        verdict, document, scan = _triage_snapshot(snapshot, report)
        if verdict == _UNUSABLE:
            continue
        if position > 0:
            report.add(KIND_FALLBACK, snapshot,
                       f"generation {name} is the newest usable one; "
                       f"{'rolling' if repair else 'run --repair to roll'}"
                       f" CURRENT back to it")
        if verdict == _INTACT:
            report.document_ok = True
            if name != generation and repair:
                _flip_current(directory, name)
                report.repaired = True
                report.recovered_generation = name
            return
        # _REPAIRABLE: the document is trustworthy, rebuild around it.
        report.document_ok = True
        if repair:
            _quarantine(directory, name, report, scan)
            rebuilt = Database.from_document(document)
            new_generation = save_database(rebuilt, directory)
            report.repaired = True
            report.recovered_generation = new_generation
            _log.info("rebuilt generation %s from %s's document",
                      new_generation, name)
        return
    # No candidate had a trustworthy document.
    report.document_ok = False


def _fsck_legacy(directory: str, report: FsckReport,
                 repair: bool) -> None:
    """The pre-snapshot flat layout: no manifest, so salvage leniently."""
    report.legacy = True
    doc_path = os.path.join(directory, DOCUMENT_FILE)
    drops: List[SalvageDrop] = []
    try:
        document = parse_pxml_file(doc_path)
    except ParseError as strict_error:
        try:
            with open(doc_path, "rb") as handle:
                text = handle.read()
            document, drops = parse_pxml_salvage(text, path=doc_path)
        except (OSError, ParseError):
            report.add(KIND_MALFORMED_DOCUMENT, doc_path,
                       str(strict_error))
            report.document_ok = False
            return
        for drop in drops:
            report.add(KIND_MALFORMED_ELEMENT, drop.position.path,
                       drop.reason, line=drop.position.line)
        report.add(KIND_DOCUMENT_DEGRADED, doc_path,
                   f"salvaged by dropping {len(drops)} malformed "
                   f"subtree(s); answers may differ from the original "
                   f"document")
    scan = _scan_postings(os.path.join(directory, POSTINGS_JSONL_FILE),
                          len(document))
    report.findings.extend(scan.findings)
    report.findings.extend(
        _scan_meta(os.path.join(directory, META_FILE),
                   len(document), scan.terms, FORMAT1_VERSION))
    report.document_ok = True
    if repair and (not report.clean or drops):
        _quarantine(directory, "legacy", report, scan, drops)
        rebuilt = Database.from_document(document)
        new_generation = save_database(rebuilt, directory)
        report.repaired = True
        report.recovered_generation = new_generation
        _log.info("migrated legacy directory %s into snapshot "
                  "generation %s", directory, new_generation)


def _flip_current(directory: str, generation: str) -> None:
    """Atomically point ``CURRENT`` at an existing generation."""
    _atomic_write(os.path.join(directory, CURRENT_FILE),
                  generation + "\n")
    _fsync_dir(directory)
