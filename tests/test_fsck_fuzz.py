"""Property-based corruption fuzzing of the fsck/repair pipeline.

One hundred seeded trials: save a random p-document database, hit its
files with 1-3 random corruptions (byte flips, truncations, deletions,
appended garbage, scrambled pointers), run ``fsck --repair``, and hold
the safety property from docs/STORAGE.md:

* if fsck declares the database recovered (``document_ok``), loading
  it must yield *exactly* the pristine answers for every probe query;
* otherwise the report must say unrecoverable (nonzero exit) and the
  load must not quietly succeed with different answers.

Never a third outcome — a "repaired" database that answers wrong is
the one result the subsystem exists to rule out.
"""

import os
import random
import shutil

import pytest

from repro import Database, load_database, save_database, topk_search
from repro.exceptions import StorageError
from repro.index.fsck import fsck_database
from repro.index.storage import (CURRENT_FILE, DATA_FILES, MANIFEST_FILE,
                                 resolve_snapshot)

TRIALS = 100

PROBES = (["k1"], ["k2"], ["k1", "k2"])


def answers(database) -> list:
    rows = []
    for probe in PROBES:
        outcome = topk_search(database, probe, 5, "prstack")
        rows.append([(str(r.code), round(r.probability, 12))
                     for r in outcome])
    return rows


def _target_files(directory: str) -> list:
    """Every file a corruption may strike: data, manifest, CURRENT."""
    data_dir, _generation = resolve_snapshot(directory)
    targets = [os.path.join(directory, CURRENT_FILE),
               os.path.join(data_dir, MANIFEST_FILE)]
    targets.extend(os.path.join(data_dir, name) for name in DATA_FILES)
    return targets


def _corrupt_once(rng: random.Random, path: str) -> str:
    """Apply one random corruption to ``path``; returns its name."""
    operation = rng.choice(("flip", "truncate", "delete", "append",
                            "garbage"))
    if operation == "delete":
        os.remove(path)
        return operation
    with open(path, "rb") as handle:
        body = handle.read()
    if operation == "flip" and body:
        position = rng.randrange(len(body))
        body = (body[:position]
                + bytes([body[position] ^ (1 << rng.randrange(8))])
                + body[position + 1:])
    elif operation == "truncate":
        body = body[:rng.randrange(len(body) + 1)]
    elif operation == "append":
        body += bytes(rng.randrange(256) for _ in range(
            rng.randrange(1, 24)))
    else:  # garbage: overwrite a random slice
        if body:
            start = rng.randrange(len(body))
            length = rng.randrange(1, 32)
            body = (body[:start]
                    + bytes(rng.randrange(256) for _ in range(length))
                    + body[start + length:])
    with open(path, "wb") as handle:
        handle.write(body)
    return operation


@pytest.mark.parametrize("seed", range(TRIALS))
def test_fuzzed_corruption_repairs_exactly_or_reports_unrecoverable(
        seed, pdoc_factory, tmp_path):
    rng = random.Random(77000 + seed)
    document = pdoc_factory(seed=seed)
    database = Database.from_document(document)
    pristine = answers(database)
    directory = str(tmp_path / "db")
    save_database(database, directory)

    targets = _target_files(directory)
    strikes = []
    for _ in range(rng.randrange(1, 4)):
        path = rng.choice(targets)
        if not os.path.exists(path):
            continue
        strikes.append((os.path.basename(path),
                        _corrupt_once(rng, path)))
    context = f"seed={seed} strikes={strikes}"

    report = fsck_database(directory, repair=True)
    if report.document_ok:
        assert report.exit_code() == 0, context
        recovered = load_database(directory)
        assert answers(recovered) == pristine, \
            f"repair produced WRONG answers: {context}"
    else:
        assert report.exit_code() == 1, context
        assert any("UNRECOVERABLE" in line
                   for line in report.lines()), context
        with pytest.raises(StorageError):
            load_database(directory)

    # A second repair pass never makes things worse (idempotence under
    # arbitrary damage): same verdict, and a recovered database still
    # answers exactly.
    second = fsck_database(directory, repair=True)
    assert second.document_ok == report.document_ok, context
    if second.document_ok:
        assert answers(load_database(directory)) == pristine, context


def test_fuzzer_actually_recovers_some_and_rejects_some(pdoc_factory,
                                                        tmp_path):
    """Meta-check: the trial distribution covers both verdicts (a
    fuzzer whose corruptions are all fatal — or all harmless — proves
    nothing)."""
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        rng = random.Random(88000 + seed)
        database = Database.from_document(pdoc_factory(seed=seed))
        directory = str(tmp_path / f"db-{seed}")
        save_database(database, directory)
        targets = _target_files(directory)
        path = rng.choice(targets)
        if os.path.exists(path):
            _corrupt_once(rng, path)
        report = fsck_database(directory, repair=True)
        verdicts[report.document_ok] += 1
        shutil.rmtree(directory)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
