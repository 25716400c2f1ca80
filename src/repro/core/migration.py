"""``myproxy-admin migrate``: convert legacy storage into a segment store.

Segments are the only durable backend; the two layouts earlier releases
wrote survive here as *read-only* sources:

- the **spool** — one CRC-framed (or legacy bare-JSON) file per
  credential plus a redo ``journal.wal``.  :func:`read_spool` decodes the
  files, applies the journal's uncommitted ops in memory (a put's
  document wins, a delete removes — so an interrupted write lands
  old-or-new, never torn) and quarantines whatever is still unreadable;
- an **SQLite** database — :func:`read_sqlite` selects every stored
  document.

Both conversions verify every entry reads back identically before their
commit point, so a crash anywhere leaves the old data authoritative or
the new store complete.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
from pathlib import Path

from repro.core.journal import (
    OP_DELETE,
    OP_PUT,
    decode_single_frame,
    is_framed,
    parse_journal,
)
from repro.core.repository import QUARANTINE_DIR, RepositoryEntry, encode_key_token
from repro.core.segments import (
    BACKEND_MARKER,
    INGEST_MARKER,
    SEGMENT_SUFFIX,
    SEGMENT_WAL,
    SegmentRepository,
    detect_backend,
    write_backend_marker,
    zeroize_unlink,
)
from repro.util.errors import RepositoryError
from repro.util.logging import get_logger

logger = get_logger("core.migration")

SPOOL_JOURNAL = "journal.wal"
_DEFAULT_SEGMENT_BYTES = 32 * 1024 * 1024


def _decode_spool_file(raw: bytes) -> RepositoryEntry:
    payload = decode_single_frame(raw) if is_framed(raw) else raw
    return RepositoryEntry.from_json(payload.decode("utf-8"))


def _quarantine(root: Path, name: str, data: bytes, reason: str) -> None:
    qdir = root / QUARANTINE_DIR
    qdir.mkdir(mode=0o700, exist_ok=True)
    target, n = qdir / name, 0
    while target.exists():
        n += 1
        target = qdir / f"{name}.q{n}"
    target.write_bytes(data)
    target.with_name(target.name + ".reason").write_text(reason + "\n", "utf-8")
    logger.error("quarantined %s: %s", name, reason)


def _has_spool_data(root: Path) -> bool:
    """A pending journal, or any ``*.json`` file that decodes as an entry."""
    if (root / SPOOL_JOURNAL).exists():
        return True
    for path in root.glob("*.json"):
        try:
            _decode_spool_file(path.read_bytes())
            return True
        except (RepositoryError, ValueError):
            continue
    return False


def _holds_records(segment: Path) -> bool:
    with segment.open("rb") as f:
        header = f.readline(128)
    return segment.stat().st_size > len(header)


def read_spool(root: str | os.PathLike) -> list[RepositoryEntry]:
    """Every entry a spool holds once its journal is redone (read-only)."""
    root = Path(root)
    report = parse_journal(
        (root / SPOOL_JOURNAL).read_bytes() if (root / SPOOL_JOURNAL).exists() else b""
    )
    if report.corrupt_tail:
        _quarantine(root, f"{SPOOL_JOURNAL}.corrupt", report.corrupt_tail,
                    "failed CRC scan")
    entries: dict[tuple[str, str], RepositoryEntry] = {}
    corrupt: dict[Path, str] = {}
    for path in sorted(root.glob("*.json")):
        try:
            entry = _decode_spool_file(path.read_bytes())
            entries[entry.key] = entry
        except (RepositoryError, ValueError) as exc:
            corrupt[path] = str(exc)
    # Redo: a journaled op rewrites its entry whole (or removes it), so it
    # also repairs the torn file it describes instead of quarantining it.
    for op in report.pending:
        key = (str(op.get("username", "")), str(op.get("cred_name", "")))
        if "\x00" not in key[0]:  # a NUL name has no file of its own
            corrupt.pop(root / f"{encode_key_token(*key)}.json", None)
        if op.get("op") == OP_PUT and isinstance(op.get("document"), str):
            entries[key] = RepositoryEntry.from_json(op["document"])
        elif op.get("op") == OP_DELETE:
            entries.pop(key, None)
    for path, reason in corrupt.items():
        _quarantine(root, path.name, path.read_bytes(), reason)
        path.unlink()
    return list(entries.values())


def read_sqlite(path: str | os.PathLike) -> list[RepositoryEntry]:
    """Every entry an SQLite repository file holds (opened read-only)."""
    uri = Path(path).resolve().as_uri() + "?mode=ro"
    try:
        conn = sqlite3.connect(uri, uri=True)
        try:
            rows = conn.execute("SELECT document FROM credentials").fetchall()
        finally:
            conn.close()
    except sqlite3.Error as exc:
        raise RepositoryError(f"cannot read SQLite repository {path}: {exc}") from exc
    return [RepositoryEntry.from_json(document) for (document,) in rows]


def _load_verified(root: Path, entries: list[RepositoryEntry],
                   segment_max_bytes: int) -> int:
    """Bulk-load ``entries`` into segments at ``root``, verify every one
    reads back identically, then write the marker (the commit point).

    Legacy stores never refused a NUL in a user name, which segments
    cannot key unambiguously; such an entry is quarantined (document
    kept, reason given) rather than aborting the whole conversion."""
    segments = SegmentRepository(root, segment_max_bytes=segment_max_bytes)
    try:
        unsafe = [e for e in entries if "\x00" in e.username]
        for n, entry in enumerate(unsafe):
            _quarantine(root, f"nul-user-name-{n}.entry",
                        entry.to_json().encode("utf-8"),
                        f"user name {entry.username!r} contains a NUL "
                        f"character; not migrated")
        entries = [e for e in entries if "\x00" not in e.username]
        loaded = segments.bulk_load(entries)
        for entry in entries:
            copy = segments.get(entry.username, entry.cred_name)
            if copy.to_json() != entry.to_json():
                raise RepositoryError(
                    f"migration verify failed for {entry.username}/{entry.cred_name}"
                )
        write_backend_marker(root, "segments")
    finally:
        segments.close()
    return loaded


def migrate_spool_to_segments(
    root: str | os.PathLike,
    *,
    keep_spool: bool = False,
    segment_max_bytes: int = _DEFAULT_SEGMENT_BYTES,
) -> dict:
    """In-place spool → segments conversion.

    A crash before the ``storage.backend`` marker leaves a valid spool
    (the half-written segments are debris the retry wipes), after it a
    valid segment store.  Unless ``keep_spool``, the old per-credential
    files are then zeroized and removed.  Quarantined files stay where
    they are: the segment store lists them, so ``myproxy-cluster scrub``
    keeps working.  A store already on segments is a no-op.
    """
    root = Path(root)
    found = detect_backend(root)
    if found == "segments":
        return {"migrated": False, "entries": 0, "reason": "already segments"}
    if found != "spool":
        raise RepositoryError(f"{root} is marked as {found!r} storage, not a spool")
    # Segment files here are a crashed migration's debris — unless the
    # "spool" is only a stray JSON file beside a segment store created
    # without a marker; deleting those segments would lose every record.
    if not _has_spool_data(root) and any(
        _holds_records(path) for path in root.glob(f"seg-*{SEGMENT_SUFFIX}")
    ):
        raise RepositoryError(
            f"{root} holds segment records but no spool entries to convert; "
            f"refusing to replace them (move any stray *.json files out of it)"
        )
    for leftover in root.glob(f"seg-*{SEGMENT_SUFFIX}*"):
        leftover.unlink(missing_ok=True)
    (root / SEGMENT_WAL).unlink(missing_ok=True)
    (root / INGEST_MARKER).unlink(missing_ok=True)

    entries = read_spool(root)
    loaded = _load_verified(root, entries, segment_max_bytes)
    if not keep_spool:
        for path in [*root.glob("*.json"), *root.glob("*.json.tmp")]:
            zeroize_unlink(path)
        (root / SPOOL_JOURNAL).unlink(missing_ok=True)
    return {"migrated": True, "entries": loaded, "spool_removed": not keep_spool}


def migrate_sqlite_to_segments(
    db: str | os.PathLike,
    *,
    segment_max_bytes: int = _DEFAULT_SEGMENT_BYTES,
) -> dict:
    """SQLite file → a segment store beside it (``creds.db`` → ``creds/``).

    The database is only read.  The store is built in a staging directory
    that holds the marker before it is renamed into place, so the target
    appears complete or not at all.  A target that already carries the
    marker makes this a no-op; any other non-empty target is refused.
    """
    db = Path(db)
    target = db.with_suffix("")
    if (target / BACKEND_MARKER).exists():
        return {"migrated": False, "entries": 0, "target": str(target),
                "reason": f"already migrated to {target}"}
    if target.exists() and any(target.iterdir()):
        raise RepositoryError(f"{target} exists and is not empty; refusing to merge")
    entries = read_sqlite(db)
    staging = target.with_name(target.name + ".migrating")
    shutil.rmtree(staging, ignore_errors=True)
    loaded = _load_verified(staging, entries, segment_max_bytes)
    os.replace(staging, target)
    fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return {"migrated": True, "entries": loaded, "target": str(target)}
