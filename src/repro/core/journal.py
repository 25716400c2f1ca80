"""CRC-framed records and the storage layer's write-ahead journal.

Every durable byte the storage layer writes — segment records, the
compaction journal, the replication log — is wrapped in the same frame::

    %MPF1 <payload-length> <crc32>\\n<payload>\\n

The header is a single ASCII line (length-prefixed, CRC32 of the payload),
so a record stays human-inspectable while torn tails and bit rot are
*detectable* instead of silently parsed into garbage.  :func:`scan_frames`
classifies a byte stream's end state:

- ``clean``   — every frame intact;
- ``torn``    — the stream ends mid-frame (a crashed append): the tail is
  safe to truncate, the data in it was never acknowledged durable;
- ``corrupt`` — a complete-looking frame fails its CRC or magic (bit rot,
  a zeroed block): everything from that point is quarantined, never
  silently dropped.

:class:`WriteAheadJournal` layers redo logging on top: an operation is
journaled (op frame, fsync) *before* it is carried out, and a commit
marker is appended after.  Recovery replays ops that have no commit
marker, so a process killed at any point between "journal synced" and
"commit synced" converges to the post-op state.  The segment engine
journals its compactions this way; :func:`parse_journal` is the same
recovery scan without the truncation, which ``myproxy-admin migrate``
uses to read a legacy spool's ``journal.wal``.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.faults import NO_FAULTS, FaultInjector, ShimFile
from repro.util.errors import RepositoryError

MAGIC = b"%MPF1"

# The journal's kill points, registered so the chaos suite can enumerate
# and murder the process at every one of them.
SITE_APPEND_PRE = faults.kill_point(
    "repo.journal.append.pre", "before the op record is written")
SITE_APPEND_SYNCED = faults.kill_point(
    "repo.journal.append.synced", "op record durable, op not yet carried out")
SITE_COMMIT_PRE = faults.kill_point(
    "repo.journal.commit.pre", "op carried out, commit marker not yet written")
SITE_COMMIT_SYNCED = faults.kill_point(
    "repo.journal.commit.synced", "commit marker durable, ack about to happen")
SITE_COMPACT_PRE = faults.kill_point(
    "repo.journal.compact.pre", "before the committed journal is truncated")


class FramingError(RepositoryError):
    """A framed record failed its structural or CRC check."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed, CRC32-checked frame."""
    header = b"%s %d %d\n" % (MAGIC, len(payload), zlib.crc32(payload))
    return header + payload + b"\n"


def scan_frames(data: bytes) -> tuple[list[bytes], int, str]:
    """Decode consecutive frames from ``data``.

    Returns ``(payloads, clean_length, status)`` where ``clean_length`` is
    the byte offset just past the last intact frame and ``status`` is one
    of ``"clean"``, ``"torn"`` (incomplete tail) or ``"corrupt"`` (a full
    frame that fails magic/CRC).
    """
    payloads: list[bytes] = []
    pos = 0
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            incomplete = size - pos < 64 and data.find(b"\n", pos) == -1
            return payloads, pos, "torn" if incomplete else "corrupt"
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != MAGIC:
            return payloads, pos, "corrupt"
        try:
            length, crc = int(parts[1]), int(parts[2])
        except ValueError:
            return payloads, pos, "corrupt"
        if length < 0:
            return payloads, pos, "corrupt"
        start = nl + 1
        end = start + length + 1  # payload plus trailing newline
        if end > size:
            return payloads, pos, "torn"
        payload = data[start:start + length]
        if data[end - 1] != 0x0A or zlib.crc32(payload) != crc:
            return payloads, pos, "corrupt"
        payloads.append(payload)
        pos = end
    return payloads, pos, "clean"


def iter_frames(data: bytes, pos: int = 0):
    """Yield ``(payload, start, end)`` for consecutive intact frames.

    Like :func:`scan_frames` but with byte offsets, which is what the
    segment engine's index needs; stops at the first torn or corrupt
    byte.  The caller learns where it stopped from the last yielded
    ``end`` (or ``pos`` if nothing was yielded) and can classify the
    remainder with :func:`scan_frames` or resume with
    :func:`find_next_frame`.
    """
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos, pos + 64)
        if nl == -1:
            return
        parts = data[pos:nl].split(b" ")
        if len(parts) != 3 or parts[0] != MAGIC:
            return
        try:
            length, crc = int(parts[1]), int(parts[2])
        except ValueError:
            return
        if length < 0:
            return
        start = nl + 1
        end = start + length + 1
        if end > size:
            return
        payload = data[start:start + length]
        if data[end - 1] != 0x0A or zlib.crc32(payload) != crc:
            return
        yield payload, pos, end
        pos = end


def find_next_frame(data: bytes, pos: int) -> int:
    """Offset of the next *intact* frame at or after ``pos``, or -1.

    The salvage scan after a corrupt region: bit rot in the middle of a
    segment must not cost the intact records behind it, so recovery
    resynchronizes on the next verifiable frame header instead of
    discarding the rest of the file.
    """
    size = len(data)
    while 0 <= pos < size:
        pos = data.find(MAGIC, pos)
        if pos == -1:
            return -1
        probe = iter_frames(data, pos)
        try:
            next(probe)
            return pos
        except StopIteration:
            pos += 1
    return -1


def decode_single_frame(data: bytes) -> bytes:
    """Decode a file that must hold exactly one intact frame (legacy spool entry)."""
    payloads, clean_len, status = scan_frames(data)
    if status != "clean" or len(payloads) != 1 or clean_len != len(data):
        raise FramingError(
            f"expected one intact frame, found {len(payloads)} ({status})"
        )
    return payloads[0]


def is_framed(data: bytes) -> bool:
    return data.startswith(MAGIC)


# ---------------------------------------------------------------------------
# the write-ahead journal
# ---------------------------------------------------------------------------

OP_COMMIT = "commit"
#: Ops a legacy spool journaled; only ``myproxy-admin migrate`` reads them.
OP_PUT = "put"
OP_DELETE = "delete"
#: Structural op journaled by the segment engine: a compaction's
#: rename-and-delete sequence is redo-logged so a crash mid-rewrite rolls
#: forward to the compacted state instead of leaving both generations.
OP_COMPACT = "compact"


@dataclass
class JournalRecovery:
    """What :meth:`WriteAheadJournal.recover` found."""

    pending: list[dict] = field(default_factory=list)  # uncommitted ops, in order
    replayed_commits: int = 0
    torn_bytes: int = 0  # truncated (never-acked partial append)
    corrupt_bytes: int = 0  # quarantined (failed CRC)
    corrupt_tail: bytes = b""
    max_txid: int = 0


def parse_journal(data: bytes) -> JournalRecovery:
    """Classify a journal's bytes without touching the file.

    Returns the uncommitted ops in log order plus what a recovery would
    truncate (torn tail) or quarantine (corrupt tail).
    """
    report = JournalRecovery()
    payloads, clean_len, status = scan_frames(data)
    if status == "torn":
        report.torn_bytes = len(data) - clean_len
    elif status == "corrupt":
        report.corrupt_bytes = len(data) - clean_len
        report.corrupt_tail = data[clean_len:]
    ops: dict[int, dict] = {}
    committed: set[int] = set()
    order: list[int] = []
    for payload in payloads:
        try:
            doc = json.loads(payload.decode("utf-8"))
            txid = int(doc["txid"])
            op = str(doc["op"])
        except (ValueError, KeyError, TypeError):
            # A frame with a good CRC but bad JSON means the writer
            # itself was broken; treat like corruption, keep going.
            report.corrupt_bytes += len(payload)
            continue
        report.max_txid = max(report.max_txid, txid)
        if op == OP_COMMIT:
            committed.add(txid)
        else:
            ops[txid] = doc
            order.append(txid)
    report.replayed_commits = len(committed)
    report.pending = [ops[t] for t in order if t not in committed]
    return report


class WriteAheadJournal:
    """Redo journal: op frame → apply → commit frame.

    All appends go through the fault injector's file shim, so chaos plans
    can tear, drop or error any byte of it; compaction truncates the file
    once every logged op is committed (bounding recovery time).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        injector: FaultInjector | None = None,
        compact_threshold: int = 256,
    ) -> None:
        self.path = Path(path)
        self._injector = injector if injector is not None else NO_FAULTS
        self._compact_threshold = max(int(compact_threshold), 1)
        self._lock = threading.RLock()
        self._next_txid = 1
        self._pending: set[int] = set()
        self._committed_since_compact = 0
        self._file = ShimFile(
            self.path,
            self._injector,
            write_site="repo.journal.write",
            fsync_site="repo.journal.fsync",
        )

    # -- recovery ---------------------------------------------------------

    def recover(self) -> JournalRecovery:
        """Scan the journal, truncate torn tails, return uncommitted ops.

        The caller replays ``pending`` and then calls :meth:`reset` — at
        that point every surviving op is applied and the journal may start
        empty.
        """
        data = Path(self.path).read_bytes() if self.path.exists() else b""
        report = parse_journal(data)
        clean_len = len(data) - report.torn_bytes - len(report.corrupt_tail)
        if clean_len != len(data):
            self._file.truncate(clean_len)
        self._next_txid = report.max_txid + 1
        self._pending = {int(op["txid"]) for op in report.pending}
        return report

    def reset(self) -> None:
        """Empty the journal (every logged op is known applied)."""
        with self._lock:
            self._file.truncate(0)
            self._pending.clear()
            self._committed_since_compact = 0

    # -- logging ----------------------------------------------------------

    def _append(self, doc: dict) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        start = self._file.size
        try:
            self._file.write(encode_frame(payload))
            self._file.fsync()
        except OSError:
            # The process survived a failed append (EIO/ENOSPC/short
            # write): trim the partial frame so it cannot shadow every
            # later record from a recovery scan.  A *crash* mid-append
            # leaves the torn tail for recovery to truncate instead.
            try:
                self._file.truncate(start)
            except OSError:  # pragma: no cover - disk truly gone
                pass
            raise

    def begin(self, op: str, username: str, cred_name: str, document: str | None) -> int:
        """Durably log an op before it is applied; returns its txid."""
        with self._lock:
            self._injector.fire(SITE_APPEND_PRE)
            txid = self._next_txid
            self._next_txid += 1
            self._append(
                {
                    "txid": txid,
                    "op": op,
                    "username": username,
                    "cred_name": cred_name,
                    "document": document,
                }
            )
            self._pending.add(txid)
            self._injector.fire(SITE_APPEND_SYNCED)
            return txid

    def commit(self, txid: int) -> None:
        """Mark ``txid`` applied; may compact once nothing is pending."""
        with self._lock:
            self._injector.fire(SITE_COMMIT_PRE)
            self._append({"txid": txid, "op": OP_COMMIT})
            self._pending.discard(txid)
            self._committed_since_compact += 1
            self._injector.fire(SITE_COMMIT_SYNCED)
            if (
                not self._pending
                and self._committed_since_compact >= self._compact_threshold
            ):
                self._injector.fire(SITE_COMPACT_PRE)
                self._file.truncate(0)
                self._committed_since_compact = 0

    def close(self) -> None:
        self._file.close()
