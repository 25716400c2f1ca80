"""``myproxy-admin migrate``: legacy spool or SQLite → segment store.

The acceptance bar: every entry survives byte-identically (ACLs and
renewal state included), pending journal ops land old-or-new, legacy
bare-JSON files still decode, quarantined files stay available for
cluster scrub, re-migration is a no-op, a conversion that crashed before
its commit marker leaves the old data authoritative — and the server
refuses to open unmigrated data rather than starting on an empty store.

Legacy spools are laid down as bytes, the way the removed writer left
them: one CRC-framed (or bare-JSON) ``<token>.json`` per credential plus
a ``journal.wal`` of framed redo ops.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import sqlite3

import pytest

from repro.cli import myproxy_admin, myproxy_server
from repro.core.journal import encode_frame
from repro.core.migration import (
    migrate_spool_to_segments,
    migrate_sqlite_to_segments,
)
from repro.core.repository import encode_key_token
from repro.core.segments import SegmentRepository, detect_backend, open_repository
from repro.util.errors import RepositoryError
from tests.cluster.conftest import make_plain_entry


def spool_path(root, entry):
    return root / f"{encode_key_token(entry.username, entry.cred_name)}.json"


def write_spool(root, entries, *, legacy=(), journal=()):
    """A spool as the old writer left it; ``legacy`` entries are bare JSON
    (pre-framing files), ``journal`` is a list of ``(op, entry)`` ops
    logged but never committed."""
    root.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        spool_path(root, entry).write_bytes(encode_frame(entry.to_json().encode()))
    for entry in legacy:
        spool_path(root, entry).write_text(entry.to_json(), "utf-8")
    frames = [
        encode_frame(json.dumps({
            "txid": txid,
            "op": op,
            "username": entry.username,
            "cred_name": entry.cred_name,
            "document": entry.to_json() if op == "put" else None,
        }, sort_keys=True).encode())
        for txid, (op, entry) in enumerate(journal, start=1)
    ]
    if frames:
        (root / "journal.wal").write_bytes(b"".join(frames))


def sample_entries() -> list:
    entries = [
        make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i) for i in range(20)
    ]
    entries.append(make_plain_entry("bob", "default"))
    # An entry exercising the policy fields migration must not drop.
    entries.append(
        dataclasses.replace(
            make_plain_entry("carol", "locked"),
            retrievers=("/O=Grid/CN=host/portal.*", "/O=Grid/CN=host/other.*"),
            renewers=("/O=Grid/CN=renewer.*",),
            key_pem_renewal=b"sealed-renewal-copy",
            long_term=True,
        )
    )
    return entries


def populate(root) -> list:
    entries = sample_entries()
    write_spool(root, entries)
    return entries


def assert_store_holds(root, entries):
    segs = SegmentRepository(root)
    try:
        assert segs.count() == len(entries)
        for entry in entries:
            assert segs.get(entry.username, entry.cred_name).to_json() == entry.to_json()
    finally:
        segs.close()


def rot(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_every_entry_and_acl_preserved(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)

        result = migrate_spool_to_segments(root)
        assert result["migrated"] is True
        assert result["entries"] == len(entries)

        assert_store_holds(root, entries)
        segs = SegmentRepository(root)
        try:
            carol = segs.get("carol", "locked")
            assert carol.retrievers == (
                "/O=Grid/CN=host/portal.*",
                "/O=Grid/CN=host/other.*",
            )
            assert carol.renewers == ("/O=Grid/CN=renewer.*",)
            assert carol.key_pem_renewal == b"sealed-renewal-copy"
        finally:
            segs.close()

    def test_spool_files_zeroized_and_removed(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)
        write_spool(root, [], journal=[("put", make_plain_entry("dave"))])
        (root / "orphan.json.tmp").write_bytes(b"half-written")
        migrate_spool_to_segments(root)
        assert not list(root.glob("*.json"))
        assert not list(root.glob("*.json.tmp"))
        assert not (root / "journal.wal").exists()
        assert_store_holds(root, entries + [make_plain_entry("dave")])

    def test_keep_spool_leaves_files_but_flips_reads(self, tmp_path):
        root = tmp_path / "store"
        populate(root)
        migrate_spool_to_segments(root, keep_spool=True)
        assert list(root.glob("*.json"))  # old files intact
        assert detect_backend(root) == "segments"  # but the marker wins
        repo = open_repository(root)
        try:
            assert isinstance(repo, SegmentRepository)
        finally:
            repo.close()

    def test_quarantined_files_preserved_for_scrub(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)
        rot(spool_path(root, entries[0]))

        migrate_spool_to_segments(root)
        segs = SegmentRepository(root)
        try:
            items = segs.quarantined()
            assert len(items) == 1
            # identity preserved → scrub can heal it from a peer
            assert (items[0].username, items[0].cred_name) == entries[0].key
            assert segs.count() == len(entries) - 1
        finally:
            segs.close()

    def test_remigration_is_noop(self, tmp_path):
        root = tmp_path / "store"
        populate(root)
        first = migrate_spool_to_segments(root)
        assert first["migrated"] is True
        second = migrate_spool_to_segments(root)
        assert second["migrated"] is False
        assert second["reason"] == "already segments"

    def test_empty_spool_migrates_cleanly(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "journal.wal").write_bytes(b"")  # a spool that never stored
        result = migrate_spool_to_segments(root)
        assert result["migrated"] is True
        assert result["entries"] == 0
        assert detect_backend(root) == "segments"


class TestLegacySpoolShapes:
    """What the old spool's own recovery handled, the reader handles too."""

    def test_pending_journal_ops_land_old_or_new(self, tmp_path):
        root = tmp_path / "store"
        kept = make_plain_entry("alice", "kept", key_pem=b"kept")
        replaced = make_plain_entry("alice", "replaced", key_pem=b"old")
        doomed = make_plain_entry("alice", "doomed", key_pem=b"doomed")
        torn = make_plain_entry("alice", "torn", key_pem=b"before")
        new_replaced = make_plain_entry("alice", "replaced", key_pem=b"new")
        new_torn = make_plain_entry("alice", "torn", key_pem=b"after")
        unwritten = make_plain_entry("alice", "unwritten", key_pem=b"journal-only")
        write_spool(
            root,
            [kept, replaced, doomed, torn],
            journal=[
                ("put", new_replaced),  # crashed before its rename
                ("delete", doomed),  # crashed before its unlink
                ("put", new_torn),  # crashed mid-rewrite of a torn file
                ("put", unwritten),  # crashed before the file existed
            ],
        )
        # The interrupted rewrite left a half-written file behind: the
        # journaled op repairs it instead of quarantining it.
        path = spool_path(root, torn)
        path.write_bytes(path.read_bytes()[:40])
        # A torn final journal frame was never acknowledged: ignored.
        with open(root / "journal.wal", "ab") as fh:
            fh.write(encode_frame(b'{"half": "a record')[:20])

        result = migrate_spool_to_segments(root)
        assert result["entries"] == 4
        assert_store_holds(root, [kept, new_replaced, new_torn, unwritten])
        segs = SegmentRepository(root)
        try:
            assert segs.quarantined() == []
        finally:
            segs.close()

    def test_legacy_json_and_corrupt_files(self, tmp_path):
        root = tmp_path / "store"
        framed = make_plain_entry("alice", "framed", key_pem=b"framed")
        legacy = make_plain_entry("bob", "legacy", key_pem=b"pre-framing")
        rotten = make_plain_entry("carol", "rotten", key_pem=b"rotten")
        write_spool(root, [framed, rotten], legacy=[legacy])
        rot(spool_path(root, rotten))

        result = migrate_spool_to_segments(root)
        assert result["entries"] == 2
        assert_store_holds(root, [framed, legacy])
        segs = SegmentRepository(root)
        try:
            [item] = segs.quarantined()
            assert (item.username, item.cred_name) == ("carol", "rotten")
        finally:
            segs.close()


    def test_nul_user_names_quarantined_rest_migrated(self, tmp_path):
        """The old protocol never refused a NUL in a user name; segments
        cannot key one unambiguously, so such entries are set aside with
        a reason instead of aborting the conversion."""
        root = tmp_path / "store"
        good = make_plain_entry("alice", "x", key_pem=b"good")
        planted = make_plain_entry("alice\x00x", "y", key_pem=b"planted")
        journaled = make_plain_entry("mallory\x00", "z", key_pem=b"journaled")
        write_spool(root, [good], journal=[("put", journaled)])
        token = base64.urlsafe_b64encode(b"alice\x00x\x00y").decode("ascii")
        (root / f"{token}.json").write_bytes(encode_frame(planted.to_json().encode()))

        result = migrate_spool_to_segments(root)
        assert result["entries"] == 1
        assert_store_holds(root, [good])
        segs = SegmentRepository(root)
        try:
            items = segs.quarantined()
        finally:
            segs.close()
        assert len(items) == 2
        assert all("NUL" in item.reason for item in items)
        kept = b"".join(item.path.read_bytes() for item in items)
        assert planted.to_json().encode() in kept
        assert journaled.to_json().encode() in kept


class TestCrashSafety:
    def test_crashed_migration_leaves_spool_authoritative(self, tmp_path):
        """Segment debris without a marker must not shadow the spool."""
        root = tmp_path / "store"
        populate(root)
        # Simulate a crash mid-bulk-load: segment files exist, no marker.
        (root / "seg-00000001.mps").write_bytes(b"%MPS1 v1 id=1 gen=0\n")
        assert detect_backend(root) == "spool"
        with pytest.raises(RepositoryError, match="myproxy-admin .*migrate"):
            open_repository(root)
        # the spool itself is untouched
        assert len(list(root.glob("*.json"))) == len(sample_entries())

    def test_retry_after_crash_succeeds(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)
        (root / "seg-00000001.mps").write_bytes(b"%MPS1 v1 id=1 gen=0\n")
        result = migrate_spool_to_segments(root)
        assert result["migrated"] is True
        assert result["entries"] == len(entries)
        assert_store_holds(root, entries)


    def test_retry_replaces_loaded_segments_of_a_crashed_migration(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)
        # Crash after the bulk load wrote records, before the marker.
        debris = SegmentRepository(root)
        debris.bulk_load([make_plain_entry("alice", "c0", key_pem=b"stale")])
        debris.close()
        assert detect_backend(root) == "spool"
        assert migrate_spool_to_segments(root)["entries"] == len(entries)
        assert_store_holds(root, entries)

    def test_stray_json_beside_unmarked_segment_store_keeps_every_entry(
        self, tmp_path
    ):
        """A segment store built without a marker plus one stray JSON file
        looks like a crashed migration; migrate must refuse, not wipe it."""
        root = tmp_path / "store"
        entries = sample_entries()
        segs = SegmentRepository(root)
        for entry in entries:
            segs.put(entry)
        segs.close()
        (root / "cluster-status.json").write_text('{"nodes": []}')
        assert detect_backend(root) == "spool"
        with pytest.raises(RepositoryError, match="refusing to replace"):
            migrate_spool_to_segments(root)
        assert_store_holds(root, entries)


def write_sqlite(path, entries):
    """An SQLite repository file in the schema the removed backend used."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(
            "CREATE TABLE credentials (username TEXT NOT NULL, "
            "cred_name TEXT NOT NULL, owner_dn TEXT NOT NULL, "
            "not_after REAL NOT NULL, document TEXT NOT NULL, "
            "PRIMARY KEY (username, cred_name))"
        )
        conn.executemany(
            "INSERT INTO credentials VALUES (?, ?, ?, ?, ?)",
            [(e.username, e.cred_name, e.owner_dn, e.not_after, e.to_json())
             for e in entries],
        )
    conn.close()


class TestSqliteSource:
    def test_every_entry_converted_database_untouched(self, tmp_path):
        db = tmp_path / "creds.db"
        entries = sample_entries()
        write_sqlite(db, entries)
        before = db.read_bytes()

        result = migrate_sqlite_to_segments(db)
        assert result == {"migrated": True, "entries": len(entries),
                          "target": str(tmp_path / "creds")}
        assert db.read_bytes() == before
        assert detect_backend(tmp_path / "creds") == "segments"
        assert_store_holds(tmp_path / "creds", entries)
        assert not (tmp_path / "creds.migrating").exists()

        again = migrate_sqlite_to_segments(db)
        assert again["migrated"] is False

    def test_crashed_staging_is_rebuilt_and_target_never_merged(self, tmp_path):
        db = tmp_path / "creds.db"
        entries = sample_entries()
        write_sqlite(db, entries)
        # debris of a crash before the staging directory was renamed
        staging = tmp_path / "creds.migrating"
        staging.mkdir()
        (staging / "seg-00000001.mps").write_bytes(b"%MPS1 v1 id=1 gen=0\n")
        assert migrate_sqlite_to_segments(db)["entries"] == len(entries)
        assert_store_holds(tmp_path / "creds", entries)

        other = tmp_path / "other.db"
        write_sqlite(other, entries[:1])
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "unrelated").write_text("x")
        with pytest.raises(RepositoryError, match="refusing to merge"):
            migrate_sqlite_to_segments(other)

    def test_nul_user_name_row_quarantined_rest_migrated(self, tmp_path):
        db = tmp_path / "creds.db"
        entries = sample_entries()
        planted = make_plain_entry("alice\x00c1", "x", key_pem=b"planted")
        write_sqlite(db, [*entries, planted])
        assert migrate_sqlite_to_segments(db)["entries"] == len(entries)
        assert_store_holds(tmp_path / "creds", entries)
        segs = SegmentRepository(tmp_path / "creds")
        try:
            [item] = segs.quarantined()
        finally:
            segs.close()
        assert "NUL" in item.reason
        assert item.path.read_bytes() == planted.to_json().encode()

    def test_admin_cli_migrates_a_db_path(self, tmp_path, capsys):
        db = tmp_path / "creds.db"
        write_sqlite(db, sample_entries())
        assert myproxy_admin.main(["--storage-dir", str(db), "migrate"]) == 0
        assert f"in {tmp_path / 'creds'}" in capsys.readouterr().out
        assert myproxy_admin.main(
            ["--storage-dir", str(tmp_path / "creds"), "query", "-l", "carol"]
        ) == 0
        assert "carol/locked" in capsys.readouterr().out


class TestOpenRepositoryResolution:
    def test_fresh_directory_opens_segments(self, tmp_path):
        repo = open_repository(tmp_path / "fresh")
        try:
            assert isinstance(repo, SegmentRepository)
        finally:
            repo.close()

    def test_opened_store_is_marked_so_a_stray_json_is_harmless(self, tmp_path):
        root = tmp_path / "fresh"
        entries = sample_entries()
        repo = open_repository(root)
        for entry in entries:
            repo.put(entry)
        repo.close()
        (root / "cluster-epochs.json").write_text("{}")
        assert detect_backend(root) == "segments"
        assert migrate_spool_to_segments(root)["migrated"] is False
        repo = open_repository(root)
        repo.close()
        assert_store_holds(root, entries)

    def test_unknown_backend_rejected(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "storage.backend").write_text("tape\n")
        with pytest.raises(RepositoryError, match="'tape'"):
            open_repository(root)
        with pytest.raises(RepositoryError, match="not a spool"):
            migrate_spool_to_segments(root)

    def test_unmigrated_spool_refused_not_opened_empty(self, tmp_path):
        root = tmp_path / "store"
        entries = populate(root)
        with pytest.raises(RepositoryError, match="myproxy-admin .*migrate"):
            open_repository(root)
        # nothing was created beside the spool
        assert not list(root.glob("seg-*"))
        assert len(list(root.glob("*.json"))) == len(entries)

    def test_journal_only_spool_refused(self, tmp_path):
        root = tmp_path / "store"
        write_spool(root, [], journal=[("put", make_plain_entry())])
        with pytest.raises(RepositoryError, match="migrate"):
            open_repository(root)

    def test_db_path_refused(self, tmp_path):
        db = tmp_path / "creds.db"
        write_sqlite(db, sample_entries())
        with pytest.raises(RepositoryError, match="SQLite.*migrate"):
            open_repository(db)
        assert db.is_file()

    @pytest.mark.parametrize("kind", ["spool", "sqlite"])
    def test_server_cli_refuses_with_migrate_hint(self, tmp_path, capsys, kind):
        if kind == "spool":
            target = tmp_path / "store"
            populate(target)
        else:
            target = tmp_path / "creds.db"
            write_sqlite(target, sample_entries())
        rc = myproxy_server.main([
            "--credential", str(tmp_path / "unused.pem"),
            "--storage-dir", str(target),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"myproxy-admin --storage-dir {target} migrate" in err

    def test_storage_config_knobs_passed_through(self, tmp_path):
        from repro.core.config import StorageConfig

        cfg = StorageConfig(segment_max_bytes=8192, cache_entries=7)
        repo = open_repository(tmp_path / "store", storage=cfg)
        try:
            assert isinstance(repo, SegmentRepository)
            assert repo.segment_max_bytes == 8192
            assert repo.cache_info()["capacity"] == 7
        finally:
            repo.close()
