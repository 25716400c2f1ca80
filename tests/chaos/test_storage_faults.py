"""Disk misbehavior (not crashes): errors, tears, lost fsyncs, bit rot.

The active segment is the store's write-ahead journal: a put or delete
is acknowledged once its record frame is fsynced there, so its write and
fsync sites are where a failing disk bites.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.obs import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.util.errors import NotFoundError, RepositoryError
from tests.cluster.conftest import make_plain_entry


def _rot(repo, username="alice", cred_name="default", garbage=None):
    """Damage the stored record of one entry in place (bit flip, or
    overwrite with ``garbage`` of the same length)."""
    segkey, offset, length = repo._index[(username, cred_name)]
    path = repo._segments[segkey].path
    raw = bytearray(path.read_bytes())
    if garbage is None:
        raw[offset + length // 2] ^= 0xFF
    else:
        raw[offset:offset + length] = garbage[:length].ljust(length, b"?")
    path.write_bytes(bytes(raw))


def _arm(injector, kind, site, **kw):
    injector.arm(
        faults.FaultPlan([faults.FaultRule(kind, site, **kw)], seed=99)
    )


class TestWriteErrors:
    @pytest.mark.parametrize("kind", ["eio", "enospc"])
    @pytest.mark.parametrize("site", ["repo.segment.fsync", "repo.segment.write"])
    def test_failed_put_fails_cleanly_and_keeps_old(
        self, repo_factory, injector, kind, site
    ):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"old"))
        _arm(injector, kind, site)
        with pytest.raises(RepositoryError):
            repo.put(make_plain_entry(key_pem=b"new"))
        injector.disarm()
        # The repository survives the error in-process: the old entry is
        # still served and the next put goes through.
        assert repo.get("alice", "default").key_pem == b"old"
        repo.put(make_plain_entry(key_pem=b"after"))
        assert repo.get("alice", "default").key_pem == b"after"

    @pytest.mark.parametrize("kind", ["eio", "enospc"])
    def test_failed_compaction_does_not_fail_the_acked_put(
        self, repo_factory, injector, kind
    ):
        repo = repo_factory()
        # Replacing a segment-sized value seals its segment and compacts.
        repo.put(make_plain_entry(key_pem=b"old" * 1400))
        _arm(injector, kind, "repo.journal.write")
        repo.put(make_plain_entry(key_pem=b"new"))  # durable, so acked
        injector.disarm()
        assert repo.get("alice", "default").key_pem == b"new"
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"new"
        assert reopened.quarantined() == []
        assert not list(reopened.root.glob("*.tmp"))

    @pytest.mark.parametrize("kind", ["eio", "enospc"])
    def test_failed_compaction_commit_keeps_the_live_store_usable(
        self, repo_factory, injector, kind
    ):
        repo = repo_factory()
        repo.put(make_plain_entry("bob", "keep", key_pem=b"kept" * 900))
        repo.put(make_plain_entry(key_pem=b"old" * 1400))
        # Hit 1 journals the compaction intent; hit 2 is its commit, after
        # the output was renamed over the inputs.
        _arm(injector, kind, "repo.journal.write", at=2)
        repo.put(make_plain_entry(key_pem=b"new"))  # durable, so acked
        injector.disarm()
        assert repo.stats.get("compactions") == 1
        # The live index already points at the output: every entry reads
        # back and the store keeps taking writes.
        assert repo.get("alice", "default").key_pem == b"new"
        assert repo.get("bob", "keep").key_pem == b"kept" * 900
        repo.put(make_plain_entry("carol", "next", key_pem=b"next"))
        assert repo.delete("bob", "keep")
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"new"
        assert reopened.get("carol", "next").key_pem == b"next"
        assert reopened.count() == 2
        assert reopened.quarantined() == []

    def test_short_write_to_journal_does_not_shadow_later_records(
        self, repo_factory, injector
    ):
        repo = repo_factory()
        _arm(injector, "short", "repo.segment.write")
        with pytest.raises(RepositoryError):
            repo.put(make_plain_entry(key_pem=b"torn-away"))
        injector.disarm()
        # The partial frame was trimmed, so this put's record is readable
        # by recovery — prove it by crashing before the index update.
        _arm(injector, "kill", "repo.segment.append.synced")
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry(key_pem=b"must-replay"))
        injector.disarm()
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"must-replay"
        # Recovered by the scan, not by cutting or quarantining a tail.
        assert reopened.stats.get("torn_truncated") == 0
        assert reopened.stats.get("corruption_detected") == 0


class TestTornJournal:
    def test_torn_append_is_truncated_at_recovery(self, repo_factory, injector):
        repo = repo_factory()
        repo.put(make_plain_entry("alice", "safe", key_pem=b"safe"))
        _arm(injector, "torn", "repo.segment.write")
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry("alice", "torn", key_pem=b"torn"))
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        # the torn (never-acked) op simply never happened
        assert reopened.stats.get("torn_truncated") >= 0
        assert reopened.get("alice", "safe").key_pem == b"safe"
        with pytest.raises(NotFoundError):
            reopened.get("alice", "torn")
        assert reopened.quarantined() == []


class TestLostFsync:
    def test_lost_journal_fsync_then_crash_rolls_back(
        self, repo_factory, injector
    ):
        # fsync silently does nothing, then the process dies at the next
        # site: the unsynced journal record evaporates (page-cache loss),
        # and recovery must roll back to the pre-op state.
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"old"))
        injector.arm(
            faults.FaultPlan(
                [
                    faults.FaultRule("lost_fsync", "repo.segment.fsync"),
                    faults.FaultRule("kill", "repo.segment.append.synced"),
                ],
                seed=5,
            )
        )
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry(key_pem=b"vanishes"))
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"old"
        assert reopened.quarantined() == []


class TestBitRot:
    def test_get_quarantines_and_raises(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot(repo)
        with pytest.raises(RepositoryError, match="quarantined"):
            repo.get("alice", "default")
        assert repo.stats.get("corruption_detected") == 1
        assert repo.stats.get("quarantined") == 1
        [item] = repo.quarantined()
        assert (item.username, item.cred_name) == ("alice", "default")

    def test_listing_surfaces_instead_of_skipping(self, repo_factory):
        # Satellite fix: unreadable entries used to be invisible to
        # list_for; now they are quarantined (and thus reported), never
        # silently ignored.
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry("alice", "good", key_pem=b"fine"))
        repo.put(make_plain_entry("alice", "rotten", key_pem=b"doomed"))
        _rot(repo, "alice", "rotten")

        entries = repo.list_for("alice")
        assert [e.cred_name for e in entries] == ["good"]
        [item] = repo.quarantined()
        assert item.cred_name == "rotten"

    def test_reopen_quarantines_at_recovery(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot(repo)
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.stats.get("quarantined") == 1
        with pytest.raises(NotFoundError):
            reopened.get("alice", "default")

    def test_scrub_reports_and_clear_quarantine_forgets(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot(repo)
        summary = repo.scrub()
        assert summary["quarantined_now"] == 1
        assert summary["quarantined_total"] == 1
        # after a repair (re-store), the quarantine record can be dropped
        repo.put(make_plain_entry(key_pem=b"restored"))
        assert repo.clear_quarantine("alice", "default") == 1
        assert repo.quarantined() == []
        assert repo.get("alice", "default").key_pem == b"restored"


class TestMetricsPublication:
    def test_counters_transfer_and_mirror(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot(repo, garbage=b"bit rot ate this record")
        with pytest.raises(RepositoryError):
            repo.get("alice", "default")

        registry = MetricsRegistry()
        repo.publish_metrics(registry)
        text = render_prometheus(registry)
        assert "myproxy_storage_corruption_detected_total 1" in text
        assert "myproxy_recovery_seconds_count 1" in text
        # post-publication increments land in the registry too
        repo.scrub()
        assert "myproxy_recovery_seconds_count 2" in render_prometheus(registry)
