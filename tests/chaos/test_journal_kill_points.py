"""Kill the repository at EVERY registered kill point; recovery must hold.

The contract being proven, for a crash at any ``repo.*`` site — the
segment append/seal sites a put or delete crosses, and the compaction
and journal sites it crosses whenever the write seals a segment whose
dead bytes trigger compaction:

- an **acknowledged** write (put or delete that returned) is never lost;
- an **unacknowledged** write lands old-or-new — the entry is either the
  pre-op state or the post-op state, never torn, never quarantined;
- reopening the store (which runs recovery) never raises.

A simulated crash drops unsynced file tails (the deterministic page-cache
loss), so these runs are strictly harsher than a polite process exit.
"""

from __future__ import annotations

import pytest

from repro import faults
from tests.cluster.conftest import make_plain_entry

# Importing the modules registers their sites; enumerate the repository's.
PUT_SITES = faults.kill_points("repo.")


# Segment-sized old values: the write that replaces (or deletes) one
# seals the segment holding it, whose dead bytes then trigger compaction,
# so the op crosses every repo.* site.
OLD = b"old-ciphertext" * 300
DOOMED = b"to-be-deleted" * 300


def _arm_kill(injector, site):
    injector.arm(faults.FaultPlan([faults.FaultRule("kill", site)], seed=1234))


@pytest.mark.parametrize("site", PUT_SITES)
class TestKillDuringPut:
    def test_old_or_new_never_corrupt(self, repo_factory, injector, site):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=OLD))

        _arm_kill(injector, site)
        crashed = False
        try:
            repo.put(make_plain_entry(key_pem=b"new-ciphertext"))
        except faults.KillPoint:
            crashed = True
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        entry = reopened.get("alice", "default")
        assert entry.key_pem in (OLD, b"new-ciphertext")
        if not crashed:
            # The put was acknowledged (site not on this op's path, or the
            # crash hit after the ack point): the new value must be there.
            assert entry.key_pem == b"new-ciphertext"
        # Never torn, never quarantined, nothing silently dropped.
        assert reopened.quarantined() == []
        assert reopened.stats.get("corruption_detected") == 0

    def test_acked_first_write_survives_crashed_second(
        self, repo_factory, injector, site
    ):
        repo = repo_factory()
        repo.put(make_plain_entry("alice", "acked", key_pem=b"precious"))

        _arm_kill(injector, site)
        try:
            repo.put(make_plain_entry("alice", "other", key_pem=b"doomed?"))
        except faults.KillPoint:
            pass
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "acked").key_pem == b"precious"


@pytest.mark.parametrize("site", PUT_SITES)
class TestKillDuringDelete:
    def test_gone_or_intact_never_zeroed_husk(self, repo_factory, injector, site):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=DOOMED))

        _arm_kill(injector, site)
        crashed = False
        try:
            repo.delete("alice", "default")
        except faults.KillPoint:
            crashed = True
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        names = {e.cred_name for e in reopened.list_for("alice")}
        if not crashed:
            assert names == set()  # acked delete: gone for good
        else:
            if "default" in names:
                # still present: must be the intact pre-delete entry
                assert reopened.get("alice", "default").key_pem == DOOMED
        # A crash mid-delete must NOT leave a corrupt husk in quarantine:
        # the tombstone is either durable (gone) or a truncated torn tail.
        assert reopened.quarantined() == []


class TestRecoveryCounters:
    def test_replayed_put_is_counted(self, repo_factory, injector):
        repo = repo_factory()
        # Overwriting a segment-sized value seals its segment and compacts
        # it away; the kill lands before the compaction's journal commit.
        repo.put(make_plain_entry(key_pem=OLD))
        _arm_kill(injector, "repo.journal.commit.pre")
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry(key_pem=b"replay-me"))
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"replay-me"
        assert reopened.stats.get("records_recovered") >= 1

    def test_clean_reopen_counts_nothing(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        repo.close()
        reopened = repo_factory(faulty=False)
        snap = reopened.stats.snapshot()
        assert snap["records_recovered"] == 0
        assert snap["corruption_detected"] == 0
        assert snap["quarantined"] == 0
        assert snap["recoveries"] == 1  # the reopen itself was timed
