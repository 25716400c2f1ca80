"""A garbled shipped op must never crash the replica's apply path.

The seeded bug: ``apply_op`` raised on a partial/garbled op (bad HMAC,
undecodable document) and the exception propagated out of ``receive``,
killing the apply and, on the primary side, failing every later ship to
that replica.  The fix is skip-and-resync: count it, remember the gap,
defer later ops from that origin, and let the coordinator's resync heal.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.replog import ReplicatedOp
from repro.core.segments import SegmentRepository
from tests.cluster.conftest import make_plain_entry

pytestmark = pytest.mark.usefixtures("key_pool")


def _garble(op: ReplicatedOp) -> ReplicatedOp:
    """Ship-time corruption: the document changed after the MAC was made."""
    return dataclasses.replace(op, document='{"broken json')


class TestGarbledApply:
    def test_skip_counts_and_requests_resync(self, cluster_factory):
        cluster = cluster_factory(3)
        primary = cluster.primary_for("alice")
        replica = next(
            n for n in cluster.preference("alice") if n is not primary
        )

        primary.repository.put(make_plain_entry("alice", "one", b"ct-1"))
        good = primary.log.since(0)[-1]
        bad = _garble(
            primary.log.append("put", "alice", "two", '{"broken json')
        )
        # the replica must survive the bad op — no exception escapes
        assert replica.receive([bad]) == 0
        assert replica.server.stats.replication_ops_skipped == 1
        assert replica.resync_requested
        # the good op (already applied via the shipper) is still intact
        assert replica.applied_seq(primary.name) >= good.seq

    def test_bad_op_defers_same_origin_but_not_other_origins(
        self, cluster_factory
    ):
        cluster = cluster_factory(3, replication_factor=3, min_sync_acks=0)
        nodes = list(cluster.nodes.values())
        a, b, c = nodes
        # hand-build ops so nothing auto-ships
        op_a1 = a.log.append("put", "u1", "c", make_plain_entry("u1", "c").to_json())
        op_a2 = a.log.append("put", "u2", "c", make_plain_entry("u2", "c").to_json())
        op_b1 = b.log.append("put", "u3", "c", make_plain_entry("u3", "c").to_json())

        applied = c.receive([_garble(op_a1), op_a2, op_b1])
        # a's stream stops at the garble (ordering preserved); b's flows on
        assert applied == 1
        assert c.applied_seq(a.name) == 0
        assert c.applied_seq(b.name) == op_b1.seq

        # resync replays the intact log and fully heals the gap
        healed = cluster.auto_resync()
        assert healed.get(c.name, 0) >= 2
        assert c.applied_seq(a.name) == op_a2.seq
        assert not c.resync_requested
        assert c.backend.get("u1", "c").username == "u1"

    def test_shipper_does_not_ack_a_skipped_op(self, cluster_factory, tmp_path):
        # End to end through the real shipper: corrupt the replica's view
        # by tampering the op in flight via a wrapped receive.
        cluster = cluster_factory(
            3,
            backends=[SegmentRepository(tmp_path / f"s{i}") for i in range(3)],
        )
        primary = cluster.primary_for("alice")
        replicas = [
            n for n in cluster.preference("alice") if n is not primary
        ]
        for replica in replicas:
            original = replica.receive
            replica.receive = lambda ops, _orig=original, **kw: _orig(
                [_garble(op) if op.kind == "put" else op for op in ops], **kw
            )
        # min_sync_acks=1 and no replica can ack -> the put must NOT be
        # acknowledged to the client.
        from repro.util.errors import RepositoryError

        with pytest.raises(RepositoryError, match="refusing to acknowledge"):
            primary.repository.put(make_plain_entry("alice"))
        assert primary.server.stats.replication_failures >= 1
