"""The replication log: sequencing, HMAC authentication, ship-on-write."""

import dataclasses
import json

import pytest

from repro.cluster.replog import (
    OP_DELETE,
    OP_PUT,
    ReplicatedOp,
    ReplicatingRepository,
    ReplicationLog,
    apply_op,
)
from repro.core.repository import MemoryRepository
from repro.util.errors import NotFoundError, RepositoryError

from tests.cluster.conftest import make_plain_entry

SECRET = b"0123456789abcdef"
OTHER_SECRET = b"fedcba9876543210"


def put_op(seq=1, username="alice", document=None, secret=SECRET) -> ReplicatedOp:
    if document is None:
        document = make_plain_entry(username=username).to_json()
    return ReplicatedOp.make(
        origin="node0",
        seq=seq,
        kind=OP_PUT,
        username=username,
        cred_name="default",
        document=document,
        secret=secret,
    )


class TestReplicatedOp:
    def test_mac_verifies_under_the_shared_secret(self):
        put_op().verify(SECRET)

    def test_wrong_secret_rejected(self):
        with pytest.raises(RepositoryError, match="HMAC"):
            put_op().verify(OTHER_SECRET)

    def test_tampered_document_rejected(self):
        op = put_op()
        evil = dataclasses.replace(
            op, document=op.document.replace("alice", "mallory")
        )
        with pytest.raises(RepositoryError, match="HMAC"):
            evil.verify(SECRET)

    def test_tampered_sequence_rejected(self):
        evil = dataclasses.replace(put_op(seq=1), seq=2)
        with pytest.raises(RepositoryError, match="HMAC"):
            evil.verify(SECRET)

    def test_wire_roundtrip(self):
        op = put_op()
        again = ReplicatedOp.decode(op.encode())
        assert again == op
        again.verify(SECRET)

    def test_corrupt_wire_form_reported(self):
        with pytest.raises(RepositoryError, match="corrupt"):
            ReplicatedOp.decode(b"{not json")
        with pytest.raises(RepositoryError, match="corrupt"):
            ReplicatedOp.decode(json.dumps({"origin": "node0"}).encode())


class TestReplicationLog:
    def test_sequences_are_dense_and_monotonic(self):
        log = ReplicationLog("node0", SECRET)
        ops = [
            log.append(OP_PUT, f"user{i}", "default", make_plain_entry().to_json())
            for i in range(5)
        ]
        assert [op.seq for op in ops] == [1, 2, 3, 4, 5]
        assert log.last_seq == 5
        assert len(log) == 5

    def test_since_returns_the_tail(self):
        log = ReplicationLog("node0", SECRET)
        for i in range(4):
            log.append(OP_DELETE, f"user{i}", "default", None)
        assert [op.seq for op in log.since(2)] == [3, 4]
        assert log.since(4) == []
        assert [op.seq for op in log.since(0)] == [1, 2, 3, 4]

    def test_appended_ops_carry_valid_macs(self):
        log = ReplicationLog("node0", SECRET)
        op = log.append(OP_PUT, "alice", "default", make_plain_entry().to_json())
        op.verify(SECRET)
        assert op.origin == "node0"


class TestApplyOp:
    def test_put_is_applied(self):
        backend = MemoryRepository()
        apply_op(backend, put_op(), SECRET)
        assert backend.get("alice", "default").username == "alice"

    def test_delete_is_applied(self):
        backend = MemoryRepository()
        backend.put(make_plain_entry())
        op = ReplicatedOp.make(
            origin="node0", seq=1, kind=OP_DELETE, username="alice",
            cred_name="default", document=None, secret=SECRET,
        )
        apply_op(backend, op, SECRET)
        with pytest.raises(NotFoundError):
            backend.get("alice", "default")

    def test_forged_op_never_touches_the_backend(self):
        backend = MemoryRepository()
        with pytest.raises(RepositoryError, match="HMAC"):
            apply_op(backend, put_op(secret=OTHER_SECRET), SECRET)
        assert backend.count() == 0

    def test_put_without_document_rejected(self):
        op = ReplicatedOp.make(
            origin="node0", seq=1, kind=OP_PUT, username="alice",
            cred_name="default", document=None, secret=SECRET,
        )
        with pytest.raises(RepositoryError, match="no document"):
            apply_op(MemoryRepository(), op, SECRET)

    def test_unknown_kind_rejected(self):
        op = ReplicatedOp.make(
            origin="node0", seq=1, kind="frobnicate", username="alice",
            cred_name="default", document=None, secret=SECRET,
        )
        with pytest.raises(RepositoryError, match="unknown"):
            apply_op(MemoryRepository(), op, SECRET)


class TestReplicatingRepository:
    def _repo(self):
        shipped = []
        backend = MemoryRepository()
        log = ReplicationLog("node0", SECRET)
        repo = ReplicatingRepository(backend, log, shipper=shipped.append)
        return repo, backend, log, shipped

    def test_put_logs_applies_and_ships(self):
        repo, backend, log, shipped = self._repo()
        entry = make_plain_entry()
        repo.put(entry)
        assert backend.get("alice", "default") == entry
        assert log.last_seq == 1
        assert [op.kind for op in shipped] == [OP_PUT]
        # the shipped document is the entry exactly as persisted
        assert shipped[0].document == entry.to_json()

    def test_delete_ships_only_when_something_existed(self):
        repo, _backend, log, shipped = self._repo()
        assert repo.delete("alice", "default") is False
        assert log.last_seq == 0 and shipped == []
        repo.put(make_plain_entry())
        assert repo.delete("alice", "default") is True
        assert [op.kind for op in shipped] == [OP_PUT, OP_DELETE]

    def test_shipper_failure_fails_the_write(self):
        """Semi-sync: if replicas cannot be reached the client is never acked."""
        backend = MemoryRepository()
        log = ReplicationLog("node0", SECRET)

        def no_replicas(op):
            raise RepositoryError("0 replicas reached")

        repo = ReplicatingRepository(backend, log, shipper=no_replicas)
        with pytest.raises(RepositoryError, match="replicas"):
            repo.put(make_plain_entry())

    def test_reads_pass_through(self):
        repo, _backend, _log, _shipped = self._repo()
        repo.put(make_plain_entry(username="alice"))
        repo.put(make_plain_entry(username="bob"))
        assert repo.count() == 2
        assert repo.usernames() == ["alice", "bob"]
        assert [e.username for e in repo.list_for("bob")] == ["bob"]
        assert repo.get("alice", "default").username == "alice"

    def test_no_shipper_means_standalone(self):
        backend = MemoryRepository()
        repo = ReplicatingRepository(backend, ReplicationLog("node0", SECRET))
        repo.put(make_plain_entry())
        assert backend.count() == 1


class TestShipOrder:
    """Two writers on one origin: ops must leave in sequence order.

    A replica skips any sequence number at or below its apply watermark,
    so if seq n+1 overtook seq n in flight, seq n would be dropped as
    already seen — its client refused, the primary alone holding the
    write even after resync.  The shipper below holds seq 1 in flight
    until seq 2 has shipped (or a grace period shows it cannot).
    """

    def test_concurrent_writers_on_one_origin_ship_in_order(self, cluster_factory):
        import threading

        cluster = cluster_factory(3)
        # Two users with the same primary and the same replica.
        replica_set = cluster.preference("alice")
        origin = replica_set[0]
        users = [u for u in (f"user{i}" for i in range(200))
                 if cluster.preference(u) == replica_set][:2]
        real_ship = origin.repository.shipper
        first_in_flight = threading.Event()
        second_shipped = threading.Event()

        def shipper(op):
            if op.seq == 1:
                first_in_flight.set()
                second_shipped.wait(timeout=1.0)
            real_ship(op)
            if op.seq == 2:
                second_shipped.set()

        origin.repository.shipper = shipper
        errors = []

        def write(username):
            try:
                origin.repository.put(make_plain_entry(username, "default"))
            except RepositoryError as exc:
                errors.append(exc)

        first = threading.Thread(target=write, args=(users[0],))
        first.start()
        assert first_in_flight.wait(timeout=5.0)
        second = threading.Thread(target=write, args=(users[1],))
        second.start()
        first.join(timeout=10.0)
        second.join(timeout=10.0)

        assert errors == []  # no write refused
        cluster.auto_resync()
        for username in users:
            holders = [
                node.name for node in cluster.preference(username)
                if node.backend.count() and username in node.backend.usernames()
            ]
            assert holders == [n.name for n in cluster.preference(username)]
