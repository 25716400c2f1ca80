"""Repository storage: verifiers, sealing, both backends.

``file`` is the durable on-disk backend, the segment store; ``memory``
is the in-process reference it must agree with.
"""

import base64

import pytest

from repro.core.repository import (
    MemoryRepository,
    RepositoryEntry,
    SecretBox,
    check_passphrase,
    make_passphrase_verifier,
)
from repro.core.segments import SegmentRepository
from repro.util.errors import AuthenticationError, NotFoundError, RepositoryError


def entry(username="alice", cred_name="default", **overrides) -> RepositoryEntry:
    defaults = dict(
        username=username,
        cred_name=cred_name,
        owner_dn="/O=Grid/OU=Repro/CN=Alice",
        certificate_pem=b"-----BEGIN CERTIFICATE-----\nfake\n-----END CERTIFICATE-----\n",
        key_pem=b"sealed-bytes",
        key_encryption="passphrase",
        verifier=make_passphrase_verifier("correct horse 42", 1000),
        max_get_lifetime=7200.0,
        retrievers=None,
        created_at=1000.0,
        not_after=2000.0,
        long_term=False,
    )
    defaults.update(overrides)
    return RepositoryEntry(**defaults)


class TestVerifiers:
    def test_correct_passphrase_accepted(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert check_passphrase(v, "open sesame")

    def test_wrong_passphrase_rejected(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert not check_passphrase(v, "open sesame!")

    def test_verifier_is_salted(self):
        a = make_passphrase_verifier("same phrase", 1000)
        b = make_passphrase_verifier("same phrase", 1000)
        assert a["hash"] != b["hash"]  # different salts, different digests

    def test_verifier_does_not_contain_passphrase(self):
        v = make_passphrase_verifier("open sesame", 1000)
        assert "open sesame" not in str(v)

    def test_corrupt_verifier_rejects(self):
        assert not check_passphrase({"salt": "zz", "hash": "zz"}, "anything")


class TestSecretBox:
    def test_roundtrip(self):
        box = SecretBox()
        assert box.open(box.seal(b"private key pem")) == b"private key pem"

    def test_different_boxes_cannot_open(self):
        blob = SecretBox().seal(b"data")
        with pytest.raises(AuthenticationError):
            SecretBox().open(blob)

    def test_tamper_detected(self):
        box = SecretBox()
        blob = bytearray(box.seal(b"data"))
        blob[-1] ^= 1
        with pytest.raises(AuthenticationError):
            box.open(bytes(blob))

    def test_bad_key_size_rejected(self):
        with pytest.raises(RepositoryError):
            SecretBox(b"short")


@pytest.fixture(params=["memory", "file"])
def repo(request, tmp_path):
    if request.param == "memory":
        yield MemoryRepository()
        return
    store = SegmentRepository(tmp_path / "store")
    yield store
    store.close()


class TestBackends:
    def test_put_get(self, repo):
        repo.put(entry())
        fetched = repo.get("alice", "default")
        assert fetched.username == "alice"
        assert check_passphrase(fetched.verifier, "correct horse 42")

    def test_get_missing_raises(self, repo):
        with pytest.raises(NotFoundError):
            repo.get("nobody", "default")

    def test_put_replaces(self, repo):
        repo.put(entry(not_after=2000.0))
        repo.put(entry(not_after=3000.0))
        assert repo.get("alice", "default").not_after == 3000.0
        assert repo.count() == 1

    def test_delete(self, repo):
        repo.put(entry())
        assert repo.delete("alice", "default") is True
        assert repo.delete("alice", "default") is False
        with pytest.raises(NotFoundError):
            repo.get("alice", "default")

    def test_multiple_credentials_per_user(self, repo):
        repo.put(entry(cred_name="default"))
        repo.put(entry(cred_name="wallet-1"))
        names = [e.cred_name for e in repo.list_for("alice")]
        assert names == ["default", "wallet-1"] or sorted(names) == ["default", "wallet-1"]

    def test_usernames(self, repo):
        repo.put(entry(username="alice"))
        repo.put(entry(username="bob", owner_dn="/O=Grid/OU=Repro/CN=Bob"))
        assert repo.usernames() == ["alice", "bob"]

    def test_entry_fields_roundtrip(self, repo):
        original = entry(
            retrievers=("/O=Grid/CN=host/portal.*",),
            long_term=True,
            key_encryption="server-key",
            key_pem=bytes(range(64)),
        )
        repo.put(original)
        assert repo.get("alice", "default") == original

    def test_hostile_usernames_safe(self, repo):
        """Path-traversal-shaped names must not escape the store."""
        weird = entry(username="../../etc/passwd", cred_name="x/../y")
        repo.put(weird)
        assert repo.get("../../etc/passwd", "x/../y") == weird


class TestKeyAliasing:
    def test_nul_in_username_cannot_alias_another_users_entry(self, tmp_path):
        root = tmp_path / "store"
        repo = SegmentRepository(root)
        repo.put(entry(username="alice", cred_name="x\x00y", key_pem=b"alice's"))
        # Same key token as alice's entry if NUL were allowed in user names.
        with pytest.raises(RepositoryError, match="NUL"):
            repo.put(entry(username="alice\x00x", cred_name="y", key_pem=b"forged"))
        repo.close()
        reopened = SegmentRepository(root)
        assert reopened.get("alice", "x\x00y").key_pem == b"alice's"
        assert reopened.usernames() == ["alice"]
        reopened.close()


class TestFileBackend:
    def test_survives_reopen(self, tmp_path):
        root = tmp_path / "store"
        first = SegmentRepository(root)
        first.put(entry())
        first.close()
        reopened = SegmentRepository(root)
        assert reopened.get("alice", "default").username == "alice"
        reopened.close()

    def test_file_modes(self, tmp_path):
        root = tmp_path / "store"
        repo = SegmentRepository(root)
        repo.put(entry())
        assert (root.stat().st_mode & 0o777) == 0o700
        (segment,) = root.glob("seg-*.mps")
        assert (segment.stat().st_mode & 0o777) == 0o600
        repo.close()

    def test_delete_zeroizes(self, tmp_path):
        root = tmp_path / "store"
        repo = SegmentRepository(root)
        repo.put(entry(key_pem=b"sealed-bytes-to-destroy"))
        repo.delete("alice", "default")
        repo.compact()
        stored = b"".join(p.read_bytes() for p in root.rglob("*") if p.is_file())
        assert base64.b64encode(b"sealed-bytes-to-destroy") not in stored
        repo.close()

    def test_corrupt_entry_reported(self, tmp_path):
        root = tmp_path / "store"
        repo = SegmentRepository(root, cache_entries=0)
        repo.put(entry())
        (segment,) = root.glob("seg-*.mps")
        data = segment.read_bytes()
        record = data.index(b"%MPF1", data.index(b"\n"))
        segment.write_bytes(data[:record] + b"{broken json" + data[record + 12:])
        with pytest.raises(RepositoryError):
            repo.get("alice", "default")
        repo.close()

    def test_orphan_tempfile_cleaned_on_open(self, tmp_path):
        """Crash recovery: a compaction that died before journaling its
        output leaves a ``seg-*.mps.tmp`` orphan (a partial copy of live
        records, encrypted keys included) that the next open must remove."""
        root = tmp_path / "store"
        first = SegmentRepository(root)
        first.put(entry())
        first.close()
        orphan = root / "seg-00000001.c1.mps.tmp"
        orphan.write_bytes(b"%MPS1 v1 id=1 gen=1 covers=0-1\nhalf-written")
        reopened = SegmentRepository(root)
        assert not orphan.exists()
        # committed entries are untouched and temp junk never shows up in reads
        assert reopened.get("alice", "default").username == "alice"
        assert reopened.count() == 1
        reopened.close()
