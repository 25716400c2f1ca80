"""S1 (§5.1): compromise of the repository host.

"To minimize this risk, the repository encrypts the credentials that it
holds with the pass phrase provided by the user.  Because of this, even if
the repository host is compromised, an intruder would still need to decrypt
the keys individually or wait until a portal connects."
"""

import base64

import pytest

from repro.attacks.compromise import loot_repository
from repro.cli import myproxy_admin
from repro.core.segments import SegmentRepository
from repro.core.protocol import AuthMethod
from repro.core.otp import OTPGenerator
from repro.pki.proxy import create_proxy

STRONG = "xkcd staple battery 9"


@pytest.fixture()
def raided(tb, key_pool, clock):
    alice = tb.new_user("alice")
    tb.myproxy_init(alice, passphrase=STRONG)
    return tb


class TestEncryptedAtRest:
    def test_no_key_recoverable_without_passphrase(self, raided):
        loot = loot_repository(raided.myproxy.repository)
        assert loot.entries_seen == 1
        assert loot.keys_without_passphrase == 0
        assert loot.cracked == []

    def test_certificates_are_readable(self, raided):
        """Public material is not secret — only the keys matter."""
        loot = loot_repository(raided.myproxy.repository)
        assert loot.certificates_read == 1

    def test_dictionary_attack_fails_against_strong_phrase(self, raided):
        common = ["password", "letmein", "grid", "myproxy", "123456", "qwerty"]
        loot = loot_repository(raided.myproxy.repository, dictionary=common)
        assert loot.private_keys_recovered == 0

    def test_dictionary_attack_succeeds_against_weak_phrase(self, tb_factory, key_pool, clock):
        """The ablation: *without* the §4.1 policy, weak phrases fall."""
        from repro.core.policy import PassphrasePolicy, ServerPolicy

        lax = tb_factory(
            myproxy_policy=ServerPolicy(
                passphrase_policy=PassphrasePolicy(min_length=1, dictionary=frozenset())
            )
        )
        victim = lax.new_user("victim")
        lax.myproxy_init(victim, passphrase="dragon")
        loot = loot_repository(
            lax.myproxy.repository, dictionary=["123456", "dragon", "monkey"]
        )
        assert len(loot.cracked) == 1
        assert loot.cracked[0].passphrase == "dragon"

    def test_policy_blocks_the_crackable_phrase_upfront(self, tb):
        """With the default policy, the weak phrase never gets stored."""
        from repro.util.errors import AuthenticationError

        victim = tb.new_user("victim")
        with pytest.raises(AuthenticationError):
            tb.myproxy_init(victim, passphrase="dragon")

    def test_stolen_spool_and_expiry(self, raided, clock):
        """'the required delay allows credentials to expire': even a
        successful offline crack is bounded by the one-week lifetime."""
        entry = raided.myproxy.repository.get("alice", "default")
        clock.advance(8 * 86400)
        assert entry.not_after < clock.now()

    def test_otp_entries_sealed_with_server_key(self, tb, key_pool, clock):
        """The documented §6.3 trade-off: OTP entries are server-sealed —
        safe against spool theft, not against a fully compromised server."""
        user = tb.new_user("otpuser")
        gen = OTPGenerator("s", "x", count=5)
        proxy = create_proxy(user.credential, lifetime=7 * 86400,
                             key_source=key_pool, clock=clock)
        tb.myproxy_client(user.credential).put(
            proxy, username="otpuser", auth_method=AuthMethod.OTP, otp=gen,
            lifetime=7 * 86400,
        )
        loot = loot_repository(tb.myproxy.repository)
        assert loot.server_sealed_entries == 1
        assert loot.private_keys_recovered == 0


class TestDestroyedKeyRetention:
    """DESIGN §5: a destroyed credential's (still pass-phrase-encrypted)
    key stays on disk only until compaction zeroizes its segment."""

    def test_no_key_byte_survives_destroy_and_compaction(self, raided, tmp_path):
        from tests.cluster.conftest import make_plain_entry

        entry = raided.myproxy.repository.get("alice", "default")
        assert b"ENCRYPTED" in entry.key_pem
        root = tmp_path / "store"
        store = SegmentRepository(root)
        store.put(entry)
        store.put(make_plain_entry("bob", "kept", key_pem=b"bob-ciphertext"))
        store.delete("alice", "default")

        def on_disk() -> bytes:
            return b"".join(p.read_bytes() for p in root.rglob("*") if p.is_file())

        encoded = base64.b64encode(entry.key_pem)
        # The retention window: the dead record is still on disk, encrypted.
        assert encoded in on_disk()
        store.close()

        assert myproxy_admin.main(["--storage-dir", str(root), "compact"]) == 0
        blob = on_disk()
        assert entry.key_pem not in blob
        assert not any(
            encoded[i:i + 48] in blob for i in range(0, len(encoded) - 48, 16)
        )
        reopened = SegmentRepository(root)
        try:
            assert reopened.get("bob", "kept").key_pem == b"bob-ciphertext"
            assert reopened.count() == 1
        finally:
            reopened.close()
