"""Host-compromise scenarios (§5.1).

Two compromises the paper analyses:

- **repository host** — "even if the repository host is compromised, an
  intruder would still need to decrypt the keys individually or wait until
  a portal connects".  :func:`loot_repository` plays that intruder: it
  reads every entry in the store, attempts to load each private key with
  no pass phrase, then runs a dictionary attack.
- **portal host** — "this risk is minimized by the fact the MyProxy server
  requires the user authentication information in addition to the
  authentication of the portal.  This requires that the intruder wait for
  the user to connect."  :func:`loot_portal` snapshots exactly what an
  intruder on the portal box holds at any instant: the portal's own
  (unencrypted, §5.2) credential and whatever user proxies are currently
  delegated — each with its remaining lifetime, which bounds the damage.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.repository import CredentialRepository, RepositoryEntry, check_passphrase
from repro.pki.credentials import Credential
from repro.pki.keys import KeyPair
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import CredentialError


@dataclass
class CrackedEntry:
    """One stored credential the intruder fully recovered."""

    username: str
    cred_name: str
    passphrase: str
    key: KeyPair


@dataclass
class RepositoryLoot:
    """What an intruder extracted from a stolen repository store."""

    entries_seen: int = 0
    certificates_read: int = 0  # public material — always readable
    keys_without_passphrase: int = 0  # must stay 0 for passphrase entries
    cracked: list[CrackedEntry] = field(default_factory=list)
    server_sealed_entries: int = 0  # OTP/site entries (need the master key)

    @property
    def private_keys_recovered(self) -> int:
        return self.keys_without_passphrase + len(self.cracked)


def loot_repository(
    repository: CredentialRepository,
    *,
    dictionary: Iterable[str] = (),
) -> RepositoryLoot:
    """Raid a repository's storage the way an intruder with disk access would.

    ``dictionary`` is the intruder's guess list for the offline attack —
    the reproduction of why the server's §4.1 pass-phrase policy
    (length + dictionary checks) matters.
    """
    loot = RepositoryLoot()
    guesses = list(dictionary)
    for username in repository.usernames():
        for entry in repository.list_for(username):
            loot.entries_seen += 1
            loot.certificates_read += 1  # cert PEM is not encrypted
            if entry.key_encryption != "passphrase":
                loot.server_sealed_entries += 1
                continue
            if _try_key(entry, None) is not None:
                loot.keys_without_passphrase += 1
                continue
            for guess in guesses:
                key = _try_key(entry, guess)
                if key is not None:
                    loot.cracked.append(
                        CrackedEntry(
                            username=entry.username,
                            cred_name=entry.cred_name,
                            passphrase=guess,
                            key=key,
                        )
                    )
                    break
    return loot


def _try_key(entry: RepositoryEntry, passphrase: str | None) -> KeyPair | None:
    # The intruder can use the verifier as a fast oracle for guesses, just
    # like john-the-ripper would — so a guessable pass phrase falls even
    # without touching the key PEM.
    if passphrase is not None and not check_passphrase(entry.verifier, passphrase):
        return None
    try:
        if entry.long_term:
            return Credential.import_pem(entry.key_pem, passphrase).key
        return KeyPair.from_pem(entry.key_pem, passphrase)
    except CredentialError:
        return None


@dataclass
class HeldProxy:
    """One delegated user proxy found on a compromised portal."""

    session_id: str
    identity: str
    seconds_remaining: float
    credential: Credential


@dataclass
class PortalLoot:
    """What an intruder on the portal host holds at one instant."""

    portal_credential: Credential  # unencrypted by design (§5.2)
    user_proxies: list[HeldProxy] = field(default_factory=list)

    @property
    def usable_user_proxies(self) -> list[HeldProxy]:
        return [p for p in self.user_proxies if p.seconds_remaining > 0]


def loot_portal(portal, *, clock: Clock = SYSTEM_CLOCK) -> PortalLoot:
    """Snapshot a portal's credential holdings, as an intruder would."""
    proxies = [
        HeldProxy(
            session_id=session_id,
            identity=str(credential.identity),
            seconds_remaining=credential.seconds_remaining(clock),
            credential=credential,
        )
        for session_id, (_repo, credential) in portal.held_credentials().items()
    ]
    return PortalLoot(portal_credential=portal.credential, user_proxies=proxies)
