"""Repository administration (the ``myproxy-admin-*`` tools of the original
distribution).

Administration is an *on-host* activity: the operator of the tightly
secured repository machine (§5.1 — "comparable to a Kerberos Domain
Controller") inspects and grooms the credential store directly, without
going through the network protocol or anyone's pass phrase.  Nothing here
can decrypt a stored key; admins see metadata only.

- :class:`RepositoryAdmin` — query and purge operations over any backend;
- :class:`MaintenanceAgent` — the periodic groomer a deployment runs:
  purge expired entries (credentials that died of old age per §4.3 should
  not linger on disk) and surface soon-to-expire ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.repository import CredentialRepository, RepositoryEntry
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.concurrency import ServiceThread
from repro.util.logging import get_logger

logger = get_logger("core.admin")


@dataclass(frozen=True)
class EntrySummary:
    """What an administrator sees about one stored credential."""

    username: str
    cred_name: str
    owner_dn: str
    auth_method: str
    long_term: bool
    renewable: bool
    created_at: float
    not_after: float
    seconds_remaining: float

    @property
    def expired(self) -> bool:
        return self.seconds_remaining <= 0

    @classmethod
    def of(cls, entry: RepositoryEntry, now: float) -> EntrySummary:
        return cls(
            username=entry.username,
            cred_name=entry.cred_name,
            owner_dn=entry.owner_dn,
            auth_method=entry.auth_method,
            long_term=entry.long_term,
            renewable=entry.renewers is not None,
            created_at=entry.created_at,
            not_after=entry.not_after,
            seconds_remaining=entry.not_after - now,
        )


class RepositoryAdmin:
    """Metadata-level administration over a repository backend."""

    def __init__(
        self, repository: CredentialRepository, *, clock: Clock = SYSTEM_CLOCK
    ) -> None:
        self.repository = repository
        self.clock = clock

    # -- queries ------------------------------------------------------------

    def list_all(self) -> list[EntrySummary]:
        now = self.clock.now()
        rows: list[EntrySummary] = []
        for username in self.repository.usernames():
            for entry in self.repository.list_for(username):
                rows.append(EntrySummary.of(entry, now))
        return sorted(rows, key=lambda r: (r.username, r.cred_name))

    def list_expired(self, grace: float = 0.0) -> list[EntrySummary]:
        """Entries whose credential died more than ``grace`` seconds ago."""
        cutoff = self.clock.now() - grace
        return [r for r in self.list_all() if r.not_after <= cutoff]

    def list_expiring_within(self, horizon: float) -> list[EntrySummary]:
        return [
            r
            for r in self.list_all()
            if 0 < r.seconds_remaining <= horizon
        ]

    def stats(self) -> dict:
        rows = self.list_all()
        return {
            "entries": len(rows),
            "users": len({r.username for r in rows}),
            "expired": sum(1 for r in rows if r.expired),
            "long_term": sum(1 for r in rows if r.long_term),
            "renewable": sum(1 for r in rows if r.renewable),
            "by_auth_method": {
                method: sum(1 for r in rows if r.auth_method == method)
                for method in sorted({r.auth_method for r in rows})
            },
        }

    # -- mutations ------------------------------------------------------------

    def purge_expired(self, grace: float = 0.0) -> list[EntrySummary]:
        """Delete (zeroizing, via the backend) every expired entry.

        Long-term entries are exempt unless *they themselves* expired —
        which the same rule covers, since their ``not_after`` is the EEC's.
        Returns what was removed.
        """
        removed = []
        for row in self.list_expired(grace):
            if self.repository.delete(row.username, row.cred_name):
                removed.append(row)
                logger.info(
                    "purged expired credential %s/%s (dead %.0fs)",
                    row.username, row.cred_name, -row.seconds_remaining,
                )
        return removed

    def remove_user(self, username: str) -> int:
        """Delete every credential stored under a user identity."""
        count = 0
        for entry in self.repository.list_for(username):
            if self.repository.delete(entry.username, entry.cred_name):
                count += 1
        return count


class MaintenanceAgent:
    """Periodic repository grooming for a running deployment."""

    def __init__(
        self,
        admin: RepositoryAdmin,
        *,
        purge_grace: float = 3600.0,
        poll_interval: float = 600.0,
    ) -> None:
        self.admin = admin
        self.purge_grace = purge_grace
        self.poll_interval = poll_interval
        self.purged_total = 0
        self._thread: ServiceThread | None = None

    def run_once(self) -> int:
        """One grooming pass; returns how many entries were purged."""
        removed = self.admin.purge_expired(self.purge_grace)
        self.purged_total += len(removed)
        return len(removed)

    def start(self) -> None:
        def _loop(stop_event: threading.Event) -> None:
            while not stop_event.wait(self.poll_interval):
                try:
                    self.run_once()
                except Exception:  # noqa: BLE001 - grooming must not die
                    logger.exception("maintenance pass failed")

        self._thread = ServiceThread(_loop, "myproxy-maintenance")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
