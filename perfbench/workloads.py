"""The generator side: who the clients are and what one operation does.

:class:`ClusterTarget` gives the ``repro.loadgen`` scenarios the target
surface they expect (``new_user``, ``new_service_credential``,
``client_for``, ``key_source``, ``clock``), backed by a
``FailoverMyProxyClient`` over the cluster's TCP endpoints.  Every
delegation a client receives is remembered per thread, so each workload
can check the proxy that came back.

Workloads (rates are fixed here, never derived from the code measured):

``login``  Figure 2 GET by pass phrase: one portal host credential
           fetches a 2 h proxy for one of 16 users (the
           ``PortalLoginScenario`` op), constant 5/s.
``churn``  Figure 1 writes over 16 users, a seeded mix of 50%
           ``myproxy-init`` PUT, 30% DESTROY of a name this run stored
           and 20% INFO, constant 40/s.  Every INFO is checked against
           the generator's model of what is stored.
``writes`` ``churn``'s mix and two writers, but no two writes on one
           origin at once, constant 20/s: the storage and replication
           path without the replication-order defect, so no operation
           fails by timing.
``storm``  §6.6 renewal by possession: 32 agents each renew with their
           current proxy (the ``RenewalStormScenario`` op), ``storm``
           shape at a mean 2/s: 20 arrivals in the first 2 s of every
           10 s.
"""

from __future__ import annotations

import itertools
import queue
import random
import threading
import time
from collections import deque

from repro.cluster import FailoverMyProxyClient
from repro.cluster.failover import ClusterRouter
from repro.core.client import RetryPolicy, myproxy_init_from_longterm
from repro.loadgen.scenarios import PortalLoginScenario, RenewalStormScenario, Scenario
from repro.pki.names import DistinguishedName
from repro.testbed import UserAccount
from repro.util.clock import SYSTEM_CLOCK
from repro.util.errors import ReproError

#: Failover over transport errors only: a busy reply or a refusal is
#: scored, never retried away.
CLIENT_RETRY = RetryPolicy(rounds=4, base_delay=0.05, max_delay=1.0, busy_retries=0)

#: Slack on "no longer-lived than requested" for clock reads on both sides.
LIFETIME_SLACK_S = 5.0

#: Draws per seeded sequence (op mix, user choice); indices wrap around.
SEQUENCE_LEN = 1 << 16


class WrongResult(ReproError):
    """The program answered, but not with what the workload asked for."""


class ClusterTarget:
    """The loadgen target surface over a cluster in another process."""

    def __init__(self, endpoints, replication_factor, ca, validator, key_source):
        self.endpoints = {name: tuple(ep) for name, ep in endpoints.items()}
        self.router = ClusterRouter(sorted(self.endpoints), replication_factor)
        self.ca = ca
        self.validator = validator
        self.key_source = key_source
        self.clock = SYSTEM_CLOCK
        self.dn_of: dict[str, DistinguishedName] = {}
        self._clients: dict[int, "_RecordingClient"] = {}
        self._issued = threading.local()

    def new_user(self, name: str) -> UserAccount:
        dn = DistinguishedName.grid_user("Grid", "Bench", name.capitalize())
        credential = self.ca.issue_credential(dn, key=self.key_source.new_key())
        self.dn_of[name] = dn
        self._clients[id(credential)] = self._client(credential)
        return UserAccount(name=name, local_user=name, dn=dn, credential=credential)

    def new_service_credential(self, host: str):
        credential = self.ca.issue_host_credential(host, key=self.key_source.new_key())
        self._clients[id(credential)] = self._client(credential)
        return credential

    def client_for(self, credential) -> "_RecordingClient":
        """The long-lived client of a registered identity, else a fresh one.

        Registered users and portals keep one cluster client (and so one
        set of circuit breakers) for the whole run; a renewal agent's
        proxy changes every operation and dials with a new client.
        """
        return self._clients.get(id(credential)) or self._client(credential)

    def _client(self, credential) -> "_RecordingClient":
        return _RecordingClient(
            FailoverMyProxyClient(
                self.endpoints,
                self.router,
                credential,
                self.validator,
                retry=CLIENT_RETRY,
                key_source=self.key_source,
            ),
            self,
        )

    def take_issued(self):
        """The last delegation this thread received: (username, lifetime, credential)."""
        issued = getattr(self._issued, "last", None)
        self._issued.last = None
        return issued


class _RecordingClient:
    """A cluster client that remembers each delegation it receives."""

    def __init__(self, client: FailoverMyProxyClient, target: ClusterTarget) -> None:
        self._client = client
        self._target = target

    def get_delegation(self, *, username: str, lifetime: float, **kwargs):
        credential = self._client.get_delegation(
            username=username, lifetime=lifetime, **kwargs
        )
        self._target._issued.last = (username, lifetime, credential)
        return credential

    def __getattr__(self, name):
        return getattr(self._client, name)


def check_issued(target: ClusterTarget) -> None:
    """The proxy names the user's DN and lives no longer than requested."""
    issued = target.take_issued()
    if issued is None:
        raise WrongResult("operation returned without a delegation")
    username, lifetime, credential = issued
    base = credential.certificate.subject.base_identity()
    if base != target.dn_of[username]:
        raise WrongResult(f"proxy for {username} names {base}")
    if credential.certificate.not_after > time.time() + lifetime + LIFETIME_SLACK_S:
        raise WrongResult(f"proxy for {username} outlives the {lifetime:.0f} s asked for")


class Workload:
    """What every workload answers besides its operation."""

    def passphrase(self, username: str) -> str:
        return Scenario._passphrase(username)

    def passphrases(self) -> set[str]:
        """Every pass phrase the run stored, for the at-rest guard."""
        return {self.passphrase(name) for name in self.target.dn_of}

    def is_write(self, index: int) -> bool:
        return False

    def timed(self, index: int) -> bool:
        """Whether operation ``index`` counts in the latency percentiles."""
        return True

    def final_check(self) -> list[str]:
        """Disagreements between the store and the generator's model."""
        return []


class Login(Workload):
    """Figure 2: the portal GETs a 2 h proxy for one of 16 users."""

    name = "login"
    #: About half the two-connection peak in the slowest minutes of the
    #: host this was written on (9-10/s); nearer the peak, open-loop
    #: latency follows every stall of a shared host (see README.md).
    rate = 5.0
    shape = "constant"
    users = 16

    def __init__(self, target: ClusterTarget, seed: int) -> None:
        self.target = target
        self.scenario = PortalLoginScenario(target, users=self.users, seed=seed)
        rng = random.Random(seed)
        self._user_of = [rng.randrange(self.users) for _ in range(SEQUENCE_LEN)]

    def setup(self) -> None:
        self.scenario.setup()

    def operation(self, index: int) -> None:
        try:
            self.scenario.operation(self._user_of[index % SEQUENCE_LEN])
        except ReproError as exc:
            if type(exc) is ReproError:  # the scenario's own mis-issue check
                raise WrongResult(str(exc)) from exc
            raise
        check_issued(self.target)


class Storm(Workload):
    """§6.6: 32 agents renew by possession of their current proxy."""

    name = "storm"
    rate = 2.0
    shape = "storm"
    users = 8
    agents = 32

    def __init__(self, target: ClusterTarget, seed: int) -> None:
        self.target = target
        self.scenario = RenewalStormScenario(
            target, users=self.users, seed=seed, agents=self.agents
        )

    def setup(self) -> None:
        self.scenario.setup()
        self.target.take_issued()

    def operation(self, index: int) -> None:
        self.scenario.operation(index)
        check_issued(self.target)


class Churn(Workload):
    """Figure 1 writes: seeded PUT / DESTROY / INFO over 16 users.

    The generator keeps a model of every name it stored.  A name whose
    PUT was acknowledged must show in INFO, one whose DESTROY was
    acknowledged must not, and one with a failed or in-flight operation
    may do either.  Each operation bumps its name's version when it
    starts, so an INFO only judges names no operation touched while the
    INFO ran.
    """

    name = "churn"
    #: About 40% of the two-connection peak in the slowest minutes seen
    #: (75-80/s); still enough overlap between the two writers that the
    #: replication-order defect shows in every run (see README.md).
    rate = 40.0
    shape = "constant"
    users = 16
    MIX = (("put", 0.5), ("destroy", 0.3), ("info", 0.2))
    #: Every user holds this entry from set-up on, so INFO always has rows.
    BASE = "base"

    def __init__(self, target: ClusterTarget, seed: int) -> None:
        self.target = target
        rng = random.Random(seed)
        kinds, weights = zip(*self.MIX)
        self._kind = rng.choices(kinds, weights=weights, k=SEQUENCE_LEN)
        self._user_of = [rng.randrange(self.users) for _ in range(SEQUENCE_LEN)]
        self._lock = threading.Lock()
        #: (user, name) -> "present" | "absent" | "unknown"
        self._state: dict[tuple[str, str], str] = {}
        self._version: dict[tuple[str, str], int] = {}
        #: acknowledged, not yet destroyed names per user, oldest first
        self._stored: dict[str, deque[str]] = {}
        self.mismatches: list[str] = []

    def is_write(self, index: int) -> bool:
        return self._kind[index % SEQUENCE_LEN] != "info"

    def timed(self, index: int) -> bool:
        """Latency percentiles are over the PUTs (see README.md)."""
        return self._kind[index % SEQUENCE_LEN] == "put"

    def setup(self) -> None:
        self._accounts = [self.target.new_user(f"churn{i:03d}") for i in range(self.users)]
        self._register_base()

    def _register_base(self) -> None:
        for account in self._accounts:
            self._put(account, self.BASE)
            self._stored[account.name] = deque()
            self._state[(account.name, self.BASE)] = "present"

    def _put(self, account: UserAccount, cred_name: str) -> None:
        myproxy_init_from_longterm(
            self.target.client_for(account.credential),
            account.credential,
            username=account.name,
            passphrase=self.passphrase(account.name),
            key_source=self.target.key_source,
            cred_name=cred_name,
        )

    def _begin(self, key: tuple[str, str]) -> None:
        with self._lock:
            self._version[key] = self._version.get(key, 0) + 1
            self._state[key] = "unknown"

    def _end(self, key: tuple[str, str], state: str) -> None:
        with self._lock:
            self._state[key] = state
            if state == "present":
                self._stored[key[0]].append(key[1])

    def operation(self, index: int) -> None:
        self._run(index, self._accounts[self._user_of[index % SEQUENCE_LEN]])

    def _run(self, index: int, account: UserAccount) -> None:
        user = account.name
        kind = self._kind[index % SEQUENCE_LEN]
        client = self.target.client_for(account.credential)
        if kind == "destroy":
            with self._lock:
                pending = self._stored[user]
                cred_name = pending.popleft() if pending else None
            if cred_name is None:
                kind = "put"  # nothing acknowledged to destroy yet
            else:
                key = (user, cred_name)
                self._begin(key)
                client.destroy(username=user, cred_name=cred_name)
                self._end(key, "absent")
                return
        if kind == "put":
            key = (user, f"c{index}")
            self._begin(key)
            self._put(account, key[1])
            self._end(key, "present")
            return
        self._info(client, user)

    def _info(self, client, user: str) -> None:
        with self._lock:
            before = {
                key: (state, self._version.get(key, 0))
                for key, state in self._state.items()
                if key[0] == user and state != "unknown"
            }
        shown = {row.cred_name for row in client.info(username=user)}
        with self._lock:
            for key, (state, version) in before.items():
                if self._version.get(key, 0) != version:
                    continue  # touched while the INFO ran: either answer is right
                if (key[1] in shown) != (state == "present"):
                    self.mismatches.append(f"INFO {user}: {key[1]} should be {state}")
                    raise WrongResult(self.mismatches[-1])

    def final_check(self) -> list[str]:
        """INFO every user once more, after the run, against the model."""
        for account in self._accounts:
            try:
                self._info(self.target.client_for(account.credential), account.name)
            except WrongResult:
                pass  # recorded in self.mismatches
        return list(self.mismatches)


class Writes(Churn):
    """``churn``'s mix with no two writes on one origin at the same time.

    At most two operations run at once (two virtual users, two closed-loop
    connections).  Each holds one of two slots while it runs; a slot
    stands for one primary node and owns the eight users whose primary
    that node is.  The seeded sequence picks the user's rank, the free
    slot picks the node.  Two writes then always ship from different
    origins, so the replication-order defect ``churn`` exposes (two
    writers shipping out of order from one origin) cannot fire, and an
    operation fails only through a fault that does not depend on timing.
    Mix and concurrency are ``churn``'s.
    """

    name = "writes"
    #: Half of ``churn``'s: at 40/s two writers still queue behind each
    #: other often enough that the median follows every slow minute of a
    #: shared host more than proportionally (see README.md).
    rate = 20.0
    #: Primary nodes, one per slot: as many as operations run at once.
    origins = ("node0", "node1")
    per_origin = Churn.users // 2

    def setup(self) -> None:
        by_origin: dict[str, list[str]] = {origin: [] for origin in self.origins}
        for i in itertools.count():
            name = f"churn{i:03d}"
            chosen = by_origin.get(self.target.router.preference(name)[0])
            if chosen is not None and len(chosen) < self.per_origin:
                chosen.append(name)
            if all(len(names) == self.per_origin for names in by_origin.values()):
                break
        self._accounts = []
        self._by_slot = []
        for origin in self.origins:
            accounts = [self.target.new_user(name) for name in by_origin[origin]]
            self._by_slot.append(accounts)
            self._accounts.extend(accounts)
        self._slots: queue.SimpleQueue[int] = queue.SimpleQueue()
        for slot in range(len(self.origins)):
            self._slots.put(slot)
        self._register_base()

    def operation(self, index: int) -> None:
        slot = self._slots.get_nowait()
        try:
            rank = self._user_of[index % SEQUENCE_LEN] % self.per_origin
            self._run(index, self._by_slot[slot][rank])
        finally:
            self._slots.put(slot)


WORKLOADS = {cls.name: cls for cls in (Login, Churn, Writes, Storm)}
