"""The fault injector and its filesystem shim.

Storage and cluster code is threaded with *named sites* — the places a
disk or a peer or the process itself can fail.  Each component holds a
:class:`FaultInjector` (by default the process-wide one from
:func:`active`, a no-op unless ``REPRO_FAULTS`` is set) and calls:

- ``injector.fire(site)`` at control points (may raise, delay, or kill);
- ``ShimFile`` for segment/journal writes, which routes every ``write`` and
  ``fsync`` through the injector so torn writes, short writes and lost
  fsyncs land as real bytes-on-disk states.

The shim also gives kill points teeth: it tracks how much of each file
has actually been fsynced, and a simulated crash (:class:`~repro.faults.
plan.KillPoint`) truncates every tracked file back to its last synced
length — the deterministic worst case of losing the page cache.  With
``hard_kill`` (the env-driven mode used on real subprocesses) a kill site
delivers an actual ``SIGKILL`` instead, so written-but-unsynced data
survives exactly as the kernel would keep it.

Kill sites register themselves in a module-level registry so the chaos
suite can enumerate **every** kill point and prove recovery at each one.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from random import Random

from repro.faults.plan import (
    CONN_RESET,
    DELAY,
    KILL,
    LOST_FSYNC,
    PARTITION,
    SHORT_WRITE,
    TORN_WRITE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    KillPoint,
)
from repro.util.errors import TransportError

__all__ = [
    "NO_FAULTS",
    "FaultInjector",
    "ShimFile",
    "active",
    "kill_point",
    "kill_points",
    "reset_active",
]

# ---------------------------------------------------------------------------
# kill-point registry
# ---------------------------------------------------------------------------

_KILL_POINTS: dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()


def kill_point(name: str, description: str = "") -> str:
    """Register (idempotently) a named kill site and return its name.

    Modules declare their sites with this at import time, so the chaos
    suite can parametrize over every registered point.
    """
    with _REGISTRY_LOCK:
        _KILL_POINTS.setdefault(name, description)
    return name


def kill_points(prefix: str = "") -> list[str]:
    """Every registered kill site (optionally filtered by name prefix)."""
    with _REGISTRY_LOCK:
        return sorted(n for n in _KILL_POINTS if n.startswith(prefix))


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named sites.

    Starts disarmed (every call is a cheap no-op); tests ``arm`` a plan
    once their fixtures are in place and ``disarm`` when done, so setup
    traffic never trips the rules.  Hit counters reset on each arm, which
    is what makes ``at=N`` rules deterministic per scenario.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        *,
        hard_kill: bool = False,
        sleep=time.sleep,
    ) -> None:
        self._plan = plan
        self.hard_kill = hard_kill
        self._sleep = sleep
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._rng = Random(plan.seed if plan is not None else 0)
        self._files: list["ShimFile"] = []

    # -- arming ----------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        if self is NO_FAULTS:
            raise RuntimeError("NO_FAULTS is shared and must stay disarmed")
        with self._lock:
            self._plan = plan
            self._hits = {}
            self._rng = Random(plan.seed)

    def disarm(self) -> None:
        with self._lock:
            self._plan = None
            self._hits = {}

    @property
    def armed(self) -> bool:
        return self._plan is not None

    def _consume(self, site: str) -> FaultRule | None:
        with self._lock:
            if self._plan is None:
                return None
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            return self._plan.match(site, hit)

    # -- file tracking (for deterministic unsynced-data loss) ------------

    def _track(self, shim: "ShimFile") -> None:
        with self._lock:
            self._files.append(shim)

    def _untrack(self, shim: "ShimFile") -> None:
        with self._lock:
            if shim in self._files:
                self._files.remove(shim)

    # -- the act itself ---------------------------------------------------

    def _crash(self, site: str) -> None:
        if self.hard_kill:
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - the signal lands first
        with self._lock:
            files = list(self._files)
        for shim in files:
            shim.drop_unsynced()
        raise KillPoint(site)

    def _act(self, rule: FaultRule, site: str) -> None:
        if rule.kind == KILL:
            self._crash(site)
        elif rule.kind == DELAY:
            self._sleep(rule.delay)
        elif rule.kind in (CONN_RESET, PARTITION):
            raise TransportError(f"injected {rule.kind} at {site}")
        elif rule.kind in (TORN_WRITE, SHORT_WRITE, LOST_FSYNC):
            # Write/fsync-shaped faults only make sense inside the shim;
            # at a control point they are inert by design.
            pass
        else:
            raise InjectedFault(rule.kind, site)

    def fire(self, site: str) -> None:
        """Evaluate the plan at a control point.  No-op when disarmed."""
        rule = self._consume(site)
        if rule is not None:
            self._act(rule, site)

    def write(self, site: str, fd: int, data: bytes) -> int:
        """A write through the plan: may tear, shorten, or error out."""
        rule = self._consume(site)
        if rule is None:
            return os.write(fd, data)
        if rule.kind in (TORN_WRITE, SHORT_WRITE):
            keep = self._rng.randrange(len(data)) if data else 0
            if keep:
                os.write(fd, data[:keep])
            if rule.kind == TORN_WRITE:
                self._crash(site)
            raise InjectedFault(SHORT_WRITE, site)
        self._act(rule, site)
        return os.write(fd, data)

    def fsync(self, site: str, fd: int) -> bool:
        """An fsync through the plan; returns False when silently lost."""
        rule = self._consume(site)
        if rule is not None:
            if rule.kind == LOST_FSYNC:
                return False
            self._act(rule, site)
        os.fsync(fd)
        return True


NO_FAULTS = FaultInjector()
"""The shared disarmed injector — the default everywhere."""

_ACTIVE: FaultInjector | None = None
_ACTIVE_LOCK = threading.Lock()


def active() -> FaultInjector:
    """The process-wide injector, built once from ``REPRO_FAULTS``.

    ``REPRO_FAULTS="kill@repo.journal.commit.synced"`` arms a hard-kill
    injector (real ``SIGKILL``), which is how the crash-restart
    integration test murders an actual ``myproxy-server`` subprocess at a
    chosen site.  Unset, this is :data:`NO_FAULTS`.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            spec = os.environ.get("REPRO_FAULTS", "")
            if spec:
                seed = int(os.environ.get("REPRO_FAULTS_SEED", "0"))
                _ACTIVE = FaultInjector(FaultPlan.parse(spec, seed=seed), hard_kill=True)
            else:
                _ACTIVE = NO_FAULTS
        return _ACTIVE


def reset_active() -> None:
    """Forget the env-derived injector (tests that mutate the env)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


# ---------------------------------------------------------------------------
# the filesystem shim
# ---------------------------------------------------------------------------


class ShimFile:
    """An append-oriented file whose writes and fsyncs pass the injector.

    Tracks the last fsynced length so a simulated crash can drop the
    written-but-unsynced tail (:meth:`drop_unsynced`) — the deterministic
    equivalent of losing the page cache.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        injector: FaultInjector,
        *,
        write_site: str,
        fsync_site: str,
        mode: int = 0o600,
    ) -> None:
        self.path = os.fspath(path)
        self._injector = injector
        self._write_site = write_site
        self._fsync_site = fsync_site
        self.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, mode)
        self.size = os.lseek(self.fd, 0, os.SEEK_END)
        self.synced_size = self.size
        injector._track(self)

    def write(self, data: bytes) -> None:
        try:
            written = self._injector.write(self._write_site, self.fd, data)
        except InjectedFault:
            # A torn/short write put *some* prefix on disk; resync our
            # notion of the size before the error propagates.
            self.size = os.lseek(self.fd, 0, os.SEEK_CUR)
            raise
        self.size += written

    def fsync(self) -> None:
        if self._injector.fsync(self._fsync_site, self.fd):
            self.synced_size = self.size

    def truncate(self, size: int) -> None:
        os.ftruncate(self.fd, size)
        os.lseek(self.fd, size, os.SEEK_SET)
        os.fsync(self.fd)
        self.size = size
        self.synced_size = min(self.synced_size, size)

    def drop_unsynced(self) -> None:
        """Roll the file back to its last fsynced length (crash model)."""
        if self.size > self.synced_size:
            os.ftruncate(self.fd, self.synced_size)
            os.lseek(self.fd, self.synced_size, os.SEEK_SET)
            self.size = self.synced_size

    def close(self) -> None:
        self._injector._untrack(self)
        try:
            os.close(self.fd)
        except OSError:  # pragma: no cover - double close on teardown
            pass
