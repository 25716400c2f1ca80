"""SIGKILL a real ``myproxy-server`` process at each store kill point.

This is the out-of-process version of the chaos suite: the server runs as
an actual subprocess over TCP, ``REPRO_FAULTS=kill@<site>:2`` arms a hard
kill (``SIGKILL``, no cleanup, no atexit) that fires during the second
``myproxy-init`` store, and a fresh server process is then started on the
same segment store.  The restarted server must:

- recover without quarantining anything (the crash was clean-by-design:
  old-or-new, never torn);
- still serve the credential stored *before* the crash
  (``myproxy-get-delegation`` returns a loadable proxy);
- serve the interrupted credential either not-at-all or fully — the
  un-acked store lands old-or-new.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import myproxy_get_delegation, myproxy_init
from repro.pki.ca import CertificateAuthority
from repro.pki.credentials import Credential
from repro.pki.keys import PooledKeySource
from repro.pki.names import DistinguishedName

SRC = str(Path(__file__).resolve().parents[2] / "src")
KEYPASS = "keyfile phrase 3"
MYPASS = "repository phrase 7"

# Every site a single put into a fresh store crosses, in order.  (Seal
# and compaction sites need a full segment; the in-process sweep in
# tests/chaos/ covers them.)
JOURNAL_KILL_SITES = [
    "repo.segment.append.pre",
    "repo.segment.append.synced",
]

# The active segment is the write-ahead log: once the record frame is
# fsynced (append.synced), recovery's scan finds it, so the interrupted
# credential comes back "new".  Only a crash before the frame lands
# leaves it "old" (absent).
PRE_DURABLE_SITES = {"repo.segment.append.pre"}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("crashcli")
    pool = PooledKeySource(1024, size=8)
    ca = CertificateAuthority(
        DistinguishedName.parse("/O=Grid/CN=Crash CA"), key=pool.new_key()
    )
    capem = root / "ca.pem"
    capem.write_bytes(ca.certificate.to_pem())

    hostcred = root / "hostcred.pem"
    hostcred.write_bytes(
        ca.issue_host_credential("mp.example.org", key=pool.new_key()).export_pem()
    )
    hostcred.chmod(0o600)

    alice = ca.issue_credential(
        DistinguishedName.grid_user("Grid", "Crash", "Alice"), key=pool.new_key()
    )
    usercred = root / "usercred.pem"
    usercred.write_bytes(alice.export_pem(KEYPASS))
    usercred.chmod(0o600)

    return {
        "ca": str(capem),
        "hostcred": str(hostcred),
        "usercred": str(usercred),
        "identity": alice.identity,
    }


def _spawn_server(world, storage_dir, faults_spec=None):
    """Start ``myproxy-server`` as a subprocess; return (proc, endpoint)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    if faults_spec is not None:
        env["REPRO_FAULTS"] = faults_spec
        env["REPRO_FAULTS_SEED"] = "1234"
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli.myproxy_server",
            "--host", "127.0.0.1", "--port", "0",
            "--credential", world["hostcred"],
            "--storage-dir", str(storage_dir),
            "--trusted-ca", world["ca"],
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = []
    for line in proc.stdout:
        banner.append(line)
        if "listening on" in line:
            endpoint = line.rsplit("listening on", 1)[1].strip().split()[0]
            return proc, endpoint, "".join(banner)
    raise AssertionError(
        f"server exited (rc={proc.wait()}) before listening:\n{''.join(banner)}"
    )


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _client_base(world, endpoint):
    return [
        "-s", endpoint, "--trusted-ca", world["ca"],
        "--credential", world["usercred"], "--key-passphrase", KEYPASS,
        "-l", "alice",
    ]


def _init(world, endpoint, cred_name):
    return myproxy_init.main(
        _client_base(world, endpoint)
        + ["--passphrase", MYPASS, "-k", cred_name, "-t", "1"]
    )


def _get(world, endpoint, cred_name, out_path):
    return myproxy_get_delegation.main(
        _client_base(world, endpoint)
        + ["--passphrase", MYPASS, "-k", cred_name, "-o", str(out_path)]
    )


@pytest.mark.parametrize("site", JOURNAL_KILL_SITES)
class TestServerSigkilledMidStore:
    def test_restart_recovers_and_serves(self, world, tmp_path, site):
        storage = tmp_path / "store"

        # hit 1 = the baseline store (acked), hit 2 = the doomed one
        proc, endpoint, _ = _spawn_server(world, storage, f"kill@{site}:2")
        try:
            assert _init(world, endpoint, "baseline") == 0
            assert _init(world, endpoint, "contested") == 1
            # the injected SIGKILL took the whole process down
            assert proc.wait(timeout=15) == -signal.SIGKILL
        finally:
            _stop(proc)

        proc, endpoint, banner = _spawn_server(world, storage)
        try:
            # recovery ran and quarantined nothing: the crash left the
            # store old-or-new, never torn
            assert "segment recovery (" in banner
            assert "0 entr(ies) quarantined" in banner

            # the acked credential survived the SIGKILL
            out = tmp_path / "baseline.pem"
            assert _get(world, endpoint, "baseline", out) == 0
            proxy = Credential.import_pem(out.read_bytes())
            assert proxy.identity == world["identity"]

            # the interrupted store is old-or-new: absent (the intent
            # never hit the disk) or fully present (recovery redid it)
            rc = _get(world, endpoint, "contested", tmp_path / "c.pem")
            if site in PRE_DURABLE_SITES:
                assert rc == 1  # never happened
            else:
                assert rc == 0  # journaled, so recovery finished it
        finally:
            _stop(proc)
