"""The server side of the benchmark: a 3-node cluster in its own process.

Launched by ``run.py`` as ``python3 perfbench/cluster_proc.py RUN_DIR
[--trace]``.  It loads the CA certificate and the node host credentials
the generator wrote into ``RUN_DIR/trust``, builds the deployment shape

- three nodes (``build_cluster``), replication factor 2, one sync ack,
  a durable replication log per node under ``RUN_DIR/data``;
- one ``SegmentRepository`` per node under ``RUN_DIR/data/<node>``;
- 2048-bit keys from a recycled pool generated here at start-up;
- each node listening on its own TCP loopback port;

prints one JSON line ``{"ready": ...}`` and then answers one JSON
command per stdin line with one JSON line on stdout (see ``COMMANDS``).

The server runs apart from the generator because neither RSA key loading
nor PBKDF2 releases the GIL: in one process, the generator's client-side
RSA work would be billed to the server.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cluster import build_cluster  # noqa: E402
from repro.cluster.node import ClusterNode  # noqa: E402
from repro.cluster.replog import ReplicationLog  # noqa: E402
from repro.core import server as server_module  # noqa: E402
from repro.core.segments import SegmentRepository  # noqa: E402
from repro.core.server import MyProxyServer  # noqa: E402
from repro.pki.certs import Certificate  # noqa: E402
from repro.pki.credentials import Credential  # noqa: E402
from repro.pki.keys import KeyPair, PooledKeySource  # noqa: E402
from repro.pki.validation import ChainValidator  # noqa: E402

from spans import Tracer  # noqa: E402

NODES = ("node0", "node1", "node2")
REPLICATION_FACTOR = 2
KEY_BITS = 2048
SERVER_POOL_KEYS = 8

#: (owner, attribute, span name): the layer boundaries the traced run
#: times.  Module globals are patched where ``repro.core.server`` looks
#: them up; methods on their classes.
TRACE_POINTS = (
    (MyProxyServer, "handle_link", "core.request"),
    (server_module, "accept_secure", "transport.handshake"),
    (server_module, "delegate_credential", "transport.delegate"),
    (server_module, "accept_delegation", "transport.accept_delegation"),
    (server_module, "check_passphrase", "core.verify_secret"),
    (server_module, "make_passphrase_verifier", "core.make_verifier"),
    (KeyPair, "from_pem", "pki.key_load"),
    (ChainValidator, "validate", "pki.validate"),
    (SegmentRepository, "put", "storage.put"),
    (SegmentRepository, "get", "storage.get"),
    (SegmentRepository, "delete", "storage.delete"),
    (ReplicationLog, "append", "cluster.replog_append"),
    (ClusterNode, "receive", "cluster.ship"),
    (os, "fsync", "storage.fsync"),
)


class ClusterProcess:
    def __init__(self, run_dir: Path, trace: bool) -> None:
        self.run_dir = run_dir
        self.data = run_dir / "data"
        self.tracer = Tracer()
        if trace:
            for owner, attr, name in TRACE_POINTS:
                self.tracer.patch(owner, attr, name)
        trust = run_dir / "trust"
        ca_cert = Certificate.from_pem((trust / "ca.pem").read_bytes())
        secret = bytes.fromhex((trust / "cluster.secret").read_text().strip())
        pool = PooledKeySource(KEY_BITS, SERVER_POOL_KEYS)
        self.validators = [ChainValidator([ca_cert]) for _ in NODES]
        host_creds = [
            Credential.import_pem((trust / f"{name}.pem").read_bytes()) for name in NODES
        ]

        def make_server(i, name, box):
            return MyProxyServer(
                host_creds[i], self.validators[i], key_source=pool, master_box=box
            )

        self.backends = [SegmentRepository(self.data / name) for name in NODES]
        self.cluster = build_cluster(
            make_server,
            self.backends,
            secret=secret,
            names=list(NODES),
            replication_factor=REPLICATION_FACTOR,
            min_sync_acks=1,
            state_dir=self.data / "state",
            log_dir=self.data,
        )
        self.endpoints = {
            name: list(node.server.start()) for name, node in self.cluster.nodes.items()
        }

    # -- commands -------------------------------------------------------

    def usage(self) -> dict:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}

    def trace(self, on: bool) -> dict:
        self.tracer.enabled = on
        return {"tracing": on}

    def counters(self) -> dict:
        """Registry and layer counters summed over the nodes."""
        out = {
            "resumption": {},
            "admission_wait_count": 0,
            "admission_wait_sum_s": 0.0,
            "shed": 0,
            "replication_failures": 0,
            "chain_cache_hits": 0,
            "chain_cache_misses": 0,
            "storage_cache_hits": 0,
            "storage_cache_misses": 0,
        }
        for node, validator, backend in zip(
            self.cluster.nodes.values(), self.validators, self.backends
        ):
            snap = node.server.metrics.snapshot()
            for label, value in snap.get("myproxy_resumption_total", {}).items():
                out["resumption"][label] = out["resumption"].get(label, 0) + value
            wait = snap["myproxy_qos_admission_wait_seconds"]
            out["admission_wait_count"] += wait["count"]
            out["admission_wait_sum_s"] += wait["sum"]
            out["shed"] += sum(snap.get("myproxy_shed_reason_total", {}).values())
            out["replication_failures"] += node.server.stats.replication_failures
            cache = validator.cache_stats()
            out["chain_cache_hits"] += cache["hits"]
            out["chain_cache_misses"] += cache["misses"]
            out["storage_cache_hits"] += backend.stats.get("cache_hits")
            out["storage_cache_misses"] += backend.stats.get("cache_misses")
        return out

    def finish(self) -> dict:
        """Heal, compare replicas, measure space, stop and write spans."""
        self.tracer.enabled = False
        self.cluster.auto_resync()
        divergent = 0
        users = set()
        for backend in self.backends:
            users.update(backend.usernames())
        for username in sorted(users):
            primary, replica = self.cluster.preference(username)
            names = [
                {entry.cred_name for entry in node.backend.list_for(username)}
                for node in (primary, replica)
            ]
            divergent += len(names[0] ^ names[1])
        file_bytes = live_bytes = 0
        for backend in self.backends:
            for seg in backend.segment_info():
                file_bytes += seg["bytes"]
                live_bytes += seg["record_bytes"] - seg["dead_bytes"]
        for node in self.cluster.nodes.values():
            node.server.stop()
        self.cluster.stop()
        for node in self.cluster.nodes.values():
            node.backend.close()
            node.log.close()
        self.tracer.unpatch()
        self.tracer.dump(self.run_dir / "spans-server.json")
        return {
            "divergent_entries": divergent,
            "segment_bytes": file_bytes,
            "live_record_bytes": live_bytes,
        }


COMMANDS = {
    "usage": ClusterProcess.usage,
    "trace_on": lambda proc: proc.trace(True),
    "trace_off": lambda proc: proc.trace(False),
    "counters": ClusterProcess.counters,
    "finish": ClusterProcess.finish,
}


def main(argv: list[str]) -> int:
    run_dir = Path(argv[0])
    trace = "--trace" in argv[1:]
    # The protocol owns stdout; anything the program prints goes to stderr.
    out = sys.stdout
    sys.stdout = sys.stderr
    proc = ClusterProcess(run_dir, trace)
    out.write(json.dumps({"ready": True, "endpoints": proc.endpoints}) + "\n")
    out.flush()
    for line in sys.stdin:
        command = line.strip()
        reply = COMMANDS[command](proc)
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if command == "finish":
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
