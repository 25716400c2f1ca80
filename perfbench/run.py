"""The repository's benchmark: one workload against the deployment shape.

Run from the repository root::

    python3 perfbench/run.py --workload login --seed 1 --seconds 30 --trace 0

The cluster (3 nodes, rf=2, segments on disk, 2048-bit keys, TCP
loopback) runs in a child process (``cluster_proc.py``); this process is
the open-loop generator with at most two virtual users.  See README.md
in this directory for the workloads, the metrics and what each should
move.

``--trace 0`` measures the end-to-end metrics: set-up (three times, the
median reported), a short warm-up, an open loop for four fifths of
``--seconds`` and a closed loop at two connections for the rest.
``--trace 1`` sets up once and runs the open loop for all of
``--seconds``: the first half untraced, the second half with spans
recorded in both processes; it reports the per-layer metrics.

Every run checks each result, the generator's model of the store, the
replicas against each other and the at-rest guard.  Standard output
holds a JSON report, a table of every metric measured, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics ``BENCHMARK.json`` lists for the mode.  The
exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import secrets
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; the median is ``setup_s``.
SETUP_REPEATS = 3
#: Keys in the generator's recycled 2048-bit pool (CA, users, proxies).
CLIENT_POOL_KEYS = 16
#: Virtual users and closed-loop connections: at most the CPU count.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Seconds of the workload's own schedule run before measuring, so the
#: store reaches its steady mix (churn starts with nothing to destroy).
WARMUP_S = 2.0
#: Share of ``--seconds`` given to the closed loop that measures the peak.
CLOSED_LOOP_SHARE = 0.2
#: Chunks of the closed loop whose median rate is ``peak_ops_per_s``.
PEAK_CHUNKS = 6
CHILD_TIMEOUT_S = 90.0
#: Timed samples per latency window (see ``percentile_ms``).
WINDOW_SAMPLES = 200
#: Operation indices of the warm-up and closed loop, apart from the schedule's.
WARMUP_BASE = 1_000_000
CLOSED_BASE = 2_000_000


class ClusterChild:
    """The cluster process and its one-JSON-line-per-command channel."""

    def __init__(self, run_dir: Path, trace: bool) -> None:
        argv = [sys.executable, str(HERE / "cluster_proc.py"), str(run_dir)]
        if trace:
            argv.append("--trace")
        self._log = open(run_dir / "cluster.log", "w")
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            bufsize=1,
            cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._lock = threading.Lock()
        try:
            self.ready = self._reply()
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _reply(self) -> dict:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("cluster process did not answer in time") from None
        if line is None:
            raise RuntimeError("cluster process exited; see cluster.log")
        return json.loads(line)

    def call(self, command: str) -> dict:
        with self._lock:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()


class World:
    """One set-up: keys, CA, the cluster process, the workload's entries."""

    def __init__(self, run_dir: Path, workload_cls, seed: int, trace: bool) -> None:
        from repro.pki.ca import CertificateAuthority
        from repro.pki.keys import PooledKeySource
        from repro.pki.names import DistinguishedName
        from repro.pki.validation import ChainValidator
        from workloads import ClusterTarget

        import cluster_proc

        started = time.perf_counter()
        self.run_dir = run_dir
        run_dir.mkdir(parents=True)
        pool = PooledKeySource(cluster_proc.KEY_BITS, CLIENT_POOL_KEYS)
        ca = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/OU=Bench/CN=Bench CA"), key=pool.new_key()
        )
        self.secret = secrets.token_bytes(16)
        trust = run_dir / "trust"
        trust.mkdir()
        (trust / "ca.pem").write_bytes(ca.certificate.to_pem())
        (trust / "cluster.secret").write_text(self.secret.hex())
        for name in cluster_proc.NODES:
            host = ca.issue_host_credential(f"{name}.bench.org", key=pool.new_key())
            (trust / f"{name}.pem").write_bytes(host.export_pem())
        self.nodes = cluster_proc.NODES
        self.child = ClusterChild(run_dir, trace)
        try:
            self.target = ClusterTarget(
                self.child.ready["endpoints"], cluster_proc.REPLICATION_FACTOR, ca,
                ChainValidator([ca.certificate]), pool,
            )
            self.workload = workload_cls(self.target, seed)
            self.workload.setup()
        except BaseException:
            self.child.close()
            raise
        self.setup_s = time.perf_counter() - started

    def finish(self) -> dict:
        """Stop the cluster cleanly, then run the at-rest guard on its files."""
        from checks import at_rest_violations

        try:
            final = self.child.call("finish")
            self.child.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self.child.close()
        problems, examined = at_rest_violations(
            self.run_dir / "data", self.nodes, self.secret, self.workload.passphrases()
        )
        final["at_rest_violations"] = problems
        final["at_rest_entries"] = examined
        return final

    def discard(self) -> None:
        self.child.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# load phases
# ---------------------------------------------------------------------------


def open_loop(workload, operation, seed: int, seconds: float, on_half=None):
    """Replay the workload's seeded schedule for ``seconds`` with ``operation``."""
    from repro.loadgen import OpenLoopEngine, ScheduleSpec, build_schedule

    spec = ScheduleSpec(
        rate=workload.rate, duration=seconds, shape=workload.shape, seed=seed
    )
    engine = OpenLoopEngine(build_schedule(spec), operation, max_vus=CONNECTIONS)
    timer = None
    if on_half is not None:
        timer = threading.Timer(seconds / 2, on_half)
        timer.start()
    try:
        return engine.run().samples
    finally:
        if timer is not None:
            timer.cancel()
            timer.join()


def score(operation, index: int) -> tuple[str, str]:
    """Run one unscheduled operation: ``(outcome, detail)`` as the engine scores it."""
    from repro.util.errors import ServerBusyError

    try:
        operation(index)
    except ServerBusyError:
        return "busy", ""
    except Exception as exc:  # noqa: BLE001 - scored like the engine scores it
        return "error", type(exc).__name__
    return "ok", ""


def closed_loop(operation, seconds: float, first_index: int):
    """Each connection issues its next operation when the last returns.

    Returns the ``(outcome, detail)`` pairs and, for each successful
    operation, the seconds from the start until it returned.
    """
    results: list[tuple[str, str]] = []
    finished: list[float] = []
    indices = itertools.count(first_index)
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def connection() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(indices)
            outcome = score(operation, index)
            with lock:
                results.append(outcome)
                if outcome[0] == "ok":
                    finished.append(time.perf_counter() - started)

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, finished


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile_ms(workload, samples, q: float) -> float:
    """Latency percentile of the workload's successful timed operations, in ms.

    The samples, in arrival order, are cut into consecutive windows of at
    least ``WINDOW_SAMPLES`` (so ten lie beyond a p95 in each); the
    result is the median of the windows' percentiles.  A stall of the
    shared host that hits one window then moves the result no more than
    a fast window does.
    """
    from repro.loadgen import percentile

    latencies = [s.latency for s in samples if s.outcome == "ok" and workload.timed(s.index)]
    windows = max(len(latencies) // WINDOW_SAMPLES, 1)
    size = len(latencies) / windows
    return statistics.median(
        percentile(latencies[round(i * size):round((i + 1) * size)], q)
        for i in range(windows)
    ) * 1000.0


def peak_rate(finished: list[float]) -> tuple[float, list[float]]:
    """Completions per second of the closed loop, and of each of its chunks.

    The successful completions, in time order, are cut into
    ``PEAK_CHUNKS`` consecutive chunks of equal count; each chunk's rate
    is its count over the time since the previous chunk ended.  The
    median chunk rate is reported, for the reason the latency windows
    are: a stall of the shared host that hits one chunk moves the result
    no more than a fast chunk does.
    """
    chunks = max(min(PEAK_CHUNKS, len(finished)), 1)
    bounds = [round(i * len(finished) / chunks) for i in range(chunks + 1)]
    rates = []
    for lo, hi in zip(bounds, bounds[1:]):
        begun = finished[lo - 1] if lo else 0.0
        rates.append((hi - lo) / max(finished[hi - 1] - begun, 1e-9) if hi > lo else 0.0)
    return statistics.median(rates), rates


def warm_up(workload, seed: int) -> list[tuple[str, str]]:
    samples = open_loop(
        workload, lambda index: workload.operation(WARMUP_BASE + index), seed, WARMUP_S
    )
    return [(s.outcome, s.detail) for s in samples]


def count_failures(outcomes: list[tuple[str, str]]) -> tuple[int, int, int]:
    """``(failed, wrong, attempted)`` over ``(outcome, detail)`` pairs."""
    failed = sum(1 for outcome, _ in outcomes if outcome != "ok")
    wrong = sum(1 for _, detail in outcomes if detail == "WrongResult")
    return failed, wrong, len(outcomes)


def failure_kinds(outcomes: list[tuple[str, str]]) -> dict[str, int]:
    """How many operations failed, by outcome and exception name."""
    return dict(Counter(f"{outcome}:{detail}" if detail else outcome
                        for outcome, detail in outcomes if outcome != "ok"))


def end_to_end(world: World, seed: int, seconds: float, setups: list[float]):
    workload = world.workload
    warm = warm_up(workload, seed)
    before = world.child.call("usage")
    closed_s = seconds * CLOSED_LOOP_SHARE
    samples = open_loop(workload, workload.operation, seed, seconds - closed_s)
    closed, finished = closed_loop(workload.operation, closed_s, CLOSED_BASE)
    after = world.child.call("usage")
    outcomes = [(s.outcome, s.detail) for s in samples] + closed
    completed = sum(1 for outcome, _ in outcomes if outcome == "ok")
    peak, chunk_rates = peak_rate(finished)
    timed_ok = sum(1 for s in samples if s.outcome == "ok" and workload.timed(s.index))
    metrics = {
        "latency_p50_ms": (percentile_ms(workload, samples, 0.50), "ms"),
        "latency_p95_ms": (percentile_ms(workload, samples, 0.95), "ms"),
        "fail_ratio": (count_failures(outcomes)[0] / max(len(outcomes), 1), "ratio"),
        "peak_ops_per_s": (peak, "1/s"),
        "server_cpu_ms_per_op": (
            (after["cpu_s"] - before["cpu_s"]) * 1000.0 / max(completed, 1), "ms"),
        "server_rss_mb": (after["maxrss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"timed_ok_samples": timed_ok, "setup_runs_s": setups,
            "peak_chunk_rates": chunk_rates,
            "warm_up_wrong_results": count_failures(warm)[1]}
    return metrics, outcomes, info, wind_down(world)


def wind_down(world: World) -> dict:
    """Check the store against the model, then stop and inspect the cluster."""
    mismatches = world.workload.final_check()
    final = world.finish()
    final["model_mismatches"] = mismatches
    return final


def per_layer(world: World, seed: int, seconds: float):
    from spans import Tracer, layer_totals, load_spans

    workload = world.workload
    warm = warm_up(workload, seed)
    client_tracer = Tracer()
    traced_op = client_tracer.wrap("loadgen.op", workload.operation)
    marks: dict[str, dict] = {}

    def start_tracing() -> None:
        marks["before"] = world.child.call("counters")
        world.child.call("trace_on")
        client_tracer.enabled = True

    samples = open_loop(workload, traced_op, seed, seconds, start_tracing)
    client_tracer.enabled = False
    world.child.call("trace_off")
    after = world.child.call("counters")
    before = marks["before"]
    final = wind_down(world)
    client_tracer.dump(world.run_dir / "spans-client.json")
    totals = layer_totals(load_spans(world.run_dir / "spans-server.json"), "core.request")

    half = seconds / 2
    traced = [s for s in samples if s.intended >= half]
    untraced = [s for s in samples if s.intended < half]
    ops = max(sum(1 for s in traced if s.outcome == "ok"), 1)
    writes = sum(1 for s in traced if workload.is_write(s.index))
    outcomes = [(s.outcome, s.detail) for s in samples]
    failed, _, attempted = count_failures(outcomes)

    def ms(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0) * 1000.0 / ops

    def calls(name: str) -> int:
        return totals.get(name, {}).get("count", 0)

    def delta(key: str) -> float:
        return after[key] - before[key]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    resumed = {k: after["resumption"].get(k, 0) - before["resumption"].get(k, 0)
               for k in after["resumption"]}
    service_ms = statistics.fmean(
        [s.service_time for s in traced if s.outcome == "ok"] or [0.0]) * 1000.0
    p50_traced = percentile_ms(workload, traced, 0.5)
    p50_untraced = percentile_ms(workload, untraced, 0.5)
    metrics = {
        "pki.key_load_ms": (ms("pki.key_load"), "ms"),
        "pki.key_load_calls": (calls("pki.key_load") / ops, "1/op"),
        "pki.validate_ms": (ms("pki.validate"), "ms"),
        "pki.chain_cache_hit_ratio": (ratio(
            delta("chain_cache_hits"),
            delta("chain_cache_hits") + delta("chain_cache_misses")), "ratio"),
        "transport.handshake_ms": (ms("transport.handshake"), "ms"),
        "transport.resumed_ratio": (ratio(
            resumed.get("outcome=hit", 0), sum(resumed.values())), "ratio"),
        "transport.delegate_ms": (ms("transport.delegate"), "ms"),
        "transport.accept_delegation_ms": (ms("transport.accept_delegation"), "ms"),
        "core.request_ms": (ms("core.request"), "ms"),
        "core.verify_secret_ms": (ms("core.verify_secret"), "ms"),
        "core.make_verifier_ms": (ms("core.make_verifier"), "ms"),
        "core.unattributed_ms": (
            totals.get("core.request", {}).get("self", 0.0) * 1000.0 / ops, "ms"),
        "storage.put_ms": (ms("storage.put"), "ms"),
        "storage.get_ms": (ms("storage.get"), "ms"),
        "storage.delete_ms": (ms("storage.delete"), "ms"),
        "storage.fsyncs_per_write": (ratio(calls("storage.fsync"), writes), "1/write"),
        "storage.fsync_ms": (ms("storage.fsync"), "ms"),
        "storage.cache_hit_ratio": (ratio(
            delta("storage_cache_hits"),
            delta("storage_cache_hits") + delta("storage_cache_misses")), "ratio"),
        "storage.bytes_per_live_byte": (
            ratio(final["segment_bytes"], final["live_record_bytes"]), "ratio"),
        "cluster.replog_append_ms": (ms("cluster.replog_append"), "ms"),
        "cluster.ship_ms": (ms("cluster.ship"), "ms"),
        "cluster.unacked_ships": (ratio(delta("replication_failures"), writes), "1/write"),
        "cluster.divergent_entries": (final["divergent_entries"], "count"),
        "qos.admission_wait_ms": (ratio(
            delta("admission_wait_sum_s") * 1000.0, delta("admission_wait_count")), "ms"),
        "qos.shed": (delta("shed"), "count"),
        "loadgen.max_lateness_ms": (
            max((s.started - s.intended for s in samples), default=0.0) * 1000.0, "ms"),
        "loadgen.client_ms": (service_ms - ms("core.request"), "ms"),
        "trace.overhead_ratio": (ratio(p50_traced, p50_untraced) - 1.0, "ratio"),
        "loadgen.latency_p95_ms": (percentile_ms(workload, samples, 0.95), "ms"),
        "fail_ratio": (ratio(failed, attempted), "ratio"),
    }
    selfs = sorted(((row["self"] * 1000.0 / ops, name) for name, row in totals.items()),
                   reverse=True)
    info = {"traced_ok_ops": ops, "traced_writes": writes,
            "warm_up_wrong_results": count_failures(warm)[1],
            "self_ms_per_op": {name: round(v, 4) for v, name in selfs}}
    return metrics, outcomes, info, final


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    trace = bool(args.trace)
    base = ROOT / ".perfbench_run" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)

    setups: list[float] = []
    world = None
    repeats = 1 if trace else SETUP_REPEATS
    for rep in range(repeats):
        if world is not None:
            world.discard()
        world = World(base / f"setup{rep}", workload_cls, args.seed, trace)
        setups.append(world.setup_s)
    try:
        if trace:
            metrics, outcomes, info, final = per_layer(world, args.seed, args.seconds)
        else:
            metrics, outcomes, info, final = end_to_end(
                world, args.seed, args.seconds, setups)
    finally:
        world.child.close()
    failed, wrong, attempted = count_failures(outcomes)
    problems = final["at_rest_violations"]
    mismatches = final["model_mismatches"]
    wrong += info["warm_up_wrong_results"]
    correct = wrong == 0 and not problems and not mismatches
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "wrong_results": wrong, "fail_ratio": failed / max(attempted, 1),
        "failures": failure_kinds(outcomes),
        "divergent_entries": final["divergent_entries"],
        "at_rest_entries_checked": final["at_rest_entries"],
        "at_rest_violations": problems, "model_mismatches": mismatches, **info,
    }
    (base / "report.json").write_text(json.dumps(report, indent=2))
    for bulky in ("data", "trust"):
        shutil.rmtree(world.run_dir / bulky, ignore_errors=True)
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:12.4f} {unit}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
