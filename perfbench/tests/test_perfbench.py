"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

The tiny runs start the real cluster process with 2048-bit keys, so
this file takes a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from functools import cache
from types import SimpleNamespace

import pytest

from repro.cluster.failover import ClusterRouter
from repro.loadgen import ScheduleSpec, build_schedule
from repro.testbed import UserAccount

import cluster_proc
import run
from spans import Tracer, layer_totals, load_spans, self_times, span_trees
from workloads import SEQUENCE_LEN, WORKLOADS, Churn, Login, Writes

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
}


@cache
def tiny_run(workload: str, trace: int, seed: int = 3):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[0]), json.loads(lines[-1]), out.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    rc, report, result, stderr = tiny_run(workload, trace)
    assert rc == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == UNITS[trace]
    assert report["workload"] == workload and report["trace"] == trace
    assert report["at_rest_entries_checked"] > 0
    assert report["at_rest_violations"] == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_server_spans_nest_and_self_times_sum_to_request_time(workload):
    rc, _, _, stderr = tiny_run(workload, 1)
    assert rc == 0, stderr
    spans = load_spans(run.ROOT / ".perfbench_run" / f"{workload}-trace1" / "setup0"
                       / "spans-server.json")
    kept, children = span_trees(spans, "core.request")
    assert any(span[2] == "core.request" for span in kept.values())
    for parent_id, child_ids in children.items():
        parent = kept[parent_id]
        for child_id in child_ids:
            child = kept[child_id]
            assert parent[3] <= child[3] <= child[4] <= parent[4]
    selfs = self_times(kept, children)
    assert min(selfs.values()) >= 0.0
    totals = layer_totals(spans, "core.request")
    self_sum = sum(row["self"] for row in totals.values())
    assert self_sum == pytest.approx(totals["core.request"]["total"], rel=1e-9)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def root():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_root = tracer.wrap("root", root)
    traced_root()  # disabled: records nothing
    assert tracer.spans == []
    tracer.enabled = True
    worker = threading.Thread(target=traced_root)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    traced_leaf()  # no root above it: an orphan, dropped from the totals
    totals = layer_totals(tracer.spans, "root")
    assert totals["leaf"]["count"] == 2
    assert totals["root"]["count"] == 1
    assert totals["root"]["self"] == pytest.approx(
        totals["root"]["total"] - totals["leaf"]["total"])
    assert totals["root"]["self"] + totals["leaf"]["self"] == pytest.approx(
        totals["root"]["total"])


def test_trace_points_patch_and_restore():
    tracer = Tracer()
    originals = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                 for owner, attr, _ in cluster_proc.TRACE_POINTS]
    for owner, attr, name in cluster_proc.TRACE_POINTS:
        tracer.patch(owner, attr, name)
    tracer.unpatch()
    restored = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, _ in cluster_proc.TRACE_POINTS]
    assert restored == originals


def _writes_without_cluster(monkeypatch) -> Writes:
    router = ClusterRouter(list(cluster_proc.NODES), cluster_proc.REPLICATION_FACTOR)
    target = SimpleNamespace(
        router=router,
        new_user=lambda name: UserAccount(name=name, local_user=name, dn=None,
                                          credential=None),
    )
    monkeypatch.setattr(Writes, "_register_base", lambda self: None)
    workload = Writes(target, 1)
    workload.setup()
    return workload


def test_writes_slots_own_the_users_of_one_primary_each(monkeypatch):
    workload = _writes_without_cluster(monkeypatch)
    router = workload.target.router
    assert len(workload._accounts) == Churn.users
    for origin, accounts in zip(Writes.origins, workload._by_slot):
        assert len(accounts) == Writes.per_origin
        assert {router.preference(account.name)[0] for account in accounts} == {origin}


def test_writes_never_runs_two_operations_on_one_origin_at_once(monkeypatch):
    workload = _writes_without_cluster(monkeypatch)
    origin_of = {account.name: workload.target.router.preference(account.name)[0]
                 for account in workload._accounts}
    running: dict[str, int] = {}
    overlaps = []
    lock = threading.Lock()

    def fake_run(index, account):
        origin = origin_of[account.name]
        with lock:
            running[origin] = running.get(origin, 0) + 1
            if running[origin] > 1:
                overlaps.append(origin)
        time.sleep(0.001)
        with lock:
            running[origin] -= 1

    monkeypatch.setattr(workload, "_run", fake_run)

    def vu(first):
        for index in range(first, first + 200):
            workload.operation(index)

    threads = [threading.Thread(target=vu, args=(k * 1000,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert overlaps == []


def test_seed_changes_op_mix_and_schedule():
    assert Churn(None, 1)._kind != Churn(None, 2)._kind
    assert Churn(None, 1)._kind == Churn(None, 1)._kind
    assert Login(_NoTarget(), 1)._user_of != Login(_NoTarget(), 2)._user_of
    kinds = Churn(None, 1)._kind
    for kind, weight in Churn.MIX:
        assert kinds.count(kind) / SEQUENCE_LEN == pytest.approx(weight, abs=0.01)

    def offsets(seed):
        spec = ScheduleSpec(rate=WORKLOADS["storm"].rate, duration=20.0,
                            shape=WORKLOADS["storm"].shape, seed=seed)
        return build_schedule(spec).offsets

    assert offsets(1) != offsets(2)
    assert offsets(1) == offsets(1)


def test_seed_is_recorded_in_the_output():
    rc, report, _, stderr = tiny_run("churn", 0, seed=11)
    assert rc == 0, stderr
    assert report["seed"] == 11


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "login", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


class _NoTarget:
    """Enough of a target for constructing a scenario without a cluster."""

    key_source = clock = None
