"""Storage-engine characterization: the segment store at 10^4-10^6 entries.

Two costs dominate a repository holding 10^5-10^6 credentials:

- **startup recovery** — opening the store scans (or, with sidecar
  indexes, merely verifies) everything before the server may answer;
- **replica bootstrap** — seeding an empty peer streams raw record
  frames and fsyncs once per segment.

This script measures both at each ``--sizes`` entry count.  The
regression gate on these numbers is ``check_regression.py`` against the
committed ``BENCH_storage.json`` (p50 = recovery, p95 = bootstrap, p99 =
their sum at the largest size).  The one-file-per-credential spool these
were first compared against is gone; its historical numbers stay in
EXPERIMENTS.md B6.

Run directly (a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_storage.py                 # 10k + 100k
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke --out . # CI: 10k
    PYTHONPATH=src python benchmarks/bench_storage.py --sizes 1000000 # 1M
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.repository import RepositoryEntry
from repro.core.segments import SegmentRepository


def _entry(i: int) -> RepositoryEntry:
    return RepositoryEntry(
        username=f"user{i:07d}",
        cred_name="default",
        owner_dn=f"/O=Grid/CN=User {i}",
        certificate_pem=b"-----BEGIN CERTIFICATE-----\nZmFrZQ==\n-----END CERTIFICATE-----\n",
        key_pem=b"x" * 512,  # ciphertext-sized blob
        key_encryption="passphrase",
        verifier={"method": "passphrase", "salt": "00", "hash": "00", "iterations": 1},
        max_get_lifetime=7200.0,
        retrievers=None,
        created_at=0.0,
        not_after=1e12,
    )


def build_segments(root: Path, entries: int) -> None:
    repo = SegmentRepository(root)
    repo.bulk_load(_entry(i) for i in range(entries))
    repo.close()


def _timed_open(opener, entries: int, repeats: int = 3) -> float:
    """Best-of-N open time: recovery cost is deterministic, so the min
    strips scheduler/page-cache noise from the small absolute numbers."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        repo = opener()
        best = min(best, time.perf_counter() - start)
        assert repo.count() == entries
        repo.close()
    return best


def measure_segments(workdir: Path, entries: int) -> dict:
    store = workdir / "segments"
    build_segments(store, entries)
    recover_s = _timed_open(lambda: SegmentRepository(store), entries)
    repo = SegmentRepository(store)

    # Replica bootstrap: stream the live record frames, ingest, done.
    target = SegmentRepository(workdir / "segments-replica")
    start = time.perf_counter()
    ingested = target.ingest_snapshot(repo.stream_snapshot())
    bootstrap_s = time.perf_counter() - start
    assert ingested == entries
    assert target.count() == entries
    target.close()
    repo.close()
    return {"recover_s": recover_s, "bootstrap_s": bootstrap_s}


def run_size(entries: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench-storage-"))
    try:
        seg = measure_segments(workdir, entries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "entries": entries,
        "segments_recover_s": seg["recover_s"],
        "segments_bootstrap_s": seg["bootstrap_s"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: 10k entries only")
    parser.add_argument("--sizes", default="10000,100000",
                        help="comma-separated entry counts")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write BENCH_storage.json (shared schema) "
                             "into DIR")
    args = parser.parse_args(argv)

    sizes = [10000] if args.smoke else [int(s) for s in args.sizes.split(",")]

    results = []
    print(f"{'entries':>8}  {'recover':>9}  {'bootstrap':>9}")
    for size in sizes:
        r = run_size(size)
        results.append(r)
        print(f"{r['entries']:>8}  {r['segments_recover_s']:>8.3f}s  "
              f"{r['segments_bootstrap_s']:>8.3f}s")

    headline = results[-1]
    if args.out:
        from benchmarks.common import emit_closed_loop_report

        total = sum(r["entries"] for r in results)
        seg_seconds = sum(
            r["segments_recover_s"] + r["segments_bootstrap_s"] for r in results
        )
        path = emit_closed_loop_report(
            args.out,
            scenario="storage",
            script="bench_storage.py",
            config={"sizes": sizes},
            offered_ops=total,
            achieved_ops=total,
            duration_s=seg_seconds,
            latency_s={"p50": headline["segments_recover_s"],
                       "p95": headline["segments_bootstrap_s"],
                       "p99": headline["segments_recover_s"]
                       + headline["segments_bootstrap_s"]},
            counts={"ok": total},
            extra_slo={"storage_sweep": [
                {k: (round(v, 4) if isinstance(v, float) else v)
                 for k, v in r.items()} for r in results
            ]},
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
