"""Recovery-time characterization: reopening a crashed store vs its size.

This script measures the segment store's startup recovery at
1k/10k/50k entries, on a store as a crash would leave it: a torn
active-segment tail (truncated as unacked), a missing active sidecar (the
crash beat the clean close), and one bit-rotted sealed segment (its
sidecar CRC check fails, forcing the full scan that quarantines the
damage) — so the run exercises every recovery path, not just the happy
load.  The one-file-per-credential spool it was first compared against
is gone; its historical numbers stay in EXPERIMENTS.md.

Run directly (it is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke   # CI: 1k only

Expected shape: linear only in the damaged segment's records (everything
intact loads from sidecar indexes).
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.journal import encode_frame
from repro.core.repository import RepositoryEntry
from repro.core.segments import SegmentRepository, _sidecar_path


def _entry(i: int) -> RepositoryEntry:
    return RepositoryEntry(
        username=f"user{i:06d}",
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


def build_crashed_segments(root: Path, entries: int) -> None:
    """A segment store as a crash would leave it: torn active tail, no
    sidecar for the active segment, one bit-rotted sealed segment."""
    repo = SegmentRepository(root, segment_max_bytes=4 * 1024 * 1024)
    repo.bulk_load(_entry(i) for i in range(entries))
    repo.close()

    tails = sorted(p for p in root.glob("seg-*.mps") if ".c" not in p.name)
    with open(tails[-1], "ab") as fh:  # torn in-flight append
        fh.write(encode_frame(b"P half a record")[:20])
    _sidecar_path(tails[-1]).unlink(missing_ok=True)

    victim = tails[0]  # bit rot inside the oldest (sealed when >1) segment
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))


def measure(entries: int, repeats: int) -> dict:
    samples = []
    recovered = quarantined = torn = 0
    for _ in range(repeats):
        workdir = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
        try:
            store = workdir / "segments"
            build_crashed_segments(store, entries)
            start = time.perf_counter()
            repo = SegmentRepository(store)
            samples.append(time.perf_counter() - start)
            snap = repo.stats.snapshot()
            recovered = snap["records_recovered"]
            quarantined = snap["quarantined"]
            torn = snap["torn_truncated"]
            repo.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    best = min(samples)
    return {
        "backend": "segments",
        "entries": entries,
        "best_seconds": best,
        "entries_per_second": entries / best if best else float("inf"),
        "records_recovered": recovered,
        "quarantined": quarantined,
        "torn_truncated": torn,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smallest size, one repeat")
    parser.add_argument("--sizes", default="1000,10000,50000",
                        help="comma-separated entry counts")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write BENCH_recovery.json (shared schema) "
                             "into DIR")
    args = parser.parse_args(argv)

    sizes = [1000] if args.smoke else [int(s) for s in args.sizes.split(",")]
    repeats = 1 if args.smoke else args.repeats

    results = []
    print(f"{'backend':>8}  {'entries':>8}  {'recovery':>10}  {'entries/s':>10}  "
          f"{'replayed':>8}  {'quarantined':>11}")
    for size in sizes:
        result = measure(size, repeats)
        results.append(result)
        print(f"{result['backend']:>8}  {result['entries']:>8}  "
              f"{result['best_seconds']:>9.3f}s  "
              f"{result['entries_per_second']:>10.0f}  "
              f"{result['records_recovered']:>8}  {result['quarantined']:>11}")
        # recovery must actually have exercised its paths
        assert result["quarantined"] >= 1, "bit rot was not quarantined"
        assert result["torn_truncated"] >= 1, "torn segment tail was not truncated"

    if args.out:
        from benchmarks.common import emit_closed_loop_report

        # One report for the largest size measured; the per-size sweep
        # rides along in the slo block for trend eyes.
        headline = results[-1]
        total_entries = sum(r["entries"] for r in results)
        path = emit_closed_loop_report(
            args.out,
            scenario="recovery",
            script="bench_recovery.py",
            config={"sizes": sizes, "repeats": repeats},
            offered_ops=total_entries,
            achieved_ops=total_entries,
            duration_s=sum(r["best_seconds"] for r in results),
            latency_s={"p50": headline["best_seconds"],
                       "p95": headline["best_seconds"],
                       "p99": headline["best_seconds"]},
            counts={"ok": total_entries},
            extra_slo={
                "recovery_sweep": [
                    {"backend": r["backend"],
                     "entries": r["entries"],
                     "best_seconds": round(r["best_seconds"], 4),
                     "entries_per_second": round(r["entries_per_second"], 1),
                     "records_recovered": r["records_recovered"],
                     "quarantined": r["quarantined"]}
                    for r in results
                ],
            },
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
