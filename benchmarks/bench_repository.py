"""B3 — repository storage costs and the encrypted-at-rest ablation.

Expected shapes: lookups stay O(1)-ish as stored-credential count grows
(dict / segment index); the PBKDF2 verifier dominates entry creation
and scales linearly with the iteration knob — the price of §5.1's
"encrypts the credentials ... with the pass phrase" defense, swept here as
an explicit ablation.
"""

import itertools

import pytest

from repro.core.repository import (
    MemoryRepository,
    RepositoryEntry,
    check_passphrase,
    make_passphrase_verifier,
)
from repro.core.segments import SegmentRepository
from repro.pki.keys import PooledKeySource

PASS = "benchmark pass phrase 1"
_ids = itertools.count()

_POOL = PooledKeySource(1024, size=2)
_KEY = _POOL.new_key()
_CERT_PEM = b"-----BEGIN CERTIFICATE-----\nZmFrZQ==\n-----END CERTIFICATE-----\n"


def make_entry(i: int, *, iterations: int = 1000) -> RepositoryEntry:
    return RepositoryEntry(
        username=f"user{i:05d}",
        cred_name="default",
        owner_dn=f"/O=Bench/CN=User{i}",
        certificate_pem=_CERT_PEM,
        key_pem=_KEY.to_pem(PASS),
        key_encryption="passphrase",
        verifier=make_passphrase_verifier(PASS, iterations),
        max_get_lifetime=7200.0,
        retrievers=None,
        created_at=0.0,
        not_after=1e12,
    )


def _backend(kind, tmp_path):
    if kind == "memory":
        return MemoryRepository()
    return SegmentRepository(tmp_path / f"store{next(_ids)}")


@pytest.mark.parametrize("kind", ["memory", "segments"])
@pytest.mark.parametrize("preload", [10, 100, 1000])
def test_b3_get_vs_repository_size(benchmark, kind, preload, tmp_path):
    repo = _backend(kind, tmp_path)
    for i in range(preload):
        repo.put(make_entry(i))
    probe = itertools.cycle(range(preload))

    def lookup():
        repo.get(f"user{next(probe):05d}", "default")

    benchmark(lookup)
    benchmark.extra_info["backend"] = kind
    benchmark.extra_info["stored_entries"] = preload


@pytest.mark.parametrize("kind", ["memory", "segments"])
def test_b3_put(benchmark, kind, tmp_path):
    repo = _backend(kind, tmp_path)
    counter = itertools.count()

    def insert():
        repo.put(make_entry(next(counter)))

    benchmark(insert)
    benchmark.extra_info["backend"] = kind


@pytest.mark.parametrize("iterations", [1_000, 20_000, 100_000])
def test_b3_kdf_ablation_verifier_cost(benchmark, iterations):
    """The encrypted-at-rest knob: PBKDF2 iterations vs PUT-side cost."""
    benchmark(lambda: make_passphrase_verifier(PASS, iterations))
    benchmark.extra_info["kdf_iterations"] = iterations


@pytest.mark.parametrize("iterations", [1_000, 20_000, 100_000])
def test_b3_kdf_ablation_check_cost(benchmark, iterations):
    """...and the GET-side (and offline-attacker!) cost per guess."""
    verifier = make_passphrase_verifier(PASS, iterations)
    benchmark(lambda: check_passphrase(verifier, PASS))
    benchmark.extra_info["kdf_iterations"] = iterations
    benchmark.extra_info["attacker_guesses_per_second"] = round(
        1.0 / benchmark.stats.stats.mean, 1
    )


def test_b3_key_decryption_cost(benchmark):
    """Decrypting the stored key at GET time (at-rest ablation, read side)."""
    from repro.pki.keys import KeyPair

    key_pem = _KEY.to_pem(PASS)
    benchmark(lambda: KeyPair.from_pem(key_pem, PASS))
