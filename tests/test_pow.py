"""Memory-hard puzzle tests.

The Argon2id backend is pinned against the RFC 9106 keyed test vector
so a rebuilt environment cannot silently swap semantics underneath the
puzzle, then the solve/verify cycle is exercised around it.
"""

import hashlib
import random

import pytest
from cryptography.hazmat.primitives.kdf.argon2 import Argon2id

from gputelem.core import Challenge, PuzzleExhaustedError, digest_below_target, generate_salt
from gputelem.pow import NONCE_LEN, PowParams, PowSolution, pow_hash, solve_pow, verify_pow

# RFC 9106 section 5.3 (Argon2id): password 32x 0x01, salt 16x 0x02,
# secret 8x 0x03, ad 12x 0x04, t=3, m=32, p=4, tag length 32.
RFC9106_ID_TAG = bytes.fromhex(
    "0d640df58d78766c08c037a34a8b53c9d01ef0452d75b65eb52520e96b01e659"
)


def test_argon2id_backend_matches_rfc_vector():
    kdf = Argon2id(
        salt=b"\x02" * 16,
        length=32,
        iterations=3,
        lanes=4,
        memory_cost=32,
        secret=b"\x03" * 8,
        ad=b"\x04" * 12,
    )
    assert kdf.derive(b"\x01" * 32) == RFC9106_ID_TAG


def _challenge(seed=0, issued_at=1_700_000_000.125):
    rng = random.Random(seed)
    return Challenge(
        session_id=generate_salt(rng),
        index=0,
        mode="pow",
        salt=generate_salt(rng),
        issued_at=issued_at,
        params={},
    )


SMALL = PowParams(difficulty=4, argon_memory_kib=8)


def test_pow_hash_is_sha256_of_argon_tag():
    ch = _challenge()
    kdf = Argon2id(
        salt=ch.salt,
        length=32,
        iterations=1,
        lanes=1,
        memory_cost=8,
        secret=ch.session_id,
        ad=(1_700_000_000_125_000).to_bytes(8, "big"),
    )
    tag = kdf.derive((7).to_bytes(NONCE_LEN, "big"))
    assert pow_hash(ch.salt, ch.session_id, ch.issued_at, 7, SMALL) == hashlib.sha256(tag).digest()


def test_solve_then_verify_round_trip():
    ch = _challenge(1)
    sol = solve_pow(ch, SMALL)
    assert sol is not None
    assert verify_pow(ch, sol, SMALL)
    assert sol.attempts == sol.nonce + 1
    assert digest_below_target(sol.digest, SMALL.difficulty)
    # every earlier nonce must have failed, or the scan would have stopped
    for nonce in range(sol.nonce):
        digest = pow_hash(ch.salt, ch.session_id, ch.issued_at, nonce, SMALL)
        assert not digest_below_target(digest, SMALL.difficulty)


def test_verify_rejects_wrong_nonce_digest_and_context():
    ch = _challenge(2)
    sol = solve_pow(ch, SMALL)
    wrong_digest = PowSolution(sol.nonce, bytes(32), sol.attempts)
    assert not verify_pow(ch, wrong_digest, SMALL)
    wrong_nonce = PowSolution(sol.nonce + 1, sol.digest, sol.attempts)
    assert not verify_pow(ch, wrong_nonce, SMALL)
    other = _challenge(3)
    assert not verify_pow(other, sol, SMALL)
    harder = PowParams(difficulty=64, argon_memory_kib=8)
    assert not verify_pow(ch, sol, harder)


def test_verify_rejects_out_of_range_nonce():
    ch = _challenge(4)
    sol = PowSolution(nonce=1 << NONCE_LEN * 8, digest=bytes(32), attempts=1)
    assert not verify_pow(ch, sol, SMALL)
    assert not verify_pow(ch, PowSolution(-1, bytes(32), 1), SMALL)


def test_solution_binds_issue_time():
    ch = _challenge(5, issued_at=1_700_000_000.0)
    later = _challenge(5, issued_at=1_700_000_000.000001)
    sol = solve_pow(ch, SMALL)
    assert not verify_pow(later, sol, SMALL)


def test_solve_respects_attempt_cap(monkeypatch):
    """At d = 0 the budget is 2^8 nonces: a target that never clears
    spends exactly those, then raises the error the gemm solver raises."""
    checked = []
    never = lambda *args: checked.append(args) and False  # noqa: E731
    monkeypatch.setattr("gputelem.pow.digest_below_target", never)
    free = PowParams(difficulty=0, argon_memory_kib=8)
    assert free.max_attempts == 256
    with pytest.raises(PuzzleExhaustedError, match="within 256 attempts"):
        solve_pow(_challenge(6), free)
    assert len(checked) == 256


def test_difficulty_zero_solves_immediately():
    ch = _challenge(7)
    free = PowParams(difficulty=0, argon_memory_kib=8)
    sol = solve_pow(ch, free)
    assert sol.nonce == 0 and sol.attempts == 1
    assert verify_pow(ch, sol, free)


def test_params_validation():
    with pytest.raises(ValueError):
        PowParams(difficulty=-1)
    with pytest.raises(ValueError):
        PowParams(difficulty=65)
    with pytest.raises(ValueError):
        PowParams(difficulty=8, argon_lanes=2, argon_memory_kib=8)


def test_params_bound_the_argon_memory_filled_per_attempt():
    """memory * passes is at most 2^20 KiB, one GiB per attempt, so neither
    field can make one verification run unbounded or overflow Argon2."""
    assert PowParams(argon_memory_kib=1 << 20).argon_memory_kib == 1 << 20
    assert PowParams(argon_memory_kib=1 << 10, argon_passes=1 << 10).argon_passes == 1 << 10
    for fields in (
        {"argon_memory_kib": 1 << 20, "argon_passes": 2},
        {"argon_passes": 1 << 31},
        {"argon_memory_kib": 1 << 31},
        {"argon_passes": 1 << 63},
        {"argon_memory_kib": 1 << 64},
    ):
        with pytest.raises(ValueError, match="argon_memory_kib \\* argon_passes"):
            PowParams(**fields)


def test_attempts_are_plausibly_geometric():
    """Coarse sanity on the attempt distribution; the full chi-square
    fit runs in the acceptance suite at d = 8 with 2000 puzzles."""
    params = PowParams(difficulty=3, argon_memory_kib=8)
    rng = random.Random(99)
    counts = []
    for i in range(120):
        ch = Challenge(
            session_id=generate_salt(rng),
            index=i,
            mode="pow",
            salt=generate_salt(rng),
            issued_at=1_700_000_000.0 + i,
            params={},
        )
        counts.append(solve_pow(ch, params).attempts)
    mean = sum(counts) / len(counts)
    assert 5.0 < mean < 13.0  # E = 8, loose 3-sigma-ish band
    assert min(counts) >= 1
