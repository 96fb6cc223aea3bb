"""Matrix-product puzzle tests.

The independent oracle for field_matmul is a three-loop schoolbook
product in arbitrary-precision Python ints reduced mod 2^61 - 1, so the
limb-decomposition path is checked against arithmetic that cannot
overflow; saturated entries are checked against the closed form
inner * v^2 mod p on both sides of the float64 chunk boundary. Matrix
derivation is checked against a from-scratch reading of the keyed
stream, word by word, plus pinned known answers. The batched Freivalds
check is checked against an unbatched per-round loop, and its two-limb
bit product and stacked limb product against the three-limb check they
replaced, copied here as it stood.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gputelem import gemm
from gputelem.core import PuzzleExhaustedError, encode_fields, hash_bytes, keyed_stream

P = gemm.FIELD_MODULUS


def _naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc += int(a[i, k]) * int(b[k, j])
            out[i, j] = acc % P
    return out


# --- field arithmetic ---------------------------------------------------------


def test_field_matmul_small_known_product():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5, 6], [7, 8]], dtype=np.int64)
    expected = np.array([[19, 22], [43, 50]], dtype=np.int64)
    assert np.array_equal(gemm.field_matmul(a, b), expected)


def test_field_matmul_wraps_at_modulus():
    a = np.array([[P - 1]], dtype=np.int64)
    b = np.array([[P - 1]], dtype=np.int64)
    # (p-1)^2 = p^2 - 2p + 1 = 1 (mod p)
    assert gemm.field_matmul(a, b)[0, 0] == 1


def test_field_matmul_worst_case_entries():
    # every limb saturated in every operand entry; n large enough that
    # partial sums exercise the folding path
    n = 16
    a = np.full((n, n), P - 1, dtype=np.int64)
    b = np.full((n, n), P - 1, dtype=np.int64)
    got = gemm.field_matmul(a, b)
    assert np.array_equal(got, _naive_matmul(a, b))


@pytest.mark.parametrize("value", [P - 1, (1 << 63) - 1])
@pytest.mark.parametrize(
    "inner", [1, gemm._CHUNK - 1, gemm._CHUNK, gemm._CHUNK + 1, gemm._MAX_DIM]
)
def test_field_matmul_saturated_entries_at_chunk_edges(value, inner):
    """Every limb of every entry saturated: the largest float64 sums the
    kernel forms, at the chunk boundary and at the largest inner size."""
    a = np.full((2, inner), value, dtype=np.int64)
    b = np.full((inner, 3), value, dtype=np.int64)
    expected = inner * value * value % P
    assert (gemm.field_matmul(a, b) == expected).all()


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_field_matmul_across_the_chunk_boundary_matches_bigint_oracle(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    inner = rng.randint(gemm._CHUNK - 3, 2 * gemm._CHUNK + 3)
    a = np.array([[rng.randrange(P) for _ in range(inner)] for _ in range(rows)], dtype=np.int64)
    b = np.array([[rng.randrange(P) for _ in range(cols)] for _ in range(inner)], dtype=np.int64)
    assert np.array_equal(gemm.field_matmul(a, b), _naive_matmul(a, b))


def test_field_matmul_known_answer():
    # pinned from the int64 limb kernel this float64 one replaced
    a, b = gemm.derive_matrices(hash_bytes(b"kernel-kat"), 64)
    digest = hashlib.sha256(gemm.matrix_bytes(gemm.field_matmul(a, b))).hexdigest()
    assert digest == "ed1350406875bb1b2399b33a97ff41f9254ceb98ce8cf933d842dc6d7b1ccb0e"


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_field_matmul_matches_bigint_oracle(seed):
    rng = random.Random(seed)
    rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    a = np.array([[rng.randrange(P) for _ in range(inner)] for _ in range(rows)], dtype=np.int64)
    b = np.array([[rng.randrange(P) for _ in range(cols)] for _ in range(inner)], dtype=np.int64)
    got = gemm.field_matmul(a, b)
    assert np.array_equal(got, _naive_matmul(a, b))
    assert got.min() >= 0 and got.max() < P


def test_field_matmul_rejects_bad_shapes():
    ok = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        gemm.field_matmul(ok, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        gemm.field_matmul(np.zeros(4, dtype=np.int64), ok)
    too_long = gemm._MAX_DIM + 1
    with pytest.raises(ValueError):
        gemm.field_matmul(np.zeros((1, too_long), np.int64), np.zeros((too_long, 1), np.int64))


# --- matrix derivation ----------------------------------------------------------


def test_derive_matrices_matches_manual_stream_reduction():
    """Stream -> little-endian u64 -> low 61 bits -> mod p, A then B."""
    sigma = hash_bytes(b"derivation-check")
    n = 5
    a, b = gemm.derive_matrices(sigma, n)
    stream = keyed_stream(sigma, 16 * n * n, encode_fields("gemm-AB"))
    for pos in range(2 * n * n):
        word = int.from_bytes(stream[8 * pos : 8 * pos + 8], "little")
        expected = (word & ((1 << 61) - 1)) % P
        mat = a if pos < n * n else b
        row, col = divmod(pos % (n * n), n)
        assert mat[row, col] == expected
    # known answers pin the construction independently of keyed_stream
    assert a[0, 0] == 1447856167986099978
    assert a[4, 4] == 1007838705433799505
    assert b[0, 0] == 694825547797396697
    assert b[2, 3] == 177352182228767278


def test_derive_matrices_folds_only_the_modulus_to_zero(monkeypatch):
    """All-ones words mask to p and fold to 0; one below masks to p - 1 and stays."""

    def stream(words, key, domain=b"", offset=0):
        words[0::2] ^= np.uint64((1 << 64) - 1)
        words[1::2] ^= np.uint64((1 << 64) - 2)

    monkeypatch.setattr(gemm, "keyed_xor_into", stream)
    a, b = gemm.derive_matrices(b"s", 3)
    expected = np.array([0, P - 1] * 9, dtype=np.int64)
    assert np.array_equal(np.concatenate((a.ravel(), b.ravel())), expected)


def test_derive_matrices_deterministic_and_distinct():
    sigma = hash_bytes(b"x")
    a1, b1 = gemm.derive_matrices(sigma, 8)
    a2, b2 = gemm.derive_matrices(sigma, 8)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)  # tags separate the two matrices
    a3, _ = gemm.derive_matrices(hash_bytes(b"y"), 8)
    assert not np.array_equal(a1, a3)


def test_matrix_bytes_is_row_major_big_endian():
    m = np.array([[1, 2], [3, 258]], dtype=np.int64)
    raw = gemm.matrix_bytes(m)
    assert len(raw) == 32
    assert raw[7] == 1 and raw[15] == 2 and raw[23] == 3
    assert raw[30:32] == b"\x01\x02"  # 258


def test_puzzle_digest_hashes_the_encoded_fields():
    """Streamed as it lies, the product hashes as its encoded copy did,
    whatever its layout or integer dtype."""
    sid, sigma = b"digest-sid", hash_bytes(b"digest-sigma")
    a, b = gemm.derive_matrices(sigma, 7)
    product = gemm.field_matmul(a, b)
    expected = hash_bytes(encode_fields(sid, sigma, gemm.matrix_bytes(product)))
    assert gemm.puzzle_digest(sid, sigma, product) == expected
    assert gemm.puzzle_digest(sid, sigma, np.ascontiguousarray(product.T).T) == expected
    assert gemm.puzzle_digest(sid, sigma, product.astype(">u8")) == expected
    transposed = hash_bytes(encode_fields(sid, sigma, gemm.matrix_bytes(product.T)))
    assert gemm.puzzle_digest(sid, sigma, product.T) == transposed


def test_matrix_from_bytes_inverts_matrix_bytes():
    m = np.array([[0, 1], [258, P - 1]], dtype=np.int64)
    back = gemm.matrix_from_bytes(gemm.matrix_bytes(m), 2)
    assert back.dtype == np.int64 and np.array_equal(back, m)
    for n in (1, 3):
        with pytest.raises(ValueError, match="length"):
            gemm.matrix_from_bytes(gemm.matrix_bytes(m), n)


# --- Freivalds check --------------------------------------------------------------


def test_freivalds_accepts_correct_product():
    rng = random.Random(0)
    a, b = gemm.derive_matrices(hash_bytes(b"f"), 12)
    c = gemm.field_matmul(a, b)
    for trial in range(50):
        assert gemm.freivalds_check(a, b, c, 5, random.Random(trial))


def test_freivalds_single_entry_error_detected_at_half_rate():
    """One wrong entry is caught exactly when r selects its column: p = 1/2."""
    a, b = gemm.derive_matrices(hash_bytes(b"g"), 12)
    c = gemm.field_matmul(a, b)
    bad = c.copy()
    bad[3, 7] = (bad[3, 7] + 1) % P
    hits = sum(
        not gemm.freivalds_check(a, b, bad, 1, random.Random(t)) for t in range(600)
    )
    assert 0.40 <= hits / 600 <= 0.60  # 4.9 sigma band around 0.5


def test_freivalds_k5_misses_are_rare():
    a, b = gemm.derive_matrices(hash_bytes(b"h"), 12)
    c = gemm.field_matmul(a, b)
    bad = c.copy()
    bad[0, 0] = (bad[0, 0] + 1) % P
    misses = sum(gemm.freivalds_check(a, b, bad, 5, random.Random(t)) for t in range(400))
    # expected 400 * 2^-5 = 12.5; allow a wide band
    assert misses <= 30


def _freivalds_per_round(a, b, c, k, rng):
    """The unbatched check: one fresh 0/1 vector and three products per round.

    Each round draws n bits at once; bit j is entry j of its vector."""
    n = b.shape[0]
    for _ in range(k):
        draw = rng.getrandbits(n)
        r = np.array([[(draw >> j) & 1] for j in range(n)], dtype=np.int64)
        if not np.array_equal(gemm.field_matmul(a, gemm.field_matmul(b, r)), gemm.field_matmul(c, r)):
            return False
    return True


def test_batched_freivalds_matches_per_round_loop():
    a, b = gemm.derive_matrices(hash_bytes(b"batched"), 10)
    c = gemm.field_matmul(a, b)
    corrupt = random.Random(5)
    verdicts = []
    for seed in range(300):
        bad = c.copy()
        for _ in range(1 + seed % 3):
            row, col = corrupt.randrange(10), corrupt.randrange(10)
            bad[row, col] = (int(bad[row, col]) + 1 + corrupt.randrange(P - 1)) % P
        k = 1 + seed % 4
        got = gemm.freivalds_check(a, b, bad, k, random.Random(seed))
        assert got == _freivalds_per_round(a, b, bad, k, random.Random(seed))
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts were exercised


@pytest.mark.parametrize("n", (1, 227, 228, 1024))
def test_bit_product_matches_field_matmul_on_saturated_entries(n):
    """(B;C) r from the three limbs alone equals the general field product."""
    rng = np.random.default_rng(n)
    stacked = np.full((2 * n, n), P - 1, dtype=np.int64)
    stacked[n:] = rng.integers(0, P, size=(n, n))
    bits = rng.integers(0, 2, size=(n, 5), dtype=np.uint8)
    bits[:, 0] = 1  # an all-ones column: every row sums n saturated entries
    expected = gemm.field_matmul(stacked, bits.astype(np.int64))
    assert np.array_equal(gemm._times_bits(stacked, bits), expected)


def _times_bits_three_limbs(m, bits):
    """The three-limb bit product the two-limb one replaced, as it stood:
    group i is limb_i(m) bits, every sum below n 2^21, folded by _fold."""
    limbs = ((m >> gemm._LIMB_SHIFTS) & gemm._LIMB_MASK).astype(np.float64)
    return gemm._fold((limbs @ bits.astype(np.float64)).astype(np.int64))


def _freivalds_three_limbs(a, b, c, k, rng):
    """The batched check the stacked one replaced, as it stood: (B; C) r
    through the three-limb bit product, then A (B r) through field_matmul."""
    n = b.shape[0]
    width = (n + 7) // 8
    draws = b"".join(rng.getrandbits(n).to_bytes(width, "little") for _ in range(k))
    bits = np.unpackbits(
        np.frombuffer(draws, dtype=np.uint8).reshape(k, width), axis=1, count=n, bitorder="little"
    )
    br, cr = np.split(_times_bits_three_limbs(np.vstack((b, c)), bits.T), 2)
    return np.array_equal(gemm.field_matmul(a, br), cr)


@pytest.mark.parametrize("n", (1, 2, 227, 228, 1024, gemm.MAX_DIMENSION))
@pytest.mark.parametrize("value", (P - 1, (1 << 63) - 1))
def test_two_limb_bit_product_matches_the_three_limb_one(n, value):
    """Saturated rows (every sum at its largest: an all-ones column of
    bits meets n saturated entries) and random rows, at and around the
    kernel's chunk size and at the largest dimension a check accepts."""
    rng = np.random.default_rng(n)
    m = np.full((6, n), value, dtype=np.int64)
    m[3:] = rng.integers(0, P, size=(3, n))
    bits = rng.integers(0, 2, size=(n, 5), dtype=np.uint8)
    bits[:, 0] = 1
    got = gemm._times_bits(m, bits)
    assert np.array_equal(got, _times_bits_three_limbs(m, bits))
    assert (got[:3, 0] == n * value % P).all()


@pytest.mark.parametrize("n", (1, 2, 227, 228, 1024, gemm.MAX_DIMENSION))
@pytest.mark.parametrize("k", (1, 5, 64))
def test_stacked_product_matches_field_matmul_on_saturated_entries(n, k):
    """Every limb of every entry saturated, so each of the nine stacked
    products reaches n (2^21 - 1)^2, the largest float64 sum it forms."""
    rng = np.random.default_rng(n + k)
    a = np.full((4, n), (1 << 63) - 1, dtype=np.int64)
    a[1] = P - 1
    a[2:] = rng.integers(0, P, size=(2, n))
    x = np.full((n, k), P - 1, dtype=np.int64)
    x[:, k // 2 :] = rng.integers(0, P, size=(n, k - k // 2))
    got = gemm._times_columns(a, x)
    assert np.array_equal(got, gemm.field_matmul(a, x))
    assert got.min() >= 0 and got.max() < P


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_freivalds_verdicts_match_the_three_limb_check(seed):
    """Same vectors, so the same verdict, on honest and corrupted products."""
    rng = random.Random(seed)
    n, k = rng.randint(1, 40), rng.randint(1, 64)
    a, b = gemm.derive_matrices(hash_bytes(seed.to_bytes(5, "big")), n)
    c = gemm.field_matmul(a, b)
    if seed % 2:
        c = c.copy()
        c[rng.randrange(n), rng.randrange(n)] = rng.randrange(P)
    got = gemm.freivalds_check(a, b, c, k, random.Random(seed))
    assert got == _freivalds_three_limbs(a, b, c, k, random.Random(seed))


class _NoDraws(random.Random):
    def getrandbits(self, k):
        raise AssertionError("a refused check drew its vectors")


def test_freivalds_refuses_dimensions_past_the_exactness_bound():
    """Above MAX_DIMENSION a stacked limb sum could pass 2^53; the shapes
    alone refuse it (the operands here are broadcast views, 8 bytes each)."""
    n = gemm.MAX_DIMENSION + 1
    zero = np.broadcast_to(np.int64(0), (n, n))
    with pytest.raises(ValueError, match=f"n = {gemm.MAX_DIMENSION}"):
        gemm.freivalds_check(zero, zero, zero, 1, _NoDraws(0))


def test_freivalds_validation():
    a = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        gemm.freivalds_check(a, a, np.zeros((2, 2), dtype=np.int64), 1, random.Random(0))
    with pytest.raises(ValueError):
        gemm.freivalds_check(a, a, a, 0, random.Random(0))


# --- solve / verify ---------------------------------------------------------------


def test_solve_then_verify_round_trip():
    params = gemm.GemmParams(dimension_n=16, difficulty_d=3, freivalds_k=5)
    proof = gemm.solve_gemm_puzzle(b"session-1", params)
    assert gemm.verify_gemm_puzzle(b"session-1", params, proof)
    # an honest product passes whatever vectors the verifier draws
    assert gemm.verify_gemm_puzzle(b"session-1", params, proof)


def test_solve_difficulty_zero_takes_first_index():
    params = gemm.GemmParams(dimension_n=4, difficulty_d=0, freivalds_k=2)
    proof = gemm.solve_gemm_puzzle(b"s", params)
    assert proof.index_jstar == 0
    assert proof.chain_state_sigma == hash_bytes(b"s")


def test_solve_chain_state_matches_index():
    params = gemm.GemmParams(dimension_n=8, difficulty_d=4, freivalds_k=2)
    proof = gemm.solve_gemm_puzzle(b"chain", params)
    sigma = hash_bytes(b"chain")
    for _ in range(proof.index_jstar):
        sigma = hash_bytes(sigma)
    assert sigma == proof.chain_state_sigma
    # the product is the real one for that state
    a, b = gemm.derive_matrices(sigma, 8)
    assert np.array_equal(proof.product_C, gemm.field_matmul(a, b))


def test_verify_rejects_tampered_product():
    params = gemm.GemmParams(dimension_n=8, difficulty_d=2, freivalds_k=6)
    proof = gemm.solve_gemm_puzzle(b"t", params)
    bad = proof.product_C.copy()
    bad[2, 2] = (bad[2, 2] + 1) % P
    forged = gemm.GemmProof(proof.index_jstar, bad, proof.chain_state_sigma)
    # digest binds the exact product, so this fails before Freivalds runs
    assert not gemm.verify_gemm_puzzle(b"t", params, forged)


def test_verify_rejects_wrong_index_or_state():
    params = gemm.GemmParams(dimension_n=8, difficulty_d=2, freivalds_k=3)
    proof = gemm.solve_gemm_puzzle(b"u", params)
    assert not gemm.verify_gemm_puzzle(
        b"u", params, gemm.GemmProof(proof.index_jstar + 1, proof.product_C, proof.chain_state_sigma)
    )
    assert not gemm.verify_gemm_puzzle(
        b"u", params, gemm.GemmProof(proof.index_jstar, proof.product_C, hash_bytes(b"other"))
    )
    assert not gemm.verify_gemm_puzzle(b"other-session", params, proof)
    assert not gemm.verify_gemm_puzzle(
        b"u", params, gemm.GemmProof(-1, proof.product_C, proof.chain_state_sigma)
    )


def test_verify_rejects_noncanonical_entries():
    params = gemm.GemmParams(dimension_n=4, difficulty_d=0, freivalds_k=2)
    proof = gemm.solve_gemm_puzzle(b"v", params)
    shifted = proof.product_C.copy()
    shifted[0, 0] -= P  # same residue class, wrong representative
    assert not gemm.verify_gemm_puzzle(
        b"v", params, gemm.GemmProof(proof.index_jstar, shifted, proof.chain_state_sigma)
    )
    wrong_shape = np.zeros((5, 5), dtype=np.int64)
    assert not gemm.verify_gemm_puzzle(
        b"v", params, gemm.GemmProof(proof.index_jstar, wrong_shape, proof.chain_state_sigma)
    )


def _honest_proof_at(sid: bytes, params: gemm.GemmParams, index: int) -> gemm.GemmProof:
    sigma = hash_bytes(sid)
    for _ in range(index):
        sigma = hash_bytes(sigma)
    a, b = gemm.derive_matrices(sigma, params.dimension_n)
    return gemm.GemmProof(index, gemm.field_matmul(a, b), sigma)


def test_verify_honors_attempt_cap():
    # at d = 0 every chain index clears the target, so only the budget refuses one
    params = gemm.GemmParams(dimension_n=4, difficulty_d=0, freivalds_k=2)
    assert params.max_attempts == 256
    last = _honest_proof_at(b"w", params, params.max_attempts - 1)
    assert gemm.verify_gemm_puzzle(b"w", params, last)
    past = _honest_proof_at(b"w", params, params.max_attempts)
    assert not gemm.verify_gemm_puzzle(b"w", params, past)


def test_solve_raises_when_capped_out(monkeypatch):
    """At d = 0 the budget is 2^8 chain indices: a target that never
    clears spends exactly those, then raises the one exhaustion error."""
    checked = []
    monkeypatch.setattr(gemm, "digest_below_target", lambda *args: checked.append(args) and False)
    params = gemm.GemmParams(dimension_n=2, difficulty_d=0, freivalds_k=1)
    with pytest.raises(PuzzleExhaustedError, match="within 256 attempts"):
        gemm.solve_gemm_puzzle(b"capped", params)
    assert len(checked) == 256
    assert gemm.PuzzleExhaustedError is PuzzleExhaustedError


def test_params_validation():
    with pytest.raises(ValueError):
        gemm.GemmParams(dimension_n=0)
    with pytest.raises(ValueError):
        gemm.GemmParams(difficulty_d=33)
    with pytest.raises(ValueError):
        gemm.GemmParams(freivalds_k=0)
    # a solve's memory bounds n, well inside the kernel's inner-dimension bound
    assert gemm.GemmParams(dimension_n=gemm.MAX_DIMENSION).dimension_n == gemm.MAX_DIMENSION
    assert gemm.MAX_DIMENSION < gemm._MAX_DIM
    for too_large in (gemm.MAX_DIMENSION + 1, gemm._MAX_DIM + 1):
        with pytest.raises(ValueError, match="dimension"):
            gemm.GemmParams(dimension_n=too_large)


def test_freivalds_k_is_at_most_64():
    """k = 64 already bounds a false accept by 2^-64; a larger k only
    makes each verification slower, without bound."""
    assert gemm.GemmParams(freivalds_k=64).freivalds_k == 64
    for k in (65, 1 << 20, 1 << 30):
        with pytest.raises(ValueError, match="freivalds_k"):
            gemm.GemmParams(freivalds_k=k)


def test_attempt_count_is_geometric_at_difficulty():
    """Mean index over many sessions tracks the 2^d - 1 geometric mean."""
    params = gemm.GemmParams(dimension_n=2, difficulty_d=3, freivalds_k=1)
    rng = random.Random(99)
    indices = [
        gemm.solve_gemm_puzzle(rng.randrange(1 << 62).to_bytes(8, "big"), params).index_jstar
        for _ in range(150)
    ]
    mean = sum(indices) / len(indices)
    # geometric with p = 2^-3: mean 7, sd 7.48; 150 draws give se ~0.61
    assert 4.5 <= mean <= 9.5
