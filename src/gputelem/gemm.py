"""Hash-chained matrix-product puzzle with probabilistic verification.

The worker walks a hash chain; each state expands into two pseudorandom
matrices whose exact product over GF(2^61 - 1) is hashed against a
difficulty target.  Finding a passing index takes a geometric number of
full products, but checking one takes j* cheap hashes plus Freivalds'
O(k n^2) spot check, never a second n^3 multiplication.

All arithmetic is exact in the prime field, so verification is
bit-reproducible: there is no epsilon, no rounding mode, and no
accumulation-order sensitivity to argue about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import digest_below_target, encode_fields, hash_bytes, keyed_stream

FIELD_MODULUS = (1 << 61) - 1  # Mersenne prime: reduction is shift-and-add

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_MAX_DIM = 1 << 15  # limb partial sums stay below 2^59 up to this n


class PuzzleExhaustedError(RuntimeError):
    """Attempt cap hit before any chain index cleared the target."""


@dataclass(frozen=True)
class GemmParams:
    """Puzzle shape: matrix side n, difficulty bits d, Freivalds rounds k."""

    dimension_n: int = 64
    difficulty_d: int = 4
    freivalds_k: int = 5

    def __post_init__(self) -> None:
        if self.dimension_n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not 0 <= self.difficulty_d <= 32:
            raise ValueError("difficulty must lie in [0, 32]")
        if self.freivalds_k < 1:
            raise ValueError("freivalds_k must be >= 1")


@dataclass(frozen=True, eq=False)
class GemmProof:
    """Claimed solution: attempt index, its chain state, and the product."""

    index_jstar: int
    product_C: np.ndarray
    chain_state_sigma: bytes


def matrix_bytes(matrix: np.ndarray) -> bytes:
    """Canonical encoding hashed into h_j: row-major, 8-byte big-endian."""
    return np.ascontiguousarray(matrix, dtype=np.int64).astype(">u8").tobytes()


def derive_matrices(sigma: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand a chain state into the attempt's two matrices.

    One keyed stream of 16 n^2 bytes, ``keyed_stream(sigma, 16 n^2,
    encode_fields("gemm-AB"))``, is read as 2 n^2 little-endian 64-bit
    words.  Each word is masked to its low 61 bits and reduced mod p;
    the first n^2 words fill A row-major and the next n^2 fill B.  Only
    the masked value 2^61 - 1 = p folds onto another entry (0), so the
    entries are uniform up to a bias of 2^-61.  The challenger never
    ships matrices, only the 32-byte state they grow from.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    stream = keyed_stream(sigma, 16 * n * n, encode_fields("gemm-AB"))
    words = np.frombuffer(stream, dtype="<u8") & np.uint64(FIELD_MODULUS)
    entries = (words % np.uint64(FIELD_MODULUS)).astype(np.int64)
    return entries[: n * n].reshape(n, n), entries[n * n :].reshape(n, n)


def field_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product mod 2^61 - 1 on int64 hardware.

    Splits operands into three 21-bit limbs so every partial product
    fits in int64 (valid through n = 2^15), then folds limb weights with
    2^61 = 1 (mod p).  Output entries are canonical, in [0, p).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("operands must be conformable 2-D matrices")
    if a.shape[1] > _MAX_DIM:
        raise ValueError(f"inner dimension above {_MAX_DIM} would overflow int64")

    a0, a1, a2 = a & _LIMB_MASK, (a >> _LIMB_BITS) & _LIMB_MASK, a >> (2 * _LIMB_BITS)
    b0, b1, b2 = b & _LIMB_MASK, (b >> _LIMB_BITS) & _LIMB_MASK, b >> (2 * _LIMB_BITS)

    groups = (
        a0 @ b0,
        a0 @ b1 + a1 @ b0,
        a0 @ b2 + a1 @ b1 + a2 @ b0,
        a1 @ b2 + a2 @ b1,
        a2 @ b2,
    )
    # limb weight 2^(21k) mod p for k = 0..4; 2^63 = 2^2, 2^84 = 2^23
    shifts = (0, 21, 42, 2, 23)

    p = np.uint64(FIELD_MODULUS)
    total = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    for group, shift in zip(groups, shifts):
        term = group.astype(np.uint64)
        if shift:
            split = np.uint64(61 - shift)
            lo = term & np.uint64((1 << (61 - shift)) - 1)
            term = (lo << np.uint64(shift)) + (term >> split)
        total += (term & p) + (term >> np.uint64(61))
    total = (total & p) + (total >> np.uint64(61))
    total = (total & p) + (total >> np.uint64(61))
    total = np.where(total >= p, total - p, total)
    return total.astype(np.int64)


def puzzle_digest(sid: bytes, sigma: bytes, product: np.ndarray) -> bytes:
    """h_j binding the session, the chain state, and the exact product."""
    return hash_bytes(encode_fields(sid, sigma, matrix_bytes(product)))


def solve_gemm_puzzle(
    sid: bytes, params: GemmParams, max_attempts: int | None = None
) -> GemmProof:
    """Walk the chain from sigma_0 = H(sid) until an attempt clears the target.

    Each index costs one full matrix product; indices are dependent
    through the chain, so attempts cannot be farmed out in parallel.
    The cap (default 256x the 2^d expected attempts) turns a pathological
    session into PuzzleExhaustedError instead of an unbounded loop.
    """
    if max_attempts is None:
        max_attempts = 1 << min(params.difficulty_d + 8, 40)
    sigma = hash_bytes(sid)
    for j in range(max_attempts):
        a, b = derive_matrices(sigma, params.dimension_n)
        product = field_matmul(a, b)
        if digest_below_target(puzzle_digest(sid, sigma, product), params.difficulty_d):
            return GemmProof(index_jstar=j, product_C=product, chain_state_sigma=sigma)
        sigma = hash_bytes(sigma)
    raise PuzzleExhaustedError(f"no solution within {max_attempts} attempts")


def freivalds_check(
    a: np.ndarray,
    b: np.ndarray,
    c_claimed: np.ndarray,
    k: int,
    rng: random.Random,
) -> bool:
    """Probabilistic product check: k rounds of A(Br) vs Cr on 0/1 vectors.

    A wrong product survives one round only if its error matrix
    annihilates the random indicator vector, which happens with
    probability at most 1/2; k clean rounds bound the false-accept rate
    by 2^-k.  The k vectors are the columns of one n x k matrix, so the
    rounds run as three matrix products.  Cost is O(k n^2) field
    operations.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c_claimed, dtype=np.int64)
    n = b.shape[0]
    if a.shape != (n, n) or b.shape != (n, n) or c.shape != (n, n):
        raise ValueError("freivalds_check needs three square matrices of one size")
    if k < 1:
        raise ValueError("k must be >= 1")
    # round i's n consecutive draws form column i of r; three products
    # then check all k rounds at once
    r = np.fromiter(
        (rng.getrandbits(1) for _ in range(k * n)), dtype=np.int64, count=k * n
    ).reshape(k, n).T
    return np.array_equal(field_matmul(a, field_matmul(b, r)), field_matmul(c, r))


def _verification_rng(sid: bytes, digest: bytes) -> random.Random:
    """Deterministic Freivalds source bound to the proof being checked."""
    seed = int.from_bytes(hash_bytes(encode_fields(sid, "freivalds", digest)), "big")
    return random.Random(seed)


def verify_gemm_puzzle(
    sid: bytes,
    params: GemmParams,
    proof: GemmProof,
    rng: random.Random | None = None,
    max_attempts: int | None = None,
) -> bool:
    """Recheck a claimed solution without redoing the multiplication.

    Recomputes the chain state by index_jstar hash applications, the
    threshold digest, and Freivalds-checks the shipped product against
    freshly derived matrices.  With rng omitted the check vectors are
    derived from (sid, proof digest), making the verdict reproducible
    but open to a prover who grinds wrong products against them; a
    challenger passes random.SystemRandom() to keep them private.
    """
    if max_attempts is None:
        max_attempts = 1 << min(params.difficulty_d + 8, 40)
    if proof.index_jstar < 0 or proof.index_jstar >= max_attempts:
        return False
    product = np.asarray(proof.product_C, dtype=np.int64)
    if product.shape != (params.dimension_n, params.dimension_n):
        return False
    if product.min() < 0 or product.max() >= FIELD_MODULUS:
        return False
    sigma = hash_bytes(sid)
    for _ in range(proof.index_jstar):
        sigma = hash_bytes(sigma)
    if sigma != proof.chain_state_sigma:
        return False
    digest = puzzle_digest(sid, sigma, product)
    if not digest_below_target(digest, params.difficulty_d):
        return False
    a, b = derive_matrices(sigma, params.dimension_n)
    if rng is None:
        rng = _verification_rng(sid, digest)
    return freivalds_check(a, b, product, params.freivalds_k, rng)
