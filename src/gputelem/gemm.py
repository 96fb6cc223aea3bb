"""Hash-chained matrix-product puzzle with probabilistic verification.

The worker walks a hash chain; each state expands into two pseudorandom
matrices whose exact product over GF(2^61 - 1) is hashed against a
difficulty target.  Finding a passing index takes a geometric number of
full products, but checking one takes j* cheap hashes plus Freivalds'
O(k n^2) spot check, never a second n^3 multiplication.

All arithmetic is exact in the prime field, so verification is
bit-reproducible: there is no epsilon, no rounding mode, and no
accumulation-order sensitivity to argue about.

The field product runs on float64 BLAS, the standard way to do
word-size finite-field linear algebra on floating-point hardware (Dumas,
Giorgi & Pernet, *FFLAS-FFPACK: Dense Linear Algebra over Word-Size
Finite Fields using Floating-Point BLAS*, ACM TOMS 2008).  Each operand
is split into three 21-bit limbs, so one limb product is an integer
below 2^42.  A float64 holds every integer up to 2^53 exactly, so a sum
of such products is exact as long as its total stays below 2^53: every
partial sum of non-negative terms is then an integer below 2^53 too, and
the result cannot depend on the order or blocking the BLAS picks.  The
inner dimension is cut into chunks short enough to keep that bound, and
the chunks are summed and reduced mod p in integer arithmetic.

Freivalds' check (Freivalds, IFIP 1977) keeps the same discipline at a
fraction of the cost.  Its vectors are 0/1, so B r and C r need only two
limbs of each matrix (31 + 30 bits), one small float64 product apiece
with every sum below n 2^31 <= 2^42.  A (B r) is one float64 product of
A's three 21-bit limbs, stacked as a 3n x n matrix, against the limbs of
B r laid side by side as n x 3k; its nine n x k blocks fall into the
same three groups as in ``field_matmul``.  One check costs a handful of
numpy passes over n^2 entries, all of them reading A, B or C once.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .core import PuzzleExhaustedError, digest_below_target, encode_fields, hash_bytes, keyed_xor_into

FIELD_MODULUS = (1 << 61) - 1  # Mersenne prime: reduction is shift-and-add

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SHIFTS = np.array([0, _LIMB_BITS, 2 * _LIMB_BITS]).reshape(3, 1, 1)
# a group entry gains at most 9 (2^21 - 1)^2 per inner index (see
# field_matmul), so over this many indices every float64 sum stays below 2^53
_CHUNK = (1 << 53) // (9 * _LIMB_MASK**2)
_MAX_DIM = 1 << 15  # summed chunks stay below 2^61 up to this n
# the largest n a challenge may name: a solve holds about 137 n^2 bytes
# (548 MiB here), within the dataset a worker may be asked to plant, and
# n (2^21 - 1)^2 < 2^53 keeps every float64 sum of freivalds_check exact
MAX_DIMENSION = 2048
# the two limbs of a 0/1 product: entry = low + high 2^31, high < 2^30
_LOW_BITS = 31
_LOW_MASK = (1 << _LOW_BITS) - 1
_HIGH_BITS = 61 - _LOW_BITS


@dataclass(frozen=True)
class GemmParams:
    """Puzzle shape: matrix side n, difficulty bits d, Freivalds rounds k."""

    dimension_n: int = 64
    difficulty_d: int = 4
    freivalds_k: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.dimension_n <= MAX_DIMENSION:
            raise ValueError(f"matrix dimension must lie in [1, {MAX_DIMENSION}]")
        if not 0 <= self.difficulty_d <= 32:
            raise ValueError("difficulty must lie in [0, 32]")
        # at k = 64 a wrong product passes with chance 2^-64 already
        if not 1 <= self.freivalds_k <= 64:
            raise ValueError("freivalds_k must lie in [1, 64]")

    @property
    def max_attempts(self) -> int:
        """Chain indices a solve may try: 2^(d+8), 256x the expected effort."""
        return 1 << (self.difficulty_d + 8)


@dataclass(frozen=True, eq=False)
class GemmProof:
    """Claimed solution: attempt index, its chain state, and the product."""

    index_jstar: int
    product_C: np.ndarray
    chain_state_sigma: bytes


def matrix_bytes(matrix: np.ndarray) -> bytes:
    """Canonical encoding hashed into h_j: row-major, 8-byte big-endian."""
    return np.ascontiguousarray(matrix, dtype=np.int64).astype(">u8").tobytes()


def matrix_from_bytes(data: bytes, n: int) -> np.ndarray:
    """The n x n matrix of ``matrix_bytes``; a wrong length is a ValueError."""
    if len(data) != 8 * n * n:
        raise ValueError("matrix byte length does not match dimension")
    return np.frombuffer(data, dtype=">u8").astype(np.int64).reshape(n, n)


def derive_matrices(sigma: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand a chain state into the attempt's two matrices.

    One keyed stream of 16 n^2 bytes, ``keyed_stream(sigma, 16 n^2,
    encode_fields("gemm-AB"))``, is read as 2 n^2 little-endian 64-bit
    words.  Each word is masked to its low 61 bits and reduced mod p;
    the first n^2 words fill A row-major and the next n^2 fill B.  Only
    the masked value 2^61 - 1 = p folds onto another entry (0), so the
    entries are uniform up to a bias of 2^-61.  The challenger never
    ships matrices, only the 32-byte state they grow from.

    The stream is XORed straight into a zeroed word array
    (``keyed_xor_into``), and since a masked word is at most p the
    reduction is that one fold, not a division per word.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    words = np.zeros(2 * n * n, dtype="<u8")
    keyed_xor_into(words, sigma, encode_fields("gemm-AB"))
    words &= np.uint64(FIELD_MODULUS)
    words[words == FIELD_MODULUS] = 0
    entries = words.view("<i8")  # every entry is below 2^61
    return entries[: n * n].reshape(n, n), entries[n * n :].reshape(n, n)


def field_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product mod 2^61 - 1 on float64 BLAS.

    Exact for every non-negative int64 entry at every inner dimension up
    to 2^15.  Each entry x splits into 21-bit limbs x0 + x1 2^21 + x2
    2^42, so a limb product is below 2^42.  Limb product a_i b_j carries
    weight 2^(21(i+j)); since 2^63 = 4 (mod p), the weights 2^63 and
    2^84 wrap round to 4 and 4 * 2^21, and the nine products fall into
    three groups of weight 1, 2^21 and 2^42:

        g0 = a0 b0 + 4 a1 b2 + 4 a2 b1
        g1 = a0 b1 + a1 b0 + 4 a2 b2
        g2 = a0 b2 + a1 b1 + a2 b0

    Per inner index a group entry gains at most 9 (2^21 - 1)^2, so over
    ``_CHUNK`` = floor(2^53 / (9 (2^21 - 1)^2)) = 227 indices every
    float64 partial sum is an integer below 2^53, exact in any summation
    order.  Each chunk's groups are nine dgemm calls; the chunks add up
    in int64 (below 2^61 through n = 2^15), and a uint64 shift-and-add
    fold with 2^61 = 1 (mod p) reduces g0 + g1 2^21 + g2 2^42.  Output
    entries are canonical, in [0, p).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("operands must be conformable 2-D matrices")
    if a.shape[1] > _MAX_DIM:
        raise ValueError(f"inner dimension above {_MAX_DIM} would overflow int64")

    a_limbs = ((a >> _LIMB_SHIFTS) & _LIMB_MASK).astype(np.float64)
    b_limbs = ((b >> _LIMB_SHIFTS) & _LIMB_MASK).astype(np.float64)
    b_wrapped = 4.0 * b_limbs
    groups = np.zeros((3, a.shape[0], b.shape[1]), dtype=np.int64)
    for start in range(0, a.shape[1], _CHUNK):
        part = slice(start, start + _CHUNK)
        a_l, b_l, b_w = a_limbs[:, :, part], b_limbs[:, part], b_wrapped[:, part]
        for k in range(3):
            # i > k is a wrapped product: b_w[k - i] is 4 b_(k - i + 3)
            terms = (a_l[i] @ (b_l if i <= k else b_w)[k - i] for i in range(3))
            groups[k] += sum(terms).astype(np.int64)

    return _fold(groups)


def _fold(groups: np.ndarray) -> np.ndarray:
    """g0 + g1 2^21 + g2 2^42 mod p, for int64 groups in [0, 2^61)."""
    # g * 2^s = (g mod 2^(61-s)) 2^s + (g >> (61-s)) 2^61, and 2^61 = 1
    p = FIELD_MODULUS
    g0, g1, g2 = groups.view(np.uint64)
    total = g0.copy()
    for group, shift in ((g1, _LIMB_BITS), (g2, 2 * _LIMB_BITS)):
        total += ((group << shift) & p) + (group >> (61 - shift))
    total = (total & p) + (total >> 61)
    return np.where(total >= p, total - p, total).view(np.int64)


def _times_bits(m: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """m bits mod p for a 0/1 matrix ``bits``, from two limbs of m.

    Each entry of m splits into low + high 2^31, low below 2^31 and high
    below 2^30 for an entry below p (below 2^32 for any non-negative
    int64).  Both limbs, stacked as one 2 rows x n float64 matrix, meet
    ``bits`` in one product.  A sum of n <= ``MAX_DIMENSION`` terms is
    then below n 2^31 <= 2^42 (2^43 for any int64 entry), an exact
    integer in any summation order.  Since 2^61 = 1 (mod p),

        H 2^31 = (H mod 2^30) 2^31 + (H >> 30) 2^61
               = ((H mod 2^30) << 31) + (H >> 30)  (mod p),

    so the low sum L plus H 2^31 folds to a uint64 below 2^61 + 2^43,
    under 2p < 2^62, which one conditional subtraction reduces.
    """
    rows = m.shape[0]
    limbs = np.empty((2 * rows, m.shape[1]))
    np.bitwise_and(m, _LOW_MASK, out=limbs[:rows], casting="unsafe")
    np.right_shift(m, _LOW_BITS, out=limbs[rows:], casting="unsafe")
    sums = (limbs @ np.asarray(bits, dtype=np.float64)).astype(np.uint64)
    low, high = sums[:rows], sums[rows:]
    total = low + ((high & np.uint64((1 << _HIGH_BITS) - 1)) << np.uint64(_LOW_BITS))
    total += high >> np.uint64(_HIGH_BITS)
    # total < 2p: one subtraction reduces it, and below p, total - p wraps above it
    return np.minimum(total, total - np.uint64(FIELD_MODULUS)).view(np.int64)


def _times_columns(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x mod p for an n x k matrix x of entries below p, as one float64 product.

    A's three 21-bit limbs, stacked as a 3 rows x n matrix, meet x's
    three limbs laid side by side as n x 3k in one product, whose (i, j)
    block of rows x k entries is a_i x_j.  Each entry of it is a sum of
    n <= ``MAX_DIMENSION`` limb products, below n (2^21 - 1)^2 < 2^53,
    so exact.  The nine blocks fall into ``field_matmul``'s three groups
    in uint64; g0 = a0 x0 + 4 (a1 x2 + a2 x1), the largest, is below
    9 * 2^53 < 2^57, and ``_fold``'s running total of the three stays
    below 2^62.  Only A's limbs are n^2-sized; the rest is n x k.
    """
    rows, inner = a.shape
    k = x.shape[1]
    a_limbs = np.empty((3, rows, inner))
    np.bitwise_and(a, _LIMB_MASK, out=a_limbs[0], casting="unsafe")
    np.bitwise_and(a >> _LIMB_BITS, _LIMB_MASK, out=a_limbs[1], casting="unsafe")
    np.right_shift(a, 2 * _LIMB_BITS, out=a_limbs[2], casting="unsafe")
    x_limbs = ((x[:, None, :] >> _LIMB_SHIFTS[:, 0]) & _LIMB_MASK).astype(np.float64)
    product = a_limbs.reshape(3 * rows, inner) @ x_limbs.reshape(inner, 3 * k)
    t = product.astype(np.uint64).reshape(3, rows, 3, k)  # t[i, :, j] = a_i x_j
    groups = np.empty((3, rows, k), dtype=np.uint64)
    groups[0] = t[0, :, 0] + ((t[1, :, 2] + t[2, :, 1]) << np.uint64(2))
    groups[1] = t[0, :, 1] + t[1, :, 0] + (t[2, :, 2] << np.uint64(2))
    groups[2] = t[0, :, 2] + t[1, :, 1] + t[2, :, 0]
    return _fold(groups)


def puzzle_digest(sid: bytes, sigma: bytes, product: np.ndarray) -> bytes:
    """h_j binding the session, the chain state, and the exact product.

    SHA-256 of ``encode_fields(sid, sigma, matrix_bytes(product))``: the
    length-prefixed sid and sigma, then the product's length and its
    big-endian words, hashed where the one conversion to ``>u8`` put
    them: no ``bytes`` copy of the product and no encoded copy of it.
    """
    words = np.ascontiguousarray(product, dtype=np.int64).astype(">u8")
    scan = hashlib.sha256(encode_fields(sid, sigma))
    scan.update(words.nbytes.to_bytes(4, "big"))
    scan.update(words)
    return scan.digest()


def solve_gemm_puzzle(sid: bytes, params: GemmParams) -> GemmProof:
    """Walk the chain from sigma_0 = H(sid) until an attempt clears the target.

    Each index costs one full matrix product; indices are dependent
    through the chain, so attempts cannot be farmed out in parallel.
    Past ``params.max_attempts`` indices a pathological session raises
    PuzzleExhaustedError instead of looping without bound.
    """
    sigma = hash_bytes(sid)
    for j in range(params.max_attempts):
        a, b = derive_matrices(sigma, params.dimension_n)
        product = field_matmul(a, b)
        if digest_below_target(puzzle_digest(sid, sigma, product), params.difficulty_d):
            return GemmProof(index_jstar=j, product_C=product, chain_state_sigma=sigma)
        sigma = hash_bytes(sigma)
    raise PuzzleExhaustedError(f"no solution within {params.max_attempts} attempts")


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
    by 2^-k.  The k vectors are the columns of one n x k matrix r, so
    all rounds run at once:

    - B r and C r are one float64 product each of the matrix's two
      limbs (``_times_bits``): sums below n 2^31 <= 2^42, and a fold
      whose input is below 2^62.
    - A (B r) is one float64 product of A's stacked 21-bit limbs against
      the limbs of B r (``_times_columns``): products below
      n (2^21 - 1)^2 < 2^53, group sums below 2^57, and a fold whose
      running total stays below 2^62.

    Every float64 sum is exact only for n up to ``MAX_DIMENSION``, so a
    larger n is a ValueError, raised before anything is allocated.  Cost
    is O(k n^2) field operations, in a fixed handful of numpy passes.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c_claimed, dtype=np.int64)
    n = b.shape[0]
    if a.shape != (n, n) or b.shape != (n, n) or c.shape != (n, n):
        raise ValueError("freivalds_check needs three square matrices of one size")
    if n > MAX_DIMENSION:
        raise ValueError(f"freivalds_check is exact only up to n = {MAX_DIMENSION}")
    if k < 1:
        raise ValueError("k must be >= 1")
    # round i draws n bits at once and bit j is row j of column i, so a
    # SystemRandom reads the OS once per round
    width = (n + 7) // 8
    draws = b"".join(rng.getrandbits(n).to_bytes(width, "little") for _ in range(k))
    bits = np.unpackbits(
        np.frombuffer(draws, dtype=np.uint8).reshape(k, width),
        axis=1,
        count=n,
        bitorder="little",
    ).T.astype(np.float64)
    return np.array_equal(_times_columns(a, _times_bits(b, bits)), _times_bits(c, bits))


def verify_gemm_puzzle(
    sid: bytes,
    params: GemmParams,
    proof: GemmProof,
    rng: random.Random | None = None,
) -> bool:
    """Recheck a claimed solution without redoing the multiplication.

    Recomputes the chain state by index_jstar hash applications, the
    threshold digest, and Freivalds-checks the shipped product against
    freshly derived matrices.  The check vectors come from
    ``random.SystemRandom()`` unless the caller passes ``rng``: vectors
    the prover could compute (from the session id or the proof, say)
    let it grind wrong products until one passes.
    """
    if not 0 <= proof.index_jstar < params.max_attempts:
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
    if not digest_below_target(puzzle_digest(sid, sigma, product), params.difficulty_d):
        return False
    a, b = derive_matrices(sigma, params.dimension_n)
    rng = rng if rng is not None else random.SystemRandom()
    return freivalds_check(a, b, product, params.freivalds_k, rng)
