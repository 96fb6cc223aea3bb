"""Sequential-squaring delay function over an RSA group of unknown order.

A worker that claims T sequential squarings must spend real wall time,
because squaring in Z_N* has no known shortcut without the factors of
N.  The succinct proof (Wesolowski-style) lets the challenger check the
claim with two 128-bit-exponent exponentiations instead of redoing the
chain.  A batch of instances shares one challenge prime q, hashed from
the whole batch transcript, and each instance is checked on its own
under that q: one 128-bit-exponent check per instance costs less than a
fold of the batch with 128-bit random scalars, which is only cheaper
when the scalars are much shorter than the exponents (Bellare, Garay &
Rabin, *Fast Batch Verification for Modular Exponentiation*, 1998), and
it binds every proof, not only their product.  There is one Fiat-Shamir
transcript: a single proof is a batch of one, so ``prove`` and
``verify`` run the code a session runs.

Proofs live in Z_N*/{+-1}: x and N - x are one element, written as its
canonical representative min(x, N - x) in [1, (N-1)/2], and the
relation pi^q * g^r = +-y is checked in that quotient; a sign flip is a
different, non-canonical encoding and is refused (Pietrzak, *Simple
Verifiable Delay Functions*, ITCS 2019; Boneh, Bunz & Fisch, *A Survey
of Two Verifiable Delay Functions*, 2018).  eval itself still returns
g^(2^T) in Z_N*.

Every large exponentiation is one ``_modexp``, every product of two
powers one ``_modexp2`` and every Baillie-PSW verdict one
``_bignum.baillie_psw``: ``_bignum`` alone decides where each runs.
eval is g^(2^T) and a proof pi = g^floor(2^T / q), so a prover runs
about 2T squarings per instance (Wesolowski, *Efficient Verifiable
Delay Functions*, 2019), and a verifier's relation pi^q * g^r is one
``_modexp2``.  Baillie-PSW is deterministic, so challenger and worker
derive the same challenge prime from a transcript.  Its search sieves
windows of odd candidates by the odd primes up to 2048 before any
verdict; it is most of what a small-delay batch costs to verify, and
the prover runs it too.

Group setup uses safe primes so the quadratic-residue subgroup has
prime-order structure; test fixtures keep the factorization around as a
trapdoor oracle (exponent reduction via the group exponent), which is
exactly the shortcut the construction denies to everyone else.  Both
prime searches share one window sieve, ``_WindowSieve``; the safe-prime
search sieves p' and 2p' + 1 at once, so about 80 of every 4096
candidates reach a verdict, in the order a plain scan would test them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import _bignum
from ._bignum import modexp as _modexp
from ._bignum import modexp2 as _modexp2
from .core import encode_fields, hash_bytes

CHALLENGE_PRIME_BITS = 128

_PRODUCTION_BITS = (128, 512, 1024, 2048)

# The largest delay and batch a challenge may name: a worker builds 2^T
# (2 MiB at most) and runs about 2T squarings for each instance, and the
# delays of one challenge sum to at most MAX_DELAY.
MAX_DELAY = 1 << 24
MAX_INSTANCES = 4096


def _small_primes(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


# the one small-prime table: the window sieve of the safe-prime search
# uses its primes from 5 up, is_probable_prime and the challenge-prime
# sieve those up to _SIEVE_LIMIT
_WINDOW_SIEVE_BOUND = 1 << 16
_TABLE_PRIMES = _small_primes(_WINDOW_SIEVE_BOUND)
_SIEVE_LIMIT = 2048
_SIEVE_PRIMES = _TABLE_PRIMES[_TABLE_PRIMES <= _SIEVE_LIMIT].tolist()
_SMALL_PRIMES = frozenset(_SIEVE_PRIMES)
_PRIMORIAL = math.prod(_SIEVE_PRIMES)

_SAFE_PRIME_DRAWS = 2_000_000
_SAFE_PRIME_WINDOW = 4096
# odd candidates per window of the challenge-prime search: a 128-bit
# prime lies within 128 odd steps of a hash point about 94% of the time
_PRIME_WINDOW = 128


def _inverse_mod(step: int, primes: np.ndarray) -> np.ndarray:
    """step^-1 mod each of ``primes``, none of which divides step.

    For each l exactly one k < step makes k*l + 1 a multiple of step,
    and (k*l + 1) / step is the inverse.
    """
    inverse = np.zeros_like(primes)
    for k in range(step):
        whole = (k * primes + 1) % step == 0
        inverse[whole] = (k * primes[whole] + 1) // step
    return inverse


class _WindowSieve:
    """A sieve over the values v = cand + step*j, j < window, by a table of odd primes.

    Each row pairs a table prime l with a form of v, v itself or, for a
    ``doubled`` sieve, also 2v + 1, and marks the j where l divides the
    form's value, that is where v = 0 or v = (l - 1) / 2 (mod l).  A
    row's marks are j0 + k*l, so one slot per (row, k) covers every mark
    in the window.  cand mod every prime comes from its limbs, high limb
    first, so no Python loop runs over the primes; a limb is as wide as
    keeps (residue << limb bits) | limb below 2^63.  A prime is never
    used on a value it equals, so a window of values below the largest
    table prime keeps the primes among them.
    """

    def __init__(self, primes: np.ndarray, step: int, window: int, doubled: bool) -> None:
        self.primes = primes.astype(np.int64)
        self.step = step
        self.limb_bits = 63 - int(self.primes[-1]).bit_length()
        self.forms = 2 if doubled else 1
        self.row_prime = np.tile(self.primes, self.forms)
        self.row_doubled = np.arange(len(self.row_prime)) >= len(self.primes)
        # the row's target plus l, so that target - residue stays positive
        self.row_lifted = np.where(self.row_doubled, (self.row_prime - 1) // 2, 0) + self.row_prime
        self.row_inverse = _inverse_mod(step, self.row_prime)
        # a slot's mark lies below window + l, so a sieve this long takes every mark
        self.span = window + int(self.primes[-1])
        slots = -(-window // self.row_prime)
        self.slot_row = np.repeat(np.arange(len(self.row_prime), dtype=np.int32), slots)
        self.slot_step = (
            (np.arange(len(self.slot_row)) - np.repeat(np.cumsum(slots) - slots, slots))
            * self.row_prime[self.slot_row]
        ).astype(np.int32)

    def survivors(self, cand: int, length: int) -> list[int]:
        """The j < length, in order, where no row marks cand + step*j; length <= window."""
        bits, mask = self.limb_bits, (1 << self.limb_bits) - 1
        top = -(-cand.bit_length() // bits) * bits - bits
        residue = (cand >> top) % self.primes
        for shift in range(top - bits, -1, -bits):
            residue = ((residue << bits) | ((cand >> shift) & mask)) % self.primes
        if self.forms > 1:
            residue = np.tile(residue, self.forms)
        first = (self.row_lifted - residue) * self.row_inverse % self.row_prime
        marks = first[self.slot_row] + self.slot_step
        if cand <= self.primes[-1]:
            values = cand + self.step * marks
            doubled = self.row_doubled[self.slot_row]
            marks = marks[np.where(doubled, 2 * values + 1, values) != self.row_prime[self.slot_row]]
        sieve = np.ones(self.span, dtype=bool)
        sieve[marks] = False
        return np.flatnonzero(sieve[:length]).tolist()


# The safe-prime search sieves p' = cand + 6j for both p' and 2p' + 1
# with the primes from 5 below 2^16 (3 is dealt with by cand = 5 mod 6);
# the challenge-prime search sieves odd n = cand + 2j with the odd
# primes up to _SIEVE_LIMIT, which drops exactly the n whose gcd with
# _PRIMORIAL is_probable_prime refuses.
_WINDOW_PRIMES = _TABLE_PRIMES[2:].astype(np.int64)
_SAFE_PRIME_SIEVE = _WindowSieve(_WINDOW_PRIMES, 6, _SAFE_PRIME_WINDOW, doubled=True)
_CHALLENGE_PRIME_SIEVE = _WindowSieve(
    _TABLE_PRIMES[1 : len(_SIEVE_PRIMES)], 2, _PRIME_WINDOW, doubled=False
)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a small-prime sieve, then strong tests to base 2 and Lucas.

    The sieve is one gcd against the primorial of the primes up to 2048.
    Numbers up to 2048 are looked up exactly, and the rest that pass the
    sieve get ``_bignum.baillie_psw``.  The test is deterministic, so
    hash-derived primes are reproducible across challenger and worker.
    """
    if n <= _SIEVE_LIMIT:
        return n in _SMALL_PRIMES
    return math.gcd(n, _PRIMORIAL) == 1 and _bignum.baillie_psw(n)


def _random_safe_prime(bits: int, rng: random.Random) -> int:
    """Find p = 2p' + 1 with both p and p' prime and p exactly ``bits`` bits.

    Draws p' with its top two bits set (so products of two such primes
    keep full width) and scans a window of _SAFE_PRIME_WINDOW steps of 6
    up from it, cut short where p' outgrows ``bits - 1`` bits: p' must
    be 5 mod 6, otherwise either p' or 2p' + 1 is divisible by 3.  One
    sieve per window drops every step where a prime below 2^16 divides
    p' or 2p' + 1 (Wiener, *Safe Prime Generation with a Combined
    Sieve*, 2003); the rest are tested in order, so the prime found is
    the first one a candidate-by-candidate scan finds.
    """
    if bits < 5:
        raise ValueError("safe primes this small do not exist as full-width pairs")
    half_bits = bits - 1
    # two forced MSBs keep N full-width; tiny fixture sizes get one so
    # the candidate pool is not a single residue class
    top = (1 << (half_bits - 1)) | (1 << (half_bits - 2)) if half_bits >= 8 else 1 << (half_bits - 1)
    for _ in range(_SAFE_PRIME_DRAWS):
        cand = rng.getrandbits(half_bits)
        cand |= top | 1
        cand += (5 - cand % 6) % 6
        length = min(_SAFE_PRIME_WINDOW, max(0, ((1 << half_bits) - 1 - cand) // 6 + 1))
        for step in _SAFE_PRIME_SIEVE.survivors(cand, length):
            p_half = cand + 6 * step
            p = 2 * p_half + 1
            if p_half <= _SIEVE_LIMIT:
                if is_probable_prime(p_half) and is_probable_prime(p):
                    return p
            # the sieve stands in for is_probable_prime's gcd on both
            elif _bignum.baillie_psw(p_half, p):
                return p
    raise RuntimeError(f"safe-prime search exhausted after {_SAFE_PRIME_DRAWS} draws")


@dataclass(frozen=True)
class GroupParams:
    """RSA group N = p*q of safe primes.

    ``trapdoor``, when present, is (p, q, p'*q'); p'*q' is the order of
    the quadratic-residue subgroup and 2*p'*q' the group exponent.  Only
    test fixtures carry it; production setup discards the factors.
    """

    modulus_N: int
    trapdoor: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.modulus_N < 15 or self.modulus_N % 2 == 0:
            raise ValueError("modulus must be an odd composite")
        if self.trapdoor is not None:
            p, q, order = self.trapdoor
            if p * q != self.modulus_N:
                raise ValueError("trapdoor factors do not multiply to N")
            if p == q:
                raise ValueError("factors must be distinct")
            p_half, q_half = (p - 1) // 2, (q - 1) // 2
            if p_half * q_half != order:
                raise ValueError("trapdoor order must equal p'q'")
            for value in (p, q, p_half, q_half):
                if not is_probable_prime(value):
                    raise ValueError("trapdoor factors must be safe primes")

    @property
    def group_exponent(self) -> int:
        """lcm(p-1, q-1) = 2p'q'; requires the trapdoor."""
        if self.trapdoor is None:
            raise ValueError("group exponent requires the trapdoor")
        return 2 * self.trapdoor[2]


@dataclass(frozen=True)
class VdfInstance:
    generator_g: int
    delay_T: int


@dataclass(frozen=True)
class VdfParams:
    """Per-round settings: the modulus, the delay range, instances per round.

    The modulus is at most 2048 bits, the largest production size: a
    worker runs its squarings on whatever modulus a challenge names.
    """

    modulus_n: int
    t_min: int = 1 << 10
    t_max: int = 1 << 12
    instances: int = 4

    def __post_init__(self) -> None:
        if self.modulus_n < 15 or self.modulus_n % 2 == 0:
            raise ValueError("modulus_n must be odd and >= 15")
        if self.modulus_n.bit_length() > max(_PRODUCTION_BITS):
            raise ValueError(f"modulus_n must have at most {max(_PRODUCTION_BITS)} bits")
        if not 1 <= self.t_min <= self.t_max:
            raise ValueError("need 1 <= t_min <= t_max")
        if not 1 <= self.instances <= MAX_INSTANCES:
            raise ValueError(f"instances must lie in [1, {MAX_INSTANCES}]")
        # the total, not each chain: one serving thread may run all of them
        if self.instances * self.t_max > MAX_DELAY:
            raise ValueError(f"instances * t_max must be at most {MAX_DELAY}")

    def derive_instances(self, sid: bytes) -> list[VdfInstance]:
        return [
            derive_instance(sid, i, self.modulus_n, self.t_min, self.t_max)
            for i in range(self.instances)
        ]


@dataclass(frozen=True)
class VdfSettings:
    """Session settings of a ``vdf`` block: the size of a fresh group."""

    modulus_bits: int = 512

    def __post_init__(self) -> None:
        # setup_group also takes fixture sizes below 128 bits, which
        # anyone factors at once; a session group is a production size
        if self.modulus_bits not in _PRODUCTION_BITS:
            raise ValueError(f"modulus_bits must be one of {_PRODUCTION_BITS}")


@dataclass(frozen=True)
class VdfProof:
    """Succinct evaluation proof: y = g^(2^T), pi = g^floor(2^T / q), r = 2^T mod q.

    ``output_y`` and ``pi`` are canonical representatives in Z_N*/{+-1}.
    """

    output_y: int
    pi: int
    remainder_r: int
    challenge_prime: int

    def __post_init__(self) -> None:
        if not 0 <= self.remainder_r < self.challenge_prime:
            raise ValueError("remainder out of range for the challenge prime")


def setup_group(
    bits: int, rng: random.Random, keep_trapdoor: bool = False
) -> GroupParams:
    """Generate N = p*q from two distinct safe primes of bits/2 each.

    Production sizes are 128 (test), 512, 1024, 2048; anything below 128
    is allowed as a fixture size and always implies brute-force-sized
    groups, so such moduli are only useful with keep_trapdoor.
    """
    if bits not in _PRODUCTION_BITS and not 12 <= bits < 128:
        raise ValueError(f"unsupported modulus size {bits}")
    half = bits // 2
    p = _random_safe_prime(half, rng)
    q = _random_safe_prime(half, rng)
    for _ in range(256):
        if q != p:
            break
        q = _random_safe_prime(half, rng)
    else:
        raise RuntimeError(f"could not find two distinct safe primes at {half} bits")
    n = p * q
    trapdoor = (p, q, ((p - 1) // 2) * ((q - 1) // 2)) if keep_trapdoor else None
    return GroupParams(modulus_N=n, trapdoor=trapdoor)


def hash_to_qr(sid: bytes, index: int, modulus_n: int) -> int:
    """Map (sid, index) to a quadratic residue: square of a hash point.

    Returns (H(sid, index) mod N)^2 mod N.  Squaring guarantees QR
    membership; the degenerate outputs 0, 1 and N-1 are re-hashed with
    an appended counter so the generator never lands on a fixed point.
    """
    if modulus_n < 3:
        raise ValueError("modulus too small")
    counter = 0
    while True:
        if counter == 0:
            h = hash_bytes(encode_fields(sid, index))
        else:
            h = hash_bytes(encode_fields(sid, index, counter))
        g = pow(int.from_bytes(h, "big") % modulus_n, 2, modulus_n)
        if g not in (0, 1, modulus_n - 1):
            return g
        counter += 1


def derive_delay(sid: bytes, index: int, t_min: int, t_max: int) -> int:
    """Deterministic delay in [t_min, t_max] from the session transcript."""
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    span = t_max - t_min + 1
    h = hash_bytes(encode_fields(sid, "delay", index))
    return t_min + int.from_bytes(h, "big") % span


def derive_instance(
    sid: bytes, index: int, modulus_n: int, t_min: int, t_max: int
) -> VdfInstance:
    """Bundle hash_to_qr and derive_delay into one instance record."""
    return VdfInstance(
        generator_g=hash_to_qr(sid, index, modulus_n),
        delay_T=derive_delay(sid, index, t_min, t_max),
    )


def eval(g: int, delay_t: int, modulus_n: int) -> int:  # noqa: A001 - contract name
    """y = g^(2^T) mod N by T dependent squarings.

    This chain is the delay: each squaring consumes the previous result,
    so no amount of parallel hardware shortens it.  It runs as one
    ``_modexp(g, 2^T, N)``.
    """
    if not 2 <= g <= modulus_n - 1:
        raise ValueError("generator out of range")
    if delay_t < 0:
        raise ValueError("delay must be non-negative")
    return _modexp(g, 1 << delay_t, modulus_n)


def trapdoor_eval(g: int, delay_t: int, group: GroupParams) -> int:
    """Shortcut evaluation through the group exponent; test oracle only.

    Reduces 2^T modulo lambda(N) = 2p'q' before a single exponentiation.
    Agreement with eval() is the central correctness check for the whole
    module, and the speed gap is the sequentiality argument itself.
    """
    if group.trapdoor is None:
        raise ValueError("trapdoor_eval needs a group with the trapdoor retained")
    lam = group.group_exponent
    return pow(g, pow(2, delay_t, lam), group.modulus_N)


def canonical(x: int, modulus_n: int) -> int:
    """The representative of x's class in Z_N*/{+-1}: min(x, N - x)."""
    return min(x, modulus_n - x)


def _is_canonical(x: int, modulus_n: int) -> bool:
    return 1 <= x <= modulus_n // 2


def hash_to_prime(transcript: bytes) -> int:
    """Smallest Baillie-PSW probable prime at or above the hash point, forced to 128 bits.

    The candidate is the low 128 bits of H(transcript || "prime") with
    the top bit set (so the prime always has full width), scanned upward
    over odd integers by ``_next_probable_prime``.
    """
    h = hash_bytes(transcript + b"prime")
    cand = int.from_bytes(h, "big") % (1 << CHALLENGE_PRIME_BITS)
    cand |= (1 << (CHALLENGE_PRIME_BITS - 1)) | 1
    return _next_probable_prime(cand)


def _next_probable_prime(cand: int) -> int:
    """The least odd n >= cand with is_probable_prime(n), for odd cand > _SIEVE_LIMIT.

    Each window of _PRIME_WINDOW odd candidates is sieved once by the
    odd primes up to _SIEVE_LIMIT, which drops exactly the n that
    is_probable_prime's gcd refuses, so no candidate pays for a gcd; the
    survivors get ``_bignum.baillie_psw``, in order.  The residues are
    taken afresh for each window, so a search that crosses 2^128 sieves
    the wider values by their own limbs.
    """
    while True:
        for j in _CHALLENGE_PRIME_SIEVE.survivors(cand, _PRIME_WINDOW):
            n = cand + 2 * j
            if _bignum.baillie_psw(n):
                return n
        cand += 2 * _PRIME_WINDOW


def batch_transcript(
    modulus_n: int, instances: list[VdfInstance], outputs: list[int], sid: bytes
) -> bytes:
    parts: list[bytes | int | str] = [modulus_n]
    for inst, y in zip(instances, outputs):
        parts.extend((inst.generator_g, y, inst.delay_T))
    parts.append(sid)
    return encode_fields(*parts)


def _proof(g: int, y: int, delay_t: int, prime: int, modulus_n: int) -> VdfProof:
    """Proof for y = g^(2^T) under ``prime``: pi = g^floor(2^T / q), r = 2^T mod q."""
    return VdfProof(
        output_y=canonical(y, modulus_n),
        pi=canonical(_modexp(g, (1 << delay_t) // prime, modulus_n), modulus_n),
        remainder_r=pow(2, delay_t, prime),
        challenge_prime=prime,
    )


def prove(g: int, delay_t: int, y: int, modulus_n: int, sid: bytes) -> VdfProof:
    """The succinct proof for y = g^(2^T) mod N: ``prove_batch`` on a batch of one.

    The challenge prime is hashed from the batch transcript of the one
    instance and its canonical y.  pi is one exponentiation by
    floor(2^T / q), a (T - 127)-bit exponent, so proving costs about as
    much as eval again.
    """
    return prove_batch([VdfInstance(g, delay_t)], [y], modulus_n, sid)[0]


def _relation_holds(
    g: int, delay_t: int, proof: VdfProof, prime: int, modulus_n: int
) -> bool:
    """pi^q * g^r == +-y (mod N) under ``prime``, with canonical y and pi.

    The per-instance check of ``batch_verify``: the proof must name
    ``prime``, its remainder must be 2^T mod q, and y and pi must be
    canonical, so the relation holds in Z_N*/{+-1}; the relation itself
    is one ``_modexp2`` of two exponents below q.
    """
    if proof.challenge_prime != prime:
        return False
    if not _is_canonical(proof.output_y, modulus_n):
        return False
    if not _is_canonical(proof.pi, modulus_n):
        return False
    if proof.remainder_r != pow(2, delay_t, prime):
        return False
    lhs = _modexp2(proof.pi, prime, g, proof.remainder_r, modulus_n)
    return lhs in (proof.output_y, modulus_n - proof.output_y)


def verify(g: int, delay_t: int, proof: VdfProof, modulus_n: int, sid: bytes) -> bool:
    """Check one proof: ``batch_verify`` on a batch of one.

    g must lie in [2, N - 1] and T be non-negative; then pi^q * g^r ==
    +-y (mod N) is checked under the prime of the one-instance batch
    transcript, recomputed locally so a prover cannot choose it.  Two
    exponentiations by 128-bit exponents replace the T-squaring chain.
    """
    if not 2 <= g <= modulus_n - 1 or delay_t < 0:
        return False
    return batch_verify([VdfInstance(g, delay_t)], [proof], modulus_n, sid)


def prove_batch(
    instances: list[VdfInstance], outputs: list[int], modulus_n: int, sid: bytes
) -> list[VdfProof]:
    """Proofs for a batch sharing one challenge prime, hashed from the batch transcript."""
    if len(instances) != len(outputs):
        raise ValueError("instances and outputs differ in length")
    outputs = [canonical(y, modulus_n) for y in outputs]
    prime = hash_to_prime(batch_transcript(modulus_n, instances, outputs, sid))
    return [
        _proof(inst.generator_g, y, inst.delay_T, prime, modulus_n)
        for inst, y in zip(instances, outputs)
    ]


def solve_batch(
    instances: list[VdfInstance], modulus_n: int, sid: bytes
) -> list[VdfProof]:
    """Evaluate every instance of a batch, then prove them under one prime."""
    outputs = [eval(inst.generator_g, inst.delay_T, modulus_n) for inst in instances]
    return prove_batch(instances, outputs, modulus_n, sid)


def batch_verify(
    instances: list[VdfInstance],
    proofs: list[VdfProof],
    modulus_n: int,
    sid: bytes,
) -> bool:
    """Verify C instances, each on its own, under the batch's shared prime.

    The prime q is hashed from the batch transcript (N, every g_i, y_i
    and T_i, and sid), so no y_i can change once q is known.  Each
    instance must then pass its own check under q: a canonical y_i and pi_i, r_i = 2^(T_i) mod q, and

        pi_i^q * g_i^(r_i) == +-y_i  (mod N),

    one ``_modexp2`` of two exponents below q per instance.  Every proof
    is bound on its own, so moving a factor from one pi_i to another,
    which leaves a product of the relations intact, fails both instances.
    The one prime search, ``hash_to_prime``, is shared by the batch; on
    small delays it costs more than the relations.
    """
    if len(instances) != len(proofs):
        raise ValueError("instances and proofs differ in length")
    if not instances:
        raise ValueError("empty batch")
    prime = hash_to_prime(
        batch_transcript(modulus_n, instances, [p.output_y for p in proofs], sid)
    )
    return all(
        _relation_holds(inst.generator_g, inst.delay_T, proof, prime, modulus_n)
        for inst, proof in zip(instances, proofs)
    )
