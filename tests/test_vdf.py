"""Sequential-squaring function tests.

Two oracles anchor this module: sympy for primality and factor
structure, and the trapdoor shortcut (exponent reduction through the
retained factorization) for evaluation. The tiny N = 1081 group keeps
hand-checkable numbers in play next to the 512-bit fixture.
"""

import ctypes.util
import dataclasses
import hashlib
import inspect
import math
import random
import sys
import threading
import time

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gputelem import _bignum, vdf
from gputelem.core import encode_fields, hash_bytes

# --- primality and group setup -----------------------------------------------


def test_probable_prime_agrees_with_sympy_small():
    for n in range(2, 2000):
        assert vdf.is_probable_prime(n) == sympy.isprime(n), n


@given(st.integers(min_value=2, max_value=1 << 70))
@settings(max_examples=150, deadline=None)
def test_probable_prime_agrees_with_sympy_wide(n):
    assert vdf.is_probable_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=2, max_value=1 << 140))
@settings(max_examples=300, deadline=None)
def test_probable_prime_agrees_with_sympy_to_2_140(n):
    assert vdf.is_probable_prime(n) == sympy.isprime(n)
    # random integers are mostly composite; the next prime and a product
    # of two primes keep both answers in play at every width
    prime = int(sympy.nextprime(n))
    assert vdf.is_probable_prime(prime)
    assert not vdf.is_probable_prime(prime * int(sympy.nextprime(n >> 70)))


def test_probable_prime_rejects_strong_pseudoprimes():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, the other
    # two to every prime base up to 17; base 2 passes all three, so the
    # strong Lucas half of Baillie-PSW must catch them
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not vdf.is_probable_prime(n)
        assert not sympy.isprime(n)


def test_baillie_psw_rejects_base_2_strong_pseudoprimes():
    """Each half of the test covers the other's pseudoprimes."""
    # strong pseudoprimes to base 2; 168003672409 = 3037*6073*9109 is also a
    # Carmichael number and 3511^2 a Wieferich square, and neither has a
    # factor the small-prime sieve would catch
    for n in (2047, 3277, 3215031751, 168003672409, 3511**2, 3825123056546413051):
        assert _bignum._strong_probable_prime_base_2(n), n
        assert not _bignum._strong_lucas_probable_prime(n), n
        assert not vdf.is_probable_prime(n)
    # strong Lucas pseudoprimes (Selfridge parameters)
    for n in (5459, 5777, 10877):
        assert _bignum._strong_lucas_probable_prime(n), n
        assert not _bignum._strong_probable_prime_base_2(n), n
        assert not vdf.is_probable_prime(n)


def _reference_strong_lucas(n):
    """The strong Lucas test on the (U, V) ladder the V-only ladder replaced."""
    if math.isqrt(n) ** 2 == n:
        return False
    d_param = 5
    while (symbol := _bignum._jacobi(d_param, n)) != -1:
        if symbol == 0:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 1, 1, q_param % n
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (d_param * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def test_v_only_lucas_ladder_agrees_with_the_u_v_ladder_below_2e5():
    for n in range(3, 200_000, 2):
        assert _bignum._strong_lucas_probable_prime(n) == _reference_strong_lucas(n), n


def test_v_only_lucas_ladder_agrees_with_the_u_v_ladder_at_128_and_256_bits():
    rng = random.Random("lucas-ladder")
    passed = 0
    for bits in (128, 256):
        for _ in range(3000):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            verdict = _bignum._strong_lucas_probable_prime(n)
            assert verdict == _reference_strong_lucas(n), n
            passed += verdict
    # challenge primes: the verdict both ladders must give True
    for i in range(50):
        prime = vdf.hash_to_prime(encode_fields("lucas-ladder", i))
        assert _bignum._strong_lucas_probable_prime(prime) and _reference_strong_lucas(prime)
    assert passed > 0  # random odd n at these widths include primes


def test_strong_lucas_pseudoprimes_pass_both_ladders():
    # the first five strong Lucas pseudoprimes (OEIS A217255)
    for n in (5459, 5777, 10877, 16109, 18971):
        assert not sympy.isprime(n)
        assert _bignum._strong_lucas_probable_prime(n) and _reference_strong_lucas(n), n


def test_baillie_psw_rejects_carmichael_numbers():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    # Chernick numbers (6k+1)(12k+1)(18k+1) with all three factors prime
    for k in (426, 506, 1805):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(sympy.isprime(f) for f in factors)
        carmichael.append(factors[0] * factors[1] * factors[2])
    for n in carmichael:
        assert pow(2, n - 1, n) == 1  # Fermat base 2 is fooled
        assert not vdf.is_probable_prime(n), n


def test_hash_to_prime_known_answers():
    """Primes the 64-base Miller-Rabin version returned, pinned byte for byte."""
    digest = hashlib.sha256()
    for i in range(300):
        digest.update(vdf.hash_to_prime(encode_fields("kat-prime", i)).to_bytes(16, "big"))
    assert digest.hexdigest() == (
        "0407e4505df269ee5145e7be1b4bd276532f8a8ae1646ac33705ce4e6cf553d3"
    )
    assert vdf.hash_to_prime(encode_fields("kat-prime", 0)) == 0xE93C4EDE0A99FB11870A771736EC87E3
    assert vdf.hash_to_prime(encode_fields("kat-prime", 1)) == 0xEB94E7CD4DBC5116C1A65D25D8E624FD
    assert vdf.hash_to_prime(encode_fields("kat-prime", 2)) == 0xB97DC8720035D580D4557A0263C92909
    assert vdf.hash_to_prime(b"transcript-a") == 0xD3AED92E9769E5F48A21ABE9EC87282D


def test_setup_group_known_moduli():
    """The safe-prime search returns the moduli it returned under 64-base Miller-Rabin."""
    assert vdf.setup_group(64, random.Random(2)).modulus_N == 15221567364254257753
    assert vdf.setup_group(32, random.Random(3)).modulus_N == 3593504581
    assert vdf.setup_group(128, random.Random(11)).modulus_N == (
        252429127219737942355247193581799915109
    )
    digest = hashlib.sha256()
    for seed in [f"setup:panel.{rep}" for rep in range(7)] + ["setup:1", "setup:7"]:
        digest.update(vdf.setup_group(512, random.Random(seed)).modulus_N.to_bytes(64, "big"))
    assert digest.hexdigest() == (
        "735008484be4c68e83c02ebf09ca667d75851bd5af69ddd16384055005afd1ce"
    )


def _reference_safe_prime(bits, rng):
    """The candidate-by-candidate scan the window sieve replaced."""
    half_bits = bits - 1
    top = (1 << (half_bits - 1)) | (1 << (half_bits - 2)) if half_bits >= 8 else 1 << (half_bits - 1)
    while True:
        cand = rng.getrandbits(half_bits)
        cand |= top | 1
        cand += (5 - cand % 6) % 6
        for _ in range(4096):
            if cand.bit_length() > half_bits:
                break
            if vdf.is_probable_prime(cand) and vdf.is_probable_prime(2 * cand + 1):
                return 2 * cand + 1
            cand += 6


def _assert_same_safe_prime(bits, seed):
    sieved, scanned = random.Random(seed), random.Random(seed)
    assert vdf._random_safe_prime(bits, sieved) == _reference_safe_prime(bits, scanned)
    assert sieved.getstate() == scanned.getstate()  # the next draw is the same too


@given(st.integers(min_value=5, max_value=63), st.integers(min_value=0, max_value=1 << 64))
@settings(max_examples=300, deadline=None)
def test_window_sieve_finds_the_prime_the_plain_scan_finds(bits, seed):
    # up to 12 bits the window reaches values the exact lookup answers,
    # and below about 17 bits the bit-length cut shortens it
    _assert_same_safe_prime(bits, seed)


@pytest.mark.parametrize("seed", ["safe:0", "safe:1", "safe:2"])
def test_window_sieve_finds_the_prime_the_plain_scan_finds_at_256_bits(seed):
    _assert_same_safe_prime(256, seed)


_TABLE = list(sympy.primerange(5, 1 << 16))
_TABLE_SET = frozenset(_TABLE)
_TABLE_PRODUCT = math.prod(_TABLE)


def _has_smaller_table_factor(value):
    """A prime in [5, 2^16) below ``value`` divides it."""
    smaller = _TABLE_PRODUCT // value if value in _TABLE_SET else _TABLE_PRODUCT
    return math.gcd(value, smaller) > 1


def test_window_sieve_table_is_the_primes_from_5_below_2_16():
    assert vdf._WINDOW_PRIMES.tolist() == _TABLE
    assert vdf._SIEVE_PRIMES == list(sympy.primerange(2, 2049))


@given(
    st.one_of(
        st.integers(min_value=5, max_value=1 << 17),
        st.integers(min_value=1 << 254, max_value=(1 << 255) - 7),
    ),
    st.integers(min_value=0, max_value=4096),
)
@example(5, 4096)
@example((1 << 16) - 17, 4096)  # a window across the table's last prime, 65521
@settings(max_examples=40, deadline=None)
def test_window_sieve_drops_exactly_the_steps_a_smaller_table_prime_divides(cand, length):
    cand += (5 - cand % 6) % 6
    kept = set(vdf._SAFE_PRIME_SIEVE.survivors(cand, length))
    assert kept <= set(range(length))
    for j in range(length):
        value = cand + 6 * j
        dropped = _has_smaller_table_factor(value) or _has_smaller_table_factor(2 * value + 1)
        assert (j not in kept) == dropped, (cand, j)


def test_setup_group_produces_safe_prime_modulus():
    group = vdf.setup_group(64, random.Random(2), keep_trapdoor=True)
    p, q, order = group.trapdoor
    assert p * q == group.modulus_N
    assert p != q
    for prime in (p, q):
        assert sympy.isprime(prime)
        assert sympy.isprime((prime - 1) // 2)  # safe prime structure
    assert order == ((p - 1) // 2) * ((q - 1) // 2)


def test_setup_group_discards_trapdoor_by_default():
    group = vdf.setup_group(32, random.Random(3))
    assert group.trapdoor is None
    assert group.modulus_N.bit_length() in (31, 32)


def test_setup_group_rejects_out_of_contract_sizes():
    with pytest.raises(ValueError):
        vdf.setup_group(11, random.Random(0))
    with pytest.raises(ValueError):
        vdf.setup_group(256, random.Random(0))  # between fixture and production


# --- instance derivation -------------------------------------------------------


def test_hash_to_qr_is_a_square_and_in_range(rsa_group):
    n = rsa_group.modulus_N
    seen = set()
    for i in range(32):
        g = vdf.hash_to_qr(b"sid", i, n)
        assert 2 <= g <= n - 2
        assert g not in (0, 1, n - 1)
        # QR membership: g = h^2 for the known preimage h
        h = int.from_bytes(hash_bytes(encode_fields(b"sid", i)), "big") % n
        assert g == pow(h, 2, n)
        seen.add(g)
    assert len(seen) == 32  # no collisions across indices


def test_hash_to_qr_rehashes_degenerate_points():
    # tiny modulus makes 0/1/N-1 reachable; outputs must avoid them
    for i in range(200):
        g = vdf.hash_to_qr(b"x", i, 15)
        assert g not in (0, 1, 14)


def test_derive_delay_bounds_and_determinism():
    lo, hi = 100, 400
    values = {vdf.derive_delay(b"s", i, lo, hi) for i in range(300)}
    assert all(lo <= v <= hi for v in values)
    assert len(values) > 150  # spread, not clustering
    assert vdf.derive_delay(b"s", 7, lo, hi) == vdf.derive_delay(b"s", 7, lo, hi)
    with pytest.raises(ValueError):
        vdf.derive_delay(b"s", 0, 0, 10)
    with pytest.raises(ValueError):
        vdf.derive_delay(b"s", 0, 11, 10)


# --- evaluation ------------------------------------------------------------------


def test_eval_tiny_fixture_exact_chain():
    # 9 -> 81 -> 75 -> 220 -> 836 under N = 1081
    assert vdf.eval(9, 0, 1081) == 9
    assert vdf.eval(9, 1, 1081) == 81
    assert vdf.eval(9, 2, 1081) == 75
    assert vdf.eval(9, 3, 1081) == 220
    assert vdf.eval(9, 4, 1081) == 836


def test_eval_equals_trapdoor_eval_tiny(tiny_group):
    n = tiny_group.modulus_N
    for g in (4, 9, 25, 100):
        for t in (0, 1, 5, 17, 64, 999):
            assert vdf.eval(g, t, n) == vdf.trapdoor_eval(g, t, tiny_group)


def test_eval_equals_trapdoor_eval_512(rsa_group):
    rng = random.Random(1234)
    n = rsa_group.modulus_N
    for i in range(20):
        g = vdf.hash_to_qr(b"equiv", i, n)
        t = rng.randint(1, 1 << 12)
        assert vdf.eval(g, t, n) == vdf.trapdoor_eval(g, t, rsa_group)


def test_eval_input_validation():
    with pytest.raises(ValueError):
        vdf.eval(1, 4, 1081)
    with pytest.raises(ValueError):
        vdf.eval(9, -1, 1081)


# --- proofs ----------------------------------------------------------------------


def test_checkpoint_pi_matches_direct_exponentiation(rsa_group):
    """pi is g^floor(2^T / q) for T from 0 to 4096 and q from 2 to 128 bits."""
    n = rsa_group.modulus_N
    g = vdf.hash_to_qr(b"checkpoints", 0, n)
    primes = (3, 5, 97, 12289, vdf.hash_to_prime(b"checkpoints"))
    for t in (0, 1, 5, 6, 7, 127, 128, 129, 4096):
        y = vdf.eval(g, t, n)
        for q in primes:
            proof = vdf._proof(g, y, t, q, n)
            assert proof.pi == vdf.canonical(pow(g, (1 << t) // q, n), n), (t, q)
            assert proof.output_y == vdf.canonical(y, n)
            assert proof.remainder_r == pow(2, t, q)
    for t in (1, 4, 13, 40):
        y = vdf.eval(9, t, 1081)
        for q in (3, 5, 97, 12289):
            pi = vdf._proof(9, y, t, q, 1081).pi
            assert pi == vdf.canonical(pow(9, (1 << t) // q, 1081), 1081)


def test_chain_matches_a_plain_squaring_loop(rsa_group):
    n = rsa_group.modulus_N
    g = vdf.hash_to_qr(b"chain", 0, n)
    for t in (0, 1, 5, 6, 7, 200, 4096):
        y = g
        for _ in range(t):
            y = y * y % n
        assert vdf.eval(g, t, n) == y, t


def test_proofs_known_answers(rsa_group):
    """Pins the proof bytes of wire version 4, whose y and pi are canonical in Z_N*/{+-1}.

    The single proofs and the batches are pinned apart: a single proof
    is a batch of one, so its prime comes from the batch transcript.
    """
    n = rsa_group.modulus_N
    digest = hashlib.sha256()
    rng = random.Random("kat-proofs")
    for i in range(40):
        sid = rng.randbytes(8)
        g = vdf.hash_to_qr(sid, i, n)
        t = rng.choice([0, 1, 2, 5, 6, 7, 127, 128, 129, rng.randint(1, 3000)])
        p = vdf.prove(g, t, vdf.eval(g, t, n), n, sid)
        assert vdf.verify(g, t, p, n, sid) and 2 * p.output_y < n and 2 * p.pi < n
        digest.update(encode_fields(p.output_y, p.pi, p.remainder_r, p.challenge_prime))
    assert digest.hexdigest() == (
        "1bd69582c6163d30f7869e52a242e18009cd8bfe35d58ffc60c765cb570b2460"
    )
    digest = hashlib.sha256()
    for count in (1, 3, 5):
        sid = rng.randbytes(8)
        insts = [vdf.derive_instance(sid, i, n, 1, 700) for i in range(count)]
        outs = [vdf.eval(x.generator_g, x.delay_T, n) for x in insts]
        batch = vdf.prove_batch(insts, outs, n, sid)
        assert vdf.batch_verify(insts, batch, n, sid)
        for p in batch:
            digest.update(encode_fields(p.output_y, p.pi, p.remainder_r, p.challenge_prime))
    assert digest.hexdigest() == (
        "bb05663d28cd1b69b09ded72d7f15e78618482516e3073697c07fe53286284fa"
    )


def test_prove_tiny_fixture_forced_prime():
    """Hand-checkable numbers: q = 5, T = 4 gives quotient 3, remainder 1."""
    y = vdf.eval(9, 4, 1081)
    proof = vdf._proof(9, y, 4, 5, 1081)
    assert (y, proof.pi, proof.remainder_r) == (836, 352, 1)  # 9^3 = 729 = -352
    assert proof.output_y == 245 == 1081 - 836  # canonical: at most 540
    # Wesolowski relation with the forced prime, up to sign
    assert pow(proof.pi, 5, 1081) * pow(9, proof.remainder_r, 1081) % 1081 == 1081 - y
    # full verify must reject: the transcript prime is not 5
    assert not vdf.verify(9, 4, proof, 1081, b"sid")


def test_prove_then_verify_round_trip(rsa_group):
    n = rsa_group.modulus_N
    g = vdf.hash_to_qr(b"round", 0, n)
    t = 600
    y = vdf.eval(g, t, n)
    proof = vdf.prove(g, t, y, n, b"round")
    assert vdf.verify(g, t, proof, n, b"round")
    assert proof.challenge_prime.bit_length() == 128
    assert sympy.isprime(proof.challenge_prime)


def test_verify_rejects_every_single_field_tamper(rsa_group):
    n = rsa_group.modulus_N
    g = vdf.hash_to_qr(b"tamper", 0, n)
    t = 300
    y = vdf.eval(g, t, n)
    proof = vdf.prove(g, t, y, n, b"tamper")
    assert vdf.verify(g, t, proof, n, b"tamper")
    assert not vdf.verify(g, t, dataclasses.replace(proof, output_y=(y + 1) % n), n, b"tamper")
    assert not vdf.verify(g, t, dataclasses.replace(proof, pi=proof.pi * 2 % n), n, b"tamper")
    bumped_r = (proof.remainder_r + 1) % proof.challenge_prime
    assert not vdf.verify(g, t, dataclasses.replace(proof, remainder_r=bumped_r), n, b"tamper")
    wrong_prime = sympy.nextprime(proof.challenge_prime)
    assert not vdf.verify(g, t, dataclasses.replace(proof, challenge_prime=int(wrong_prime)), n, b"tamper")
    assert not vdf.verify(g, t + 1, proof, n, b"tamper")
    assert not vdf.verify(g, t, proof, n, b"other-sid")


def test_verify_rejects_degenerate_elements(rsa_group):
    n = rsa_group.modulus_N
    g = vdf.hash_to_qr(b"degen", 0, n)
    t = 50
    y = vdf.eval(g, t, n)
    proof = vdf.prove(g, t, y, n, b"degen")
    # pi = 0 or y = 0 must fail fast, never divide or accept
    assert not vdf.verify(g, t, dataclasses.replace(proof, pi=n), n, b"degen")
    assert not vdf.verify(g, t, dataclasses.replace(proof, output_y=n), n, b"degen")


def test_prove_is_prove_batch_of_one(rsa_group):
    n = rsa_group.modulus_N
    rng = random.Random("batch-of-one")
    for i in range(20):
        sid = rng.randbytes(8)
        g = vdf.hash_to_qr(sid, i, n)
        t = rng.choice([0, 1, 127, 128, rng.randint(1, 3000)])
        y = vdf.eval(g, t, n)
        for claimed in (y, n - y):  # y and -y are one element
            batch = vdf.prove_batch([vdf.VdfInstance(g, t)], [claimed], n, sid)
            assert vdf.prove(g, t, claimed, n, sid) == batch[0]


def test_verify_is_batch_verify_of_one_on_every_tamper(rsa_group):
    """The inputs of acceptance criterion 3, honest and tampered, one verdict each way."""
    n = rsa_group.modulus_N
    rng = random.Random("acceptance-vdf")  # criterion 3's bank
    bank = []
    for i in range(100):
        sid = rng.randbytes(16)
        g = vdf.hash_to_qr(sid, i, n)
        t = rng.randint(1, 1 << 12)
        bank.append((sid, g, t, vdf.prove(g, t, vdf.eval(g, t, n), n, sid)))
    verdicts = []
    for trial in range(1100):
        sid, g, t, proof = bank[trial % 100]
        kind = trial % 6 if trial < 1000 else None  # the last 100 untampered
        if kind == 0:
            proof = dataclasses.replace(
                proof, output_y=proof.output_y + 1 if proof.output_y + 1 < n else 2
            )
        elif kind == 1:
            proof = dataclasses.replace(proof, pi=proof.pi + 1 if proof.pi + 1 < n else 2)
        elif kind == 2:
            proof = dataclasses.replace(
                proof, remainder_r=(proof.remainder_r + 1) % proof.challenge_prime
            )
        elif kind == 3:
            proof = dataclasses.replace(proof, challenge_prime=proof.challenge_prime + 2)
        elif kind == 4:
            t += 1
        elif kind == 5:
            sid += b"x"
        single = vdf.verify(g, t, proof, n, sid)
        assert single == vdf.batch_verify([vdf.VdfInstance(g, t)], [proof], n, sid), trial
        verdicts.append(single)
    assert verdicts == [False] * 1000 + [True] * 100


def test_hash_to_prime_determinism_and_width():
    p1 = vdf.hash_to_prime(b"transcript-a")
    assert p1 == vdf.hash_to_prime(b"transcript-a")
    assert p1 != vdf.hash_to_prime(b"transcript-b")
    assert p1.bit_length() == 128
    assert sympy.isprime(p1)


def _reference_next_probable_prime(cand):
    """The one-candidate-at-a-time scan the windowed sieve replaced."""
    while not vdf.is_probable_prime(cand):
        cand += 2
    return cand


def test_hash_to_prime_is_the_scan_from_its_hash_point():
    for i in range(200):
        transcript = encode_fields("scan", i)
        h = int.from_bytes(hash_bytes(transcript + b"prime"), "big") % (1 << 128)
        point = h | 1 << 127 | 1
        assert vdf.hash_to_prime(transcript) == _reference_next_probable_prime(point), i


@given(st.integers(min_value=1 << 127, max_value=(1 << 128) - 1))
@example((1 << 128) - 1)  # the next prime is 2^128 + 51
@example((1 << 128) - 157)  # one window from just above 2^128 - 159, a prime, to 2^128 + 51
@example(0xBB298B9BF129C8C6D1CA4DC4EDFDE417)  # the next prime is 426 above
@settings(max_examples=150, deadline=None)
def test_next_probable_prime_is_the_scan(point):
    point |= 1
    found = vdf._next_probable_prime(point)
    assert found == _reference_next_probable_prime(point)
    if point >= (1 << 128) - 157:
        assert found == (1 << 128) + 51  # the search crossed 2^128
    if point == 0xBB298B9BF129C8C6D1CA4DC4EDFDE417:
        assert found - point > 2 * vdf._PRIME_WINDOW  # beyond the first window


_ODD_SET = frozenset(sympy.primerange(3, 2049))
_ODD_PRODUCT = math.prod(_ODD_SET)


@given(st.integers(min_value=3, max_value=1 << 140), st.integers(min_value=0, max_value=128))
@example(3, 128)
@example(2047, 128)  # a window across the table's last prime, 2039
@settings(max_examples=60, deadline=None)
def test_challenge_sieve_drops_exactly_the_odd_candidates_a_smaller_table_prime_divides(cand, length):
    cand |= 1
    kept = vdf._CHALLENGE_PRIME_SIEVE.survivors(cand, length)
    expected = []
    for j in range(length):
        value = cand + 2 * j
        smaller = _ODD_PRODUCT // value if value in _ODD_SET else _ODD_PRODUCT
        if math.gcd(value, smaller) == 1:
            expected.append(j)
    assert kept == expected


# --- batches ---------------------------------------------------------------------


def _batch(rsa_group, sid, count, rng):
    n = rsa_group.modulus_N
    instances = [vdf.derive_instance(sid, i, n, 64, 256) for i in range(count)]
    outputs = [vdf.trapdoor_eval(inst.generator_g, inst.delay_T, rsa_group) for inst in instances]
    return instances, outputs


def test_batch_round_trip_and_individual_agreement(rsa_group):
    rng = random.Random(5)
    n = rsa_group.modulus_N
    for count in (1, 2, 8):
        sid = rng.randbytes(16)
        instances, outputs = _batch(rsa_group, sid, count, rng)
        proofs = vdf.prove_batch(instances, outputs, n, sid)
        assert vdf.batch_verify(instances, proofs, n, sid)
        # the shared prime differs from per-instance primes on purpose;
        # agreement is between batch_verify and the batch relation, while
        # per-instance verify covers the solo protocol
        assert len({p.challenge_prime for p in proofs}) == 1


def test_batch_verify_rejects_single_perturbation(rsa_group):
    rng = random.Random(6)
    n = rsa_group.modulus_N
    sid = b"perturb"
    instances, outputs = _batch(rsa_group, sid, 8, rng)
    proofs = vdf.prove_batch(instances, outputs, n, sid)
    for field in ("output_y", "pi", "remainder_r"):
        for victim in (0, 3, 7):
            bad = list(proofs)
            old = getattr(bad[victim], field)
            if field == "remainder_r":
                new = (old + 1) % bad[victim].challenge_prime
            else:
                new = old * 3 % n or 1
            bad[victim] = dataclasses.replace(bad[victim], **{field: new})
            assert not vdf.batch_verify(instances, bad, n, sid), (field, victim)


def test_batch_verify_binds_sid_and_length(rsa_group):
    rng = random.Random(7)
    n = rsa_group.modulus_N
    instances, outputs = _batch(rsa_group, b"bind", 4, rng)
    proofs = vdf.prove_batch(instances, outputs, n, b"bind")
    assert not vdf.batch_verify(instances, proofs, n, b"other")
    with pytest.raises(ValueError):
        vdf.batch_verify(instances[:3], proofs, n, b"bind")
    with pytest.raises(ValueError):
        vdf.batch_verify([], [], n, b"bind")


def test_batch_swap_between_instances_fails(rsa_group):
    """Swapping two valid (y, pi) pairs across instances must not verify."""
    rng = random.Random(8)
    n = rsa_group.modulus_N
    instances, outputs = _batch(rsa_group, b"swap", 4, rng)
    proofs = vdf.prove_batch(instances, outputs, n, b"swap")
    swapped = list(proofs)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not vdf.batch_verify(instances, swapped, n, b"swap")


def _reference_batch_verify(instances, proofs, n, sid):
    """One check per instance under the shared prime, one ``pow`` per term."""
    prime = vdf.hash_to_prime(
        vdf.batch_transcript(n, instances, [p.output_y for p in proofs], sid)
    )
    for inst, proof in zip(instances, proofs):
        if proof.challenge_prime != prime:
            return False
        if not (1 <= proof.output_y <= (n - 1) // 2 and 1 <= proof.pi <= (n - 1) // 2):
            return False
        if proof.remainder_r != pow(2, inst.delay_T, prime):
            return False
        lhs = pow(proof.pi, prime, n) * pow(inst.generator_g, proof.remainder_r, n) % n
        if lhs not in (proof.output_y, n - proof.output_y):
            return False
    return True


def test_batch_verify_agrees_with_per_term_exponentiation(rsa_group):
    rng = random.Random(9)
    n = rsa_group.modulus_N
    checked = 0
    for count in (1, 2, 5, 16):
        sid = rng.randbytes(16)
        instances, outputs = _batch(rsa_group, sid, count, rng)
        proofs = vdf.prove_batch(instances, outputs, n, sid)
        assert vdf.batch_verify(instances, proofs, n, sid)
        assert _reference_batch_verify(instances, proofs, n, sid)
        for _ in range(12):
            victim = rng.randrange(count)
            field = rng.choice(("output_y", "pi", "remainder_r", "challenge_prime"))
            old = getattr(proofs[victim], field)
            if field == "remainder_r":
                new = (old + rng.randrange(1, 7)) % proofs[victim].challenge_prime
            elif field == "challenge_prime":
                new = int(sympy.nextprime(old))
            else:
                new = rng.choice((old * rng.randrange(2, 9) % n or 1, n - old, 1))
            bad = list(proofs)
            bad[victim] = dataclasses.replace(bad[victim], **{field: new})
            verdict = vdf.batch_verify(instances, bad, n, sid)
            assert verdict == _reference_batch_verify(instances, bad, n, sid)
            if new != old:
                assert verdict is False
            checked += 1
    assert checked == 48


def _sign_flipped_batch(instances, outputs, n, sid, flips):
    """Batch proofs with ``flips`` (instance, field) negated mod N.

    A flipped y is proved under the transcript it changes, so apart from
    the signs every relation holds.
    """
    ys = [vdf.canonical(y, n) for y in outputs]
    for victim, field in flips:
        if field == "output_y":
            ys[victim] = n - ys[victim]
    prime = vdf.hash_to_prime(vdf.batch_transcript(n, instances, ys, sid))
    proofs = []
    for i, (inst, y) in enumerate(zip(instances, ys)):
        pi = vdf.canonical(pow(inst.generator_g, (1 << inst.delay_T) // prime, n), n)
        if (i, "pi") in flips:
            pi = n - pi
        proofs.append(vdf.VdfProof(y, pi, pow(2, inst.delay_T, prime), prime))
    return proofs


def test_sign_flips_are_rejected_by_verify_and_batch_verify(rsa_group):
    """N - pi or N - y on one instance, or flips on two, never verify."""
    rng = random.Random("sign-flips")
    n = rsa_group.modulus_N
    for _ in range(40):
        sid = rng.randbytes(16)
        instances, outputs = _batch(rsa_group, sid, 4, rng)
        assert vdf.batch_verify(instances, _sign_flipped_batch(instances, outputs, n, sid, []), n, sid)
        a, b = rng.sample(range(4), 2)
        for flips in (
            [(a, "pi")],
            [(a, "output_y")],
            [(a, rng.choice(("pi", "output_y"))), (b, rng.choice(("pi", "output_y")))],
        ):
            forged = _sign_flipped_batch(instances, outputs, n, sid, flips)
            assert not vdf.batch_verify(instances, forged, n, sid), flips
        inst = instances[a]
        proof = vdf.prove(inst.generator_g, inst.delay_T, outputs[a], n, sid)
        assert vdf.verify(inst.generator_g, inst.delay_T, proof, n, sid)
        for field in ("pi", "output_y"):
            flipped = dataclasses.replace(proof, **{field: n - getattr(proof, field)})
            assert not vdf.verify(inst.generator_g, inst.delay_T, flipped, n, sid), field


def test_batch_verify_rejects_a_factor_moved_between_proofs(rsa_group):
    """pi_0 * w^(alpha_1) and pi_1 * w^(-alpha_0) keep every y but break both proofs.

    alpha_i = H(transcript || "alpha" || encode_fields(i)) mod 2^128 is the
    scalar a batch check that folds the instances with transcript-derived
    128-bit scalars would use.  The prover can compute it, since pi is not
    in the transcript, and the moved factor cancels in the fold; each
    instance's own relation fails.
    """
    rng = random.Random("moved-factor")
    n = rsa_group.modulus_N
    for _ in range(20):
        sid = rng.randbytes(16)
        instances, outputs = _batch(rsa_group, sid, 4, rng)
        proofs = vdf.prove_batch(instances, outputs, n, sid)
        transcript = vdf.batch_transcript(n, instances, [p.output_y for p in proofs], sid)
        alpha = [
            int.from_bytes(hash_bytes(transcript + b"alpha" + encode_fields(i)), "big") % (1 << 128)
            for i in range(4)
        ]
        w = rng.randrange(2, n - 1)
        forged = list(proofs)
        forged[0] = dataclasses.replace(
            proofs[0], pi=vdf.canonical(proofs[0].pi * pow(w, alpha[1], n) % n, n)
        )
        forged[1] = dataclasses.replace(
            proofs[1], pi=vdf.canonical(proofs[1].pi * pow(w, -alpha[0], n) % n, n)
        )
        # the forgery is the one a fold cannot see: up to sign, the folded
        # relation prod (pi_i^q g_i^(r_i) / y_i)^(alpha_i) is still 1
        q = proofs[0].challenge_prime
        fold = 1
        for inst, proof, a in zip(instances, forged, alpha):
            term = pow(proof.pi, q, n) * pow(inst.generator_g, proof.remainder_r, n)
            fold = fold * pow(term * pow(proof.output_y, -1, n) % n, a, n) % n
        assert fold in (1, n - 1)
        assert not vdf.batch_verify(instances, forged, n, sid)
        assert not _reference_batch_verify(instances, forged, n, sid)


def test_verify_agrees_with_two_exponentiations(rsa_group):
    n = rsa_group.modulus_N
    rng = random.Random(10)
    for i in range(20):
        g = vdf.hash_to_qr(b"solo", i, n)
        t = rng.randint(0, 600)
        proof = vdf.prove(g, t, vdf.eval(g, t, n), n, b"solo")
        for pi in (proof.pi, proof.pi * 5 % n, n - proof.pi):
            tampered = dataclasses.replace(proof, pi=pi)
            lhs = pow(pi, proof.challenge_prime, n) * pow(g, proof.remainder_r, n) % n
            direct = pi <= n // 2 and lhs in (proof.output_y, n - proof.output_y)
            assert vdf.verify(g, t, tampered, n, b"solo") == direct
            assert direct is (pi == proof.pi)


def test_solve_batch_equals_eval_then_prove_batch(rsa_group):
    n = rsa_group.modulus_N
    for count, (lo, hi) in ((1, (1, 1)), (3, (1, 40)), (4, (64, 700))):
        sid = f"solve-{count}".encode()
        instances = [vdf.derive_instance(sid, i, n, lo, hi) for i in range(count)]
        outputs = [vdf.eval(inst.generator_g, inst.delay_T, n) for inst in instances]
        assert vdf.solve_batch(instances, n, sid) == vdf.prove_batch(instances, outputs, n, sid)


# --- the exponentiation primitive ------------------------------------------------


@st.composite
def _modexp_inputs(draw):
    """Odd m of 3 to 2048 bits, b in [0, 2m), e of up to 4096 bits."""
    m = 2 * draw(st.integers(min_value=1, max_value=(1 << 2047) - 1)) + 1
    return (
        draw(st.integers(min_value=0, max_value=2 * m - 1)),
        draw(st.integers(min_value=0, max_value=(1 << 4096) - 1)),
        m,
    )


@given(_modexp_inputs())
@example((5, 0, 1081))  # e = 0
@example((0, 7, 1081))  # b = 0
@example((1081, 3, 1081))  # b = m
@example((14, (1 << 4096) - 1, 15))
@example((2 * 1081 - 1, 1 << 4095, 1081))
@settings(max_examples=100, deadline=None)
def test_modexp_equals_pow(args):
    assert vdf._modexp(*args) == pow(*args)


@given(_modexp_inputs(), st.integers(min_value=0), st.integers(min_value=0, max_value=(1 << 4096) - 1))
@example((5, 0, 1081), 9, 0)  # both exponents 0
@example((0, 0, 1081), 9, 5)  # base 0 to the power 0
@example((0, 7, 1081), 9, 5)  # base 0
@example((1081, 3, 1081), 2 * 1081 + 4, 0)  # bases m and above
@example((2 * 1081 - 1, 1 << 4095, 1081), 1080, (1 << 4096) - 1)
@settings(max_examples=50, deadline=None)
def test_modexp2_equals_a_product_of_pows(args, base2, exp2):
    base, exp, m = args
    base2 %= 2 * m
    expected = pow(base, exp, m) * pow(base2, exp2, m) % m
    assert _bignum.modexp2(base, exp, base2, exp2, m) == expected
    assert _bignum.modexp2(base2, exp2, base, exp, m) == expected


def test_modexp_is_exact_on_concurrent_threads():
    """8 threads, switching every microsecond, each get pow's answer every time.

    Each thread runs modexp and modexp2 on its own BN_CTX and BIGNUMs.
    """
    rng = random.Random("modexp-threads")
    cases = []
    for _ in range(32):
        exponent = rng.getrandbits(rng.choice((1, 128, 2048)))
        cases.append((rng.getrandbits(512), exponent, rng.getrandbits(512) | 1 << 511 | 1))
    expected = [pow(*case) for case in cases]
    wrong, passes = [], []
    deadline = time.monotonic() + 2.0

    def work(offset):
        while time.monotonic() < deadline:
            for k in range(len(cases)):
                i = (k + offset) % len(cases)
                if vdf._modexp(*cases[i]) != expected[i]:
                    wrong.append(i)
                base, exp, mod = cases[i]
                if _bignum.modexp2(base, exp, 3, exp, mod) != expected[i] * pow(3, exp, mod) % mod:
                    wrong.append(-i)
            passes.append(offset)

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(passes) == set(range(8))
    assert wrong == []


def test_modexp_is_pow_unless_a_versioned_libcrypto_loads_and_agrees(monkeypatch):
    try:
        # an unversioned libcrypto aborts the process on macOS, so it is never loaded
        for name in (None, "libcrypto.so", "/usr/lib/libcrypto.dylib", "libcrypto.dylib"):
            monkeypatch.setattr(ctypes.util, "find_library", lambda _, name=name: name)
            _bignum._libcrypto.cache_clear()
            assert _bignum._libcrypto() is None
            assert _bignum.backend() == "builtin pow"
            assert _bignum.modexp(3, 1 << 70, 1081) == pow(3, 1 << 70, 1081)
        monkeypatch.undo()
        signatures = dict(_bignum._SIGNATURES, BN_no_such_function=(None, []))
        monkeypatch.setattr(_bignum, "_SIGNATURES", signatures)
        _bignum._libcrypto.cache_clear()
        assert _bignum._libcrypto() is None
        monkeypatch.undo()
        monkeypatch.setattr(_bignum, "_bn_mod_exp", lambda lib, base, exp, mod: 0)
        _bignum._libcrypto.cache_clear()
        assert _bignum._libcrypto() is None
        monkeypatch.undo()
        # a disagreeing modexp2 sends modexp to pow too: one backend for both
        monkeypatch.setattr(_bignum, "_bn_mod_exp2", lambda lib, a1, e1, a2, e2, mod: 0)
        _bignum._libcrypto.cache_clear()
        assert _bignum._libcrypto() is None
        assert _bignum.backend() == "builtin pow"
        assert _bignum.modexp2(3, 1 << 70, 5, 7, 1081) == pow(3, 1 << 70, 1081) * pow(5, 7, 1081) % 1081
    finally:
        monkeypatch.undo()
        _bignum._libcrypto.cache_clear()


def test_a_threads_bignum_context_is_freed_when_the_thread_ends(monkeypatch):
    if _bignum._libcrypto() is None:
        pytest.skip("libcrypto did not load: modexp is pow and keeps no context")
    freed, made = [], []
    free = _bignum._free

    def counted_free(lib, ctx, nums):
        freed.append(ctx)
        free(lib, ctx, nums)

    monkeypatch.setattr(_bignum, "_free", counted_free)

    def work():
        assert _bignum.modexp(3, 1 << 70, 1081) == pow(3, 1 << 70, 1081)
        assert _bignum.modexp2(3, 5, 7, 9, 1081) == pow(3, 5, 1081) * pow(7, 9, 1081) % 1081
        made.append(_bignum._local.scratch.ctx)

    for _ in range(32):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    deadline = time.monotonic() + 10
    while len(freed) < 32 and time.monotonic() < deadline:
        time.sleep(0.01)
    # one context per thread, each freed once; a freed address may be reused
    assert len(made) == 32
    assert sorted(freed) == sorted(made)


def test_modexp2_frees_every_montgomery_context_it_makes(monkeypatch):
    """modexp2 keeps one BN_MONT_CTX per modulus, at most ``_MONTS`` of them:
    the oldest is freed when a new modulus evicts it, the rest when the
    thread ends, each exactly once."""
    lib = _bignum._libcrypto()
    if lib is None:
        pytest.skip("libcrypto did not load: modexp2 is pow and keeps no context")
    made, freed = [], []
    new, free = lib.BN_MONT_CTX_new, lib.BN_MONT_CTX_free

    def counted_new():
        made.append(new())
        return made[-1]

    def counted_free(mont):
        freed.append(mont)
        free(mont)

    monkeypatch.setattr(lib, "BN_MONT_CTX_new", counted_new)
    monkeypatch.setattr(lib, "BN_MONT_CTX_free", counted_free)
    moduli = [(1 << 511) + 2 * k + 1 for k in range(_bignum._MONTS + 2)]
    seen = []

    def work():
        for mod in moduli:
            expected = pow(3, 1 << 70, mod) * pow(5, 7, mod) % mod
            for _ in range(2):
                assert _bignum.modexp2(3, 1 << 70, 5, 7, mod) == expected
        seen.extend([list(_bignum._local.scratch.monts), list(made), list(freed)])

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    kept, made_in_thread, evicted = seen
    # one context per modulus, its second call reusing it; the two oldest evicted
    assert kept == moduli[-_bignum._MONTS :]
    assert len(made_in_thread) == len(moduli)
    assert evicted == made_in_thread[:2]
    deadline = time.monotonic() + 10
    while len(freed) < len(made) and time.monotonic() < deadline:
        time.sleep(0.01)
    # a freed address may be reused, so compare as multisets
    assert sorted(freed) == sorted(made_in_thread)


# --- the primality backends -------------------------------------------------------


def _python_baillie_psw(n):
    return _bignum._strong_probable_prime_base_2(n) and _bignum._strong_lucas_probable_prime(n)


def _libgmp_test():
    if _bignum._libgmp() is None:
        pytest.skip("libgmp did not load: the strong tests run in Python alone")
    return _bignum.baillie_psw


def test_the_load_check_verdicts_are_the_python_tests_verdicts():
    for n, verdict in _bignum._PRIME_CHECK.items():
        assert _python_baillie_psw(n) == verdict == sympy.isprime(n), n


def test_both_primality_backends_agree_on_every_odd_n_to_2e5():
    test = _libgmp_test()
    for n in range(2049, 200_001, 2):
        assert test(n) == _python_baillie_psw(n), n


def test_both_primality_backends_agree_on_pseudoprimes():
    test = _libgmp_test()
    base_2 = (2047, 3277, 3215031751, 168003672409, 3511**2, 3825123056546413051)
    lucas = (5459, 5777, 10877, 16109, 18971)
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    carmichael += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in (426, 506, 1805)]
    for n in (*base_2, *lucas, *carmichael, *_bignum._PRIME_CHECK):
        assert test(n) == _python_baillie_psw(n) == sympy.isprime(n), n


def test_both_primality_backends_agree_on_random_odd_numbers():
    test = _libgmp_test()
    rng = random.Random("primality-backends")
    for bits in (128, 256, 1024):
        primes = 0
        for _ in range(10_000):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            verdict = test(n)
            if math.gcd(n, vdf._PRIMORIAL) > 1:
                assert not verdict, n  # a prime up to 2048 divides it, so it is composite
            else:
                assert verdict == _python_baillie_psw(n), n
            primes += verdict
        assert primes > 0, bits  # both verdicts are in play at every width


def test_primality_is_python_unless_a_versioned_libgmp_6_2_loads_and_agrees(monkeypatch):
    installed = _bignum._libgmp()

    def refused():
        _bignum._libgmp.cache_clear()
        assert _bignum._libgmp() is None
        assert _bignum.prime_backend() == "python strong tests"
        assert vdf.hash_to_prime(b"transcript-a") == 0xD3AED92E9769E5F48A21ABE9EC87282D

    try:
        # an unversioned library is never loaded, as for libcrypto
        for name in (None, "libgmp.so", "/usr/lib/libgmp.dylib", "libgmp.dylib"):
            monkeypatch.setattr(ctypes.util, "find_library", lambda _, name=name: name)
            refused()
        monkeypatch.undo()
        # before 6.2, mpz_probab_prime_p ran Miller-Rabin rounds, not Baillie-PSW
        for version in ("6.1.2", "5.1.3", "4.3.2", "6", "unknown"):
            monkeypatch.setattr(_bignum, "_gmp_version", lambda lib, version=version: version)
            refused()
        monkeypatch.undo()
        signatures = dict(_bignum._GMP_SIGNATURES, missing=("__gmpz_no_such_function", None, []))
        monkeypatch.setattr(_bignum, "_GMP_SIGNATURES", signatures)
        refused()
        monkeypatch.undo()
        # a library that calls the strong Lucas pseudoprime prime is refused
        monkeypatch.setattr(_bignum, "_PRIME_CHECK", {**_bignum._PRIME_CHECK, 1033997: True})
        refused()
        monkeypatch.undo()
        monkeypatch.setattr(_bignum._Gmp, "probable_prime", lambda self, n: True)
        refused()
        monkeypatch.undo()
        if installed is not None:
            for version in ("6.2.0", "6.3.0", "10.0"):
                monkeypatch.setattr(_bignum, "_gmp_version", lambda lib, version=version: version)
                _bignum._libgmp.cache_clear()
                assert _bignum.prime_backend() == f"GMP {version}"
    finally:
        monkeypatch.undo()
        _bignum._libgmp.cache_clear()


def test_load_turns_a_failing_setup_into_none():
    for error in (OSError, AttributeError, ValueError, MemoryError, ArithmeticError):

        def setup(lib, error=error):
            raise error("refused")

        assert _bignum._load("crypto", setup) is None
    assert _bignum._load("no-such-library", lambda lib: lib) is None


@pytest.mark.parametrize("backend", ["libgmp", "python"])
def test_baillie_psw_of_several_values_fails_when_any_one_fails(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(_bignum, "_libgmp", lambda: None)
    else:
        _libgmp_test()
    primes = (2**89 - 1, 2**127 - 1, 2**255 - 19)
    assert _bignum.baillie_psw(*primes)
    # a base-2 and a Lucas strong pseudoprime, a square and a semiprime
    for composite in (3215031751, 1033997, 1093**2, (2**89 - 1) * (2**127 - 1)):
        for i in range(len(primes) + 1):
            values = (*primes[:i], composite, *primes[i:])
            assert not _bignum.baillie_psw(*values), (composite, i)


def test_a_threads_mpz_is_cleared_when_the_thread_ends(monkeypatch):
    test = _libgmp_test()
    cleared, made = [], []
    clear = _bignum._clear

    def counted_clear(gmp, mpz):
        cleared.append(ctypes.addressof(mpz))
        clear(gmp, mpz)

    monkeypatch.setattr(_bignum, "_clear", counted_clear)

    def work():
        assert test(2**127 - 1) and not test(3215031751)
        made.append(_bignum._local.mpz.address)

    for _ in range(32):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    deadline = time.monotonic() + 10
    while len(cleared) < 32 and time.monotonic() < deadline:
        time.sleep(0.01)
    # one mpz_t per thread, each cleared once; a freed address may be reused
    assert len(made) == 32
    assert sorted(cleared) == sorted(made)


def test_probable_prime_is_exact_on_concurrent_threads():
    """8 threads, switching every microsecond, each get the verdicts sympy gives."""
    rng = random.Random("prime-threads")
    cases = [int(sympy.nextprime(rng.getrandbits(128))) for _ in range(16)]
    cases += [p * int(sympy.nextprime(rng.getrandbits(64))) for p in cases]
    expected = [sympy.isprime(n) for n in cases]
    wrong, passes = [], []
    deadline = time.monotonic() + 1.0

    def work(offset):
        while time.monotonic() < deadline:
            for k in range(len(cases)):
                i = (k + offset) % len(cases)
                if vdf.is_probable_prime(cases[i]) != expected[i]:
                    wrong.append(i)
            passes.append(offset)

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(passes) == set(range(8))
    assert wrong == []


@pytest.fixture
def builtin_pow(monkeypatch):
    """Every vdf exponentiation on the fallback backend, the built-in pow."""
    monkeypatch.setattr(vdf, "_modexp", pow)
    monkeypatch.setattr(
        vdf, "_modexp2", lambda a1, e1, a2, e2, mod: pow(a1, e1, mod) * pow(a2, e2, mod) % mod
    )


@pytest.mark.parametrize(
    "check",
    [
        test_hash_to_prime_known_answers,
        test_hash_to_prime_is_the_scan_from_its_hash_point,
        test_setup_group_known_moduli,
        test_proofs_known_answers,
        test_batch_verify_rejects_single_perturbation,
        test_batch_swap_between_instances_fails,
        test_batch_verify_agrees_with_per_term_exponentiation,
        test_sign_flips_are_rejected_by_verify_and_batch_verify,
        test_batch_verify_rejects_a_factor_moved_between_proofs,
        test_solve_batch_equals_eval_then_prove_batch,
    ],
    ids=lambda check: check.__name__,
)
def test_on_builtin_pow(check, builtin_pow, request):
    """The known answers, batch tampering and solve_batch, on the fallback backend."""
    names = inspect.signature(check).parameters
    check(*(request.getfixturevalue(name) for name in names))


@pytest.fixture
def python_primality(monkeypatch):
    """Every Baillie-PSW verdict on the fallback backend, ``_bignum``'s strong tests."""
    monkeypatch.setattr(_bignum, "_libgmp", lambda: None)


@pytest.mark.parametrize(
    "check",
    [
        test_hash_to_prime_known_answers,
        test_hash_to_prime_is_the_scan_from_its_hash_point,
        test_setup_group_known_moduli,
        test_proofs_known_answers,
        test_probable_prime_rejects_strong_pseudoprimes,
        test_baillie_psw_rejects_base_2_strong_pseudoprimes,
        test_baillie_psw_rejects_carmichael_numbers,
    ],
    ids=lambda check: check.__name__,
)
def test_on_python_primality(check, python_primality, request):
    """The prime-search and safe-prime known answers, on the fallback primality backend."""
    assert _bignum.prime_backend() == "python strong tests"
    names = inspect.signature(check).parameters
    check(*(request.getfixturevalue(name) for name in names))


def test_without_libgmp_a_safe_prime_pair_passes_base_2_before_either_lucas_test(
    python_primality, monkeypatch
):
    calls = []
    base_2, lucas = _bignum._strong_probable_prime_base_2, _bignum._strong_lucas_probable_prime

    def logged(name, test):
        return lambda n: (calls.append((name, n)), test(n))[1]

    monkeypatch.setattr(_bignum, "_strong_probable_prime_base_2", logged("base 2", base_2))
    monkeypatch.setattr(_bignum, "_strong_lucas_probable_prime", logged("lucas", lucas))
    for seed in range(3):
        calls.clear()
        p = vdf._random_safe_prime(256, random.Random(seed))
        lucas_calls = [i for i, (name, _) in enumerate(calls) if name == "lucas"]
        # only the pair found reaches a Lucas test, and only after both base-2 tests
        assert calls[-4:] == [("base 2", p // 2), ("base 2", p), ("lucas", p // 2), ("lucas", p)]
        assert lucas_calls == [len(calls) - 2, len(calls) - 1]
