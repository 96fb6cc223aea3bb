"""Primitive-layer tests: encodings, digests, streams, timestamps."""

import hashlib
import math
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gputelem
from gputelem import core
from gputelem.core import (
    DIGEST_LEN,
    KAPPA,
    SALT_LEN,
    Challenge,
    Response,
    digest_below_target,
    digest_to_int,
    encode_fields,
    generate_salt,
    hash_bytes,
    issued_at_micros,
    keyed_hash,
    keyed_stream,
    keyed_xor_into,
)


def test_import_gputelem_imports_nothing():
    """The package module holds no lazy loader: numpy and every submodule
    load only when imported, and none is an attribute until then."""
    src = os.path.dirname(os.path.dirname(gputelem.__file__))
    probe = (
        "import sys, gputelem; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('gputelem.')), "
        "hasattr(gputelem, 'protocol'), gputelem.__version__)"
    )
    ran = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert ran.stdout.split() == ["[]", "False", gputelem.__version__]


def test_hash_bytes_is_sha256():
    assert hash_bytes(b"abc") == hashlib.sha256(b"abc").digest()
    assert len(hash_bytes(b"")) == DIGEST_LEN


def test_keyed_hash_differs_from_unkeyed_and_by_key():
    data = b"payload"
    assert keyed_hash(b"k1", data) != keyed_hash(b"k2", data)
    assert keyed_hash(b"k1", data) != hash_bytes(data)
    assert len(keyed_hash(b"k", data)) == DIGEST_LEN


def test_keyed_hash_long_key_is_prehashed():
    long_key = b"x" * 200
    folded = hashlib.blake2b(long_key, digest_size=64).digest()
    assert keyed_hash(long_key, b"d") == keyed_hash(folded, b"d")


def test_keyed_stream_prefix_stability():
    # requesting fewer bytes must yield a prefix of the longer stream
    full = keyed_stream(b"key", 300, domain=b"dom")
    assert keyed_stream(b"key", 128, domain=b"dom") == full[:128]
    assert len(full) == 300


@given(st.integers(min_value=0, max_value=700), st.integers(min_value=0, max_value=200))
@settings(max_examples=80, deadline=None)
def test_keyed_xor_into_seeks_to_any_offset(offset, nbytes):
    # the block counter of the seek lives in the first 4 nonce bytes
    full = keyed_stream(b"key", 900, domain=b"dom")
    buf = bytearray(nbytes)
    keyed_xor_into(buf, b"key", b"dom", offset)
    assert buf == full[offset : offset + nbytes]


def test_keyed_stream_domain_separation():
    a = keyed_stream(b"key", 64, domain=b"a")
    b = keyed_stream(b"key", 64, domain=b"b")
    assert a != b
    assert keyed_stream(b"key", 0) == b""


def test_keyed_stream_matches_manual_chacha20():
    key, domain = b"key", b"dom"
    cipher = Cipher(algorithms.ChaCha20(keyed_hash(key, domain), bytes(16)), None)
    manual = cipher.encryptor().update(bytes(192))
    assert keyed_stream(key, 192, domain=domain) == manual
    # known answer: RFC 8439 ChaCha20, block counter 0, all-zero nonce
    assert manual[:32].hex() == (
        "65521952d49e2fed0f23a354d19985295a2019b7cdc3ebaef152feefd4ea8f9e"
    )


def test_keyed_stream_long_key_is_prehashed():
    long_key = b"x" * 200
    folded = hashlib.blake2b(long_key, digest_size=64).digest()
    assert keyed_stream(long_key, 64, b"d") == keyed_stream(folded, 64, b"d")


@given(st.binary(max_size=80), st.binary(max_size=300), st.binary(max_size=16))
@settings(max_examples=60, deadline=None)
def test_keyed_xor_into_is_data_xor_keyed_stream(key, data, domain):
    stream = keyed_stream(key, len(data), domain)
    buf = bytearray(data)
    keyed_xor_into(buf, key, domain)
    assert buf == bytes(x ^ y for x, y in zip(data, stream))
    keyed_xor_into(buf, key, domain)
    assert buf == data


_XOR_LENGTHS = [0, 1, 63, 64, 65, (1 << 16) - 1, (1 << 16) + 1]


def _as_bytearray(data: bytes):
    buffer = bytearray(data)
    return buffer, buffer


def _as_memoryview_slice(data: bytes):
    # guard bytes on both sides: the writer must touch exactly its slice
    buffer = bytearray(b"\xa5" * 8 + data + b"\xa5" * 8)
    return memoryview(buffer)[8 : 8 + len(data)], buffer


def _as_numpy_array(data: bytes):
    array = np.frombuffer(data, dtype=np.uint8).copy()
    return array, array


@pytest.mark.parametrize("wrap", [_as_bytearray, _as_memoryview_slice, _as_numpy_array])
@pytest.mark.parametrize("offset", [0, 5, 64, 130])
@pytest.mark.parametrize("nbytes", _XOR_LENGTHS)
def test_keyed_xor_into_xors_the_keyed_stream_in_place(nbytes, offset, wrap):
    """XORing a buffer in place (``update_into`` with one buffer as input
    and output) leaves exactly its bytes XOR the keyed stream from
    ``offset``, at seeks inside and across ChaCha20 blocks, for a
    bytearray, a slice of one and a numpy array; a second pass restores it."""
    data = random.Random(nbytes * 1000 + offset).randbytes(nbytes)
    buf, whole = wrap(data)
    before = bytes(whole)
    keyed_xor_into(buf, b"key", b"dom", offset)
    stream = keyed_stream(b"key", offset + nbytes, b"dom")[offset:]
    assert bytes(buf) == bytes(x ^ y for x, y in zip(data, stream))
    if whole is not buf:
        assert whole[:8] == whole[8 + nbytes :] == b"\xa5" * 8
    keyed_xor_into(buf, b"key", b"dom", offset)
    assert bytes(whole) == before


@pytest.mark.parametrize(
    "make",
    [
        lambda: bytes(range(100)),
        lambda: memoryview(bytearray(range(100))).toreadonly(),
        lambda: np.arange(100, dtype=np.uint8)[::2],  # writable but not contiguous
    ],
    ids=["bytes", "readonly-view", "strided-array"],
)
def test_keyed_xor_into_refuses_buffers_it_cannot_write(make):
    """A buffer that cannot be written where it lies is refused and left unchanged."""
    buf = make()
    before = bytes(buf)
    with pytest.raises(TypeError):
        keyed_xor_into(buf, b"key", b"dom")
    assert bytes(buf) == before


def _manual_stream(key: bytes, domain: bytes, offset: int, nbytes: int) -> bytes:
    """Bytes [offset, offset + nbytes) of the (key, domain) stream, from a
    context built here and read from the start, never seeked."""
    cipher = Cipher(algorithms.ChaCha20(keyed_hash(key, domain), bytes(16)), None)
    return cipher.encryptor().update(bytes(offset + nbytes))[offset:]


# more (key, domain) pairs than the memo holds, so some calls find theirs evicted
_PAIRS = [(b"key-%d" % (i % 5), b"dom-%d" % i) for i in range(core.KEY_MEMO + 4)]


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_PAIRS) - 1),
            st.integers(0, 700),
            st.integers(0, 200),
            st.booleans(),
        ),
        min_size=1,
        max_size=120,
    )
)
# every pair once, then the first (evicted) and the last (live) again
@example(
    [(i, 70 * i % 700, 65, i % 2 == 0) for i in range(len(_PAIRS))]
    + [(0, 3, 130, False), (len(_PAIRS) - 1, 640, 1, False)]
)
@settings(max_examples=60, deadline=None)
def test_seeked_contexts_give_the_stream_across_eviction(calls):
    """``keyed_stream`` and ``keyed_xor_into`` interleaved at any offsets over
    more streams than ``KEY_MEMO`` give the bytes of freshly built contexts,
    whether a call seeks a live context, one just used on another offset,
    or one built again after eviction; the memo never holds more than
    ``KEY_MEMO``."""
    for pair, offset, nbytes, stream in calls:
        key, domain = _PAIRS[pair]
        if stream:
            got = keyed_stream(key, nbytes, domain)
            offset = 0
        else:
            buf = bytearray(nbytes)
            keyed_xor_into(buf, key, domain, offset)
            got = bytes(buf)
        assert got == _manual_stream(key, domain, offset, nbytes)
        assert len(core._CONTEXTS.memo) <= core.KEY_MEMO


def test_a_refused_buffer_leaves_its_stream_seekable():
    """A read-only buffer refused mid-call, after its context was seeked into
    a block, does not shift the next call on the same (key, domain)."""
    keyed_xor_into(bytearray(10), b"key", b"refused", 100)
    for refused in (bytes(100), memoryview(bytearray(100)).toreadonly()):
        with pytest.raises(TypeError):
            keyed_xor_into(refused, b"key", b"refused", 37)
        buf = bytearray(90)
        keyed_xor_into(buf, b"key", b"refused", 133)
        assert buf == _manual_stream(b"key", b"refused", 133, 90)
        assert keyed_stream(b"key", 70, b"refused") == _manual_stream(b"key", b"refused", 0, 70)


def test_two_threads_seek_one_stream_each_through_its_own_context():
    """Two threads seeking one (key, domain) at once each read their own
    offsets' bytes, through a context of their own."""
    key, domain = b"key", b"shared"
    start = threading.Barrier(2, timeout=60)
    results = {}

    def seek(name: int) -> None:
        rng = random.Random(name)
        start.wait()
        wrong = 0
        for _ in range(300):
            offset, nbytes = rng.randrange(4096), rng.randrange(1, 300)
            buf = bytearray(nbytes)
            keyed_xor_into(buf, key, domain, offset)
            wrong += buf != _manual_stream(key, domain, offset, nbytes)
        results[name] = (wrong, core._CONTEXTS.memo[key, domain])

    threads = [threading.Thread(target=seek, args=(name,)) for name in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results[1][0] == results[2][0] == 0
    assert results[1][1] is not results[2][1]


def test_encode_fields_known_bytes():
    # 4-byte length prefixes, minimal-width ints, utf-8 strings
    assert encode_fields(b"ab") == b"\x00\x00\x00\x02ab"
    assert encode_fields(0) == b"\x00\x00\x00\x01\x00"
    assert encode_fields(256) == b"\x00\x00\x00\x02\x01\x00"
    assert encode_fields("hi") == b"\x00\x00\x00\x02hi"
    assert encode_fields() == b""


def test_encode_fields_rejects_negative_and_alien_types():
    with pytest.raises(ValueError):
        encode_fields(-1)
    with pytest.raises(TypeError):
        encode_fields(1.5)


@given(
    st.lists(
        st.one_of(
            st.binary(max_size=64),
            st.integers(min_value=0, max_value=1 << 256),
            st.text(max_size=32),
        ),
        max_size=6,
    )
)
def test_encode_fields_is_parseable_and_injective_on_layout(parts):
    blob = encode_fields(*parts)
    # walk the length prefixes back out
    offset, count = 0, 0
    while offset < len(blob):
        n = int.from_bytes(blob[offset : offset + 4], "big")
        offset += 4 + n
        count += 1
    assert offset == len(blob)
    assert count == len(parts)


@given(st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=8))
def test_encode_fields_no_concatenation_collision(a, b):
    # (a, b) and (a||b,) must never encode identically
    assert encode_fields(a, b) != encode_fields(a + b)


def test_digest_to_int_round_trip():
    digest = bytes(range(32))
    assert digest_to_int(digest).to_bytes(32, "big") == digest


def test_digest_below_target_boundaries():
    zero = bytes(32)
    # the zero digest is the only value clearing the maximum difficulty
    assert digest_below_target(zero, KAPPA)
    assert not digest_below_target(b"\x00" * 31 + b"\x01", KAPPA)
    top = b"\xff" * 32
    assert digest_below_target(top, 0)
    assert not digest_below_target(top, 1)


def test_digest_below_target_matches_leading_zero_bits():
    digest = b"\x00\x0f" + b"\xff" * 30  # 12 leading zero bits
    for d in range(13):
        assert digest_below_target(digest, d)
    assert not digest_below_target(digest, 13)


def test_digest_below_target_input_validation():
    with pytest.raises(ValueError):
        digest_below_target(bytes(31), 4)
    with pytest.raises(ValueError):
        digest_below_target(bytes(32), KAPPA + 1)
    with pytest.raises(ValueError):
        digest_below_target(bytes(32), -1)


def test_generate_salt_deterministic_under_seed():
    assert generate_salt(random.Random(5)) == generate_salt(random.Random(5))
    assert len(generate_salt(random.Random(5))) == SALT_LEN


@given(st.integers(min_value=0, max_value=(1 << 51) - 1))
def test_issued_at_micros_survives_wire_round_trip(micros):
    """Stamp -> float seconds -> stamp must be the identity."""
    assert issued_at_micros(micros / 1e6) == micros


def test_issued_at_micros_truncation_counterexample():
    # the truncating version loses this epoch; round-to-nearest keeps it
    micros = 1_787_000_000_000_001
    assert issued_at_micros(micros / 1e6) == micros


def test_response_matches_checks_identity_fields():
    ch = Challenge(b"s", 1, "pow", b"t", 0.0)
    ok = Response(b"s", 1, "pow", {}, 0.1)
    assert ok.matches(ch)
    assert not Response(b"s", 2, "pow", {}, 0.1).matches(ch)
    assert not Response(b"s", 1, "vdf", {}, 0.1).matches(ch)
    assert not Response(b"z", 1, "pow", {}, 0.1).matches(ch)


# --- config numbers ----------------------------------------------------------


@pytest.mark.parametrize("kind", [int, float])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan", "-inf", "1e400"])
def test_coerce_refuses_a_number_that_is_not_finite(kind, value):
    # a range check such as lambda_min <= 0 is false for NaN
    with pytest.raises(ValueError, match="x: expected"):
        core._coerce("x", kind, value)


def test_coerce_reads_an_int_field_exactly():
    # through a float, 2^53 + 1 would read as 2^53
    assert core._coerce("seed", int, "9007199254740993") == 9007199254740993
    assert core._coerce("modulus_n", int, str((1 << 127) - 1)) == (1 << 127) - 1
    # a YAML number string still parses if it names a whole number a float holds
    assert core._coerce("rounds", int, "2.0e6") == 2_000_000
    assert core._coerce("rounds", int, 16.0) == 16
    assert core._coerce("rounds", int, float(1 << 53)) == 1 << 53
    for value in ("1e300", 1e300, float((1 << 53) + 2), "2.5", -2.5):
        with pytest.raises(ValueError, match="rounds: expected int"):
            core._coerce("rounds", int, value)
