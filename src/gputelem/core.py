"""Shared primitives: salts, digests, hashing, keyed streams, and field encoding.

Everything downstream (puzzle derivation, transcripts, wire records)
funnels through the helpers here so that byte layouts stay consistent
between the challenger and the worker.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import math
import random
import threading
import typing
from dataclasses import dataclass, field, fields

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

KAPPA = 256  # digest width in bits; all targets live in [0, 2**KAPPA)

SALT_LEN = 32
DIGEST_LEN = 32
# live ChaCha20 contexts kept per thread: a residency session reads one
# dataset stream, which planting and every round's 32 spot checks share,
# plus one sketch-weight stream per round, which a worker and a challenger
# in one process share
KEY_MEMO = 32


def hash_bytes(data: bytes) -> bytes:
    """Unkeyed hash. SHA-256, 32 bytes out."""
    return hashlib.sha256(data).digest()


def keyed_hash(key: bytes, data: bytes) -> bytes:
    """Keyed hash. BLAKE2b-256 in keyed mode; key must fit in 64 bytes."""
    if len(key) > 64:
        key = hashlib.blake2b(key, digest_size=64).digest()
    return hashlib.blake2b(data, digest_size=32, key=key).digest()


class _Contexts(threading.local):
    """Each thread's live contexts by (key, domain), least recently used first."""

    def __init__(self) -> None:
        self.memo = collections.OrderedDict()


_CONTEXTS = _Contexts()


def _chacha20(key: bytes, domain: bytes, offset: int):
    """The one ChaCha20 (RFC 8439) context: the (key, domain) stream at ``offset``.

    The cipher key is ``keyed_hash(key, domain)`` and the 16-byte nonce
    is the 4-byte little-endian block counter followed by a 12-byte
    all-zero IV.  A fixed IV is safe because every caller passes its own
    domain (dataset, probe mask, fingerprint mask, matrix pair), so
    no two uses share a cipher key.  The context seeks to ``offset``: it
    starts at the 64-byte block that holds it and skips the bytes of that
    block before it.  Each thread keeps one live context for each of the
    last ``KEY_MEMO`` (key, domain) pairs it used, and seeks it again by
    ``reset_nonce``, so planting and the spot checks of a session derive
    the dataset's key and build its context once per thread.  A context
    is never shared between threads, and the caller uses it before it
    next calls here.
    """
    counter, skip = divmod(offset, 64)
    nonce = counter.to_bytes(4, "little") + bytes(12)
    memo = _CONTEXTS.memo
    encryptor = memo.pop((key, domain), None)
    if encryptor is None:
        cipher_key = keyed_hash(key, domain)
        encryptor = Cipher(algorithms.ChaCha20(cipher_key, nonce), mode=None).encryptor()
        if len(memo) >= KEY_MEMO:
            memo.popitem(last=False)
    else:
        encryptor.reset_nonce(nonce)
    memo[key, domain] = encryptor
    if skip:
        encryptor.update(bytes(skip))
    return encryptor


def keyed_stream(key: bytes, nbytes: int, domain: bytes = b"") -> bytes:
    """The first ``nbytes`` of the keyed stream, ``_chacha20``'s for (key, domain).

    A shorter request is a prefix of a longer one.  Used where a digest
    has to be stretched into fresh bytes (sketch weights) without
    changing the 32-byte digest convention elsewhere; ``keyed_xor_into`` of a zeroed buffer writes the same
    bytes into memory the caller already holds (the dataset, matrices).
    """
    return _chacha20(key, domain, 0).update(bytes(nbytes))


def keyed_xor_into(buf, key: bytes, domain: bytes = b"", offset: int = 0) -> None:
    """XOR ``buf`` in place with bytes [offset, offset + len) of the keyed stream.

    ``buf`` is any writable C-contiguous buffer (a ``bytearray``, a
    slice of one's ``memoryview``, a numpy array), XORed with no
    intermediate allocation; into zeros it writes the keyed stream, and
    applying it twice restores ``buf``.  A read-only or non-contiguous
    buffer is refused with a TypeError.
    """
    view = memoryview(buf).cast("B")
    _chacha20(key, domain, offset).update_into(view, view)


def encode_fields(*parts: bytes | int | str) -> bytes:
    """Length-prefixed serialization of heterogeneous fields.

    Each part becomes ``len(payload)`` as 4-byte big-endian followed by
    the payload.  Integers are encoded as minimal-width big-endian
    magnitude (negative values are rejected), strings as UTF-8.  This
    layout is what every hashed or signed record in the protocol uses,
    so both sides derive identical transcripts.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, int):
            if part < 0:
                raise ValueError("only non-negative integers are encodable")
            payload = part.to_bytes(max(1, (part.bit_length() + 7) // 8), "big")
        elif isinstance(part, str):
            payload = part.encode("utf-8")
        elif isinstance(part, (bytes, bytearray)):
            payload = bytes(part)
        else:
            raise TypeError(f"cannot encode field of type {type(part).__name__}")
        out += len(payload).to_bytes(4, "big")
        out += payload
    return bytes(out)


def digest_to_int(digest: bytes) -> int:
    """Interpret a digest as a big-endian unsigned integer."""
    return int.from_bytes(digest, "big")


def digest_below_target(digest: bytes, difficulty: int) -> bool:
    """Difficulty test: digest < 2**(KAPPA - difficulty).

    ``difficulty`` counts leading zero bits demanded of the digest; 0
    accepts everything, KAPPA accepts nothing but the zero digest's
    strict predecessors (i.e. nothing).
    """
    if not 0 <= difficulty <= KAPPA:
        raise ValueError(f"difficulty must lie in [0, {KAPPA}]")
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes")
    return digest_to_int(digest) < (1 << (KAPPA - difficulty))


class PuzzleExhaustedError(RuntimeError):
    """A solver spent its params' ``max_attempts`` with no attempt clearing the target."""


def generate_salt(rng: random.Random) -> bytes:
    """Draw a fresh 32-byte salt from the supplied RNG.

    Salt freshness is what resets the timing model between rounds, so
    the caller controls the RNG (seeded for replay, SystemRandom for
    production).
    """
    return rng.randbytes(SALT_LEN)


def issued_at_micros(issued_at: float) -> int:
    """Canonical microsecond stamp for a challenge issue time.

    Round-to-nearest, not truncation: the nearest-integer map survives
    a float division/multiplication round trip for any epoch below
    2**51 microseconds, so challenger and worker agree on the stamp
    after it crosses the wire as an integer.
    """
    return round(issued_at * 1e6)


@dataclass(frozen=True)
class Challenge:
    """One issued challenge.

    ``mode`` names the puzzle family ("pow", "vdf", "gemm", "residency").
    ``params`` is the mode's challenge params as a plain dict; the
    protocol layer types it (``protocol.params_for``), so this module
    needs no puzzle module.
    """

    session_id: bytes
    index: int
    mode: str
    salt: bytes
    issued_at: float
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """Worker's answer to one challenge: an opaque payload plus timing.

    ``solve_time`` is the worker's own modeled duration, which its clock
    has already waited out when the response is returned.  Nothing in
    this package reads it (the challenger times each round itself), and
    it never crosses the wire, so a parsed response holds the default 0.0.
    """

    session_id: bytes
    index: int
    mode: str
    payload: dict
    solve_time: float = 0.0

    def matches(self, challenge: Challenge) -> bool:
        return (
            self.session_id == challenge.session_id
            and self.index == challenge.index
            and self.mode == challenge.mode
        )


@dataclass(frozen=True)
class TimingSample:
    """One timing observation fed to the statistical tests.

    ``duration`` is wall time in seconds, ``valid`` records whether the
    accompanying solution verified.  An invalid sample still counts its
    time, and it rejects the session it belongs to.
    """

    index: int
    mode: str
    duration: float
    valid: bool


# --- config blocks ---------------------------------------------------------


def _coerce(name: str, kind: type, value):
    """``value`` as an int, float or str field; bools are never numbers.

    A number must be finite.  An int field reads an int, or a string
    ``int()`` reads, exactly at any width (a vdf modulus has hundreds of
    bits); any other number it reads through ``float()`` must be whole
    and at most 2^53 in magnitude, below which a float holds every integer.
    """
    if kind is str:
        if isinstance(value, str):
            return value
    elif not isinstance(value, bool):
        if kind is int and (type(value) is int or isinstance(value, str)):
            try:
                return int(value)
            except ValueError:
                pass
        # YAML 1.1 floats need a signed exponent, so "2.0e6" arrives as a
        # string; accept anything float() does
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (
            kind is float or (number.is_integer() and abs(number) <= 1 << 53)
        ):
            return kind(number)
    raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}")


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> (type, accepts None) of a config dataclass, resolved once."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        types[f.name] = (args[0], True) if args else (hints[f.name], False)
    return types


def _refuse_unknown(raw: dict, known, block: str) -> None:
    if not isinstance(raw, dict):
        raise ValueError(f"{block} must be a key-value block, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown:
        raise ValueError(f"unknown {block} fields: {unknown}")


def _split_block(raw: dict | None, classes: tuple, block: str, extra: tuple = ()) -> list[dict]:
    """A config block cut into the keys of each class that reads it.

    A key that is neither a field of one of ``classes`` nor in ``extra``
    is read by nothing, so it is refused, naming ``block``: a misspelt
    key must not leave its field at the default.
    """
    raw = raw or {}
    owners = [_field_types(cls) for cls in classes]
    _refuse_unknown(raw, set(extra).union(*owners), block)
    return [{k: v for k, v in raw.items() if k in types} for types in owners]


def _parse_fields(cls, raw: dict | None, block: str = ""):
    """An instance of the config dataclass ``cls`` from a config block.

    Keys and types are the fields of ``cls`` (int, float, str, or one of
    them ``| None``); an omitted key takes the field default, so a
    block's defaults live only in its class.  Numbers may be YAML number
    strings, and an int field needs a whole number.  A key that is not a
    field is refused, naming ``block`` (default: the class); a block
    that several classes read goes through ``_split_block`` first.
    """
    types = _field_types(cls)
    raw = raw or {}
    _refuse_unknown(raw, types, block or cls.__name__)
    values = {}
    for key, (kind, optional) in types.items():
        if key in raw:
            value = raw[key]
            values[key] = None if optional and value is None else _coerce(key, kind, value)
    return cls(**values)
