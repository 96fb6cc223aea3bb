"""Framed transport messages and the canonical record codec.

Frames are binary for length safety: one version byte, one type byte, a
4-byte big-endian payload length, then the payload.

A payload is a record: a text header, then the record's byte strings as
raw bytes.  The header is one ``path=tag:value`` line per leaf, sorted,
each ending in a newline, and then one empty line.  An integer leaf
reads ``i:`` and its decimal digits, and a printable-ASCII string leaf
reads ``s:`` and the string.  A byte-string leaf reads ``b:`` and its
length in decimal, and its bytes follow the empty line, in header
order, up to the record's end.  A gemm product or a residency digest
thus costs its own size on the wire, and decoding one is a slice, not
a parse.  The empty record is no bytes at all.

Every record has exactly one encoding, so any implementation, in any
language, produces the same bytes for the same record, and the decoder
refuses any bytes that ``encode_record`` would not write.  Nothing
hashes those bytes: for now canonical form only makes encoding
deterministic, so peers agree on a record's bytes and its size, and a
later keyed or signed transcript could cover them as they are.

Decoding is total: malformed input of any shape raises WireDecodeError
and nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

# Bumped whenever a puzzle's byte-level definition or a record's layout
# changes, so a peer that speaks another is refused at the header, not
# round by round.
VERSION = 0x08

MSG_CHALLENGE_BATCH = 0x01
MSG_RESPONSE_BATCH = 0x02
MSG_PRE_CHALLENGE = 0x03
MSG_PRE_RESPONSE = 0x04
MSG_ERROR = 0x05

_MSG_TYPES = frozenset(
    (
        MSG_CHALLENGE_BATCH,
        MSG_RESPONSE_BATCH,
        MSG_PRE_CHALLENGE,
        MSG_PRE_RESPONSE,
        MSG_ERROR,
    )
)

MAX_PAYLOAD = 256 << 20

HEADER_LEN = 6

# CPython's default limit on int/str conversion; fixed here so that every
# interpreter refuses the same records (a 2048-bit modulus has 617 digits)
MAX_INT_DIGITS = 4300
_INT_BOUND = 10**MAX_INT_DIGITS  # the least integer of MAX_INT_DIGITS + 1 digits

# components of a record path, so that nesting stays far below the
# interpreter's recursion limit; the protocol's deepest path,
# payload.proofs.0.output_y, has 4
MAX_PATH_DEPTH = 64

_KEY = r"[A-Za-z_][A-Za-z0-9_-]*"
_KEY_RE = re.compile(_KEY)
# a record path: components joined by ".", each a key or a list index
# in canonical decimal
_COMPONENT = rf"(?:{_KEY}|0|[1-9][0-9]*)"
_PATH = rf"{_COMPONENT}(?:\.{_COMPONENT})*"
_PATH_RE = re.compile(_PATH)
# one header line, every value in the one form encode_record writes: an
# integer without leading zeros or "-0", a printable-ASCII string, or a
# byte string's length (at most 10 digits, a bound MAX_PAYLOAD keeps)
_LINE_RE = re.compile(
    rf"({_PATH})=(?:i:(0|-?[1-9][0-9]*)|s:([ -~]*)|b:(0|[1-9][0-9]{{0,9}}))"
)


class WireDecodeError(ValueError):
    """Any malformed frame or record; the only exception decoding raises."""


@dataclass(frozen=True)
class WireMessage:
    """One frame: its type and payload.

    A received frame's payload is the bytearray it was read into, so
    hashing that message raises TypeError, and its length is checked only
    when the message is built: callers must not mutate it.
    """

    msg_type: int
    payload: bytes | bytearray

    def __post_init__(self) -> None:
        if self.msg_type not in _MSG_TYPES:
            raise ValueError(f"unknown message type 0x{self.msg_type:02x}")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError("payload exceeds the 256 MiB cap")


def encode_message(msg: WireMessage) -> bytes:
    return bytes((VERSION, msg.msg_type)) + len(msg.payload).to_bytes(4, "big") + msg.payload


def decode_header(header: bytes) -> tuple[int, int]:
    """Check a frame's first HEADER_LEN bytes; return (type, payload length).

    Streams call this before reading the payload, so a frame of the
    wrong version or type, or one announcing more than the cap, is
    refused before any of its payload is read.
    """
    if not isinstance(header, (bytes, bytearray, memoryview)):
        raise WireDecodeError("frame must be bytes")
    header = bytes(header[:HEADER_LEN])
    if len(header) < HEADER_LEN:
        raise WireDecodeError("truncated frame header")
    if header[0] != VERSION:
        raise WireDecodeError(f"unsupported version 0x{header[0]:02x}")
    msg_type = header[1]
    if msg_type not in _MSG_TYPES:
        raise WireDecodeError(f"unknown message type 0x{msg_type:02x}")
    length = int.from_bytes(header[2:], "big")
    if length > MAX_PAYLOAD:
        raise WireDecodeError("declared payload exceeds the 256 MiB cap")
    return msg_type, length


def decode_message(data: bytes) -> WireMessage:
    """Parse one complete frame; trailing bytes are an error."""
    msg_type, length = decode_header(data)
    if len(data) - HEADER_LEN != length:
        raise WireDecodeError("frame length does not match payload")
    return WireMessage(msg_type=msg_type, payload=bytes(data[HEADER_LEN:]))


def _emit(path: str, value, lines: list[str], blobs: dict[str, bytes], depth: int = 1) -> None:
    if depth > MAX_PATH_DEPTH:
        raise TypeError(f"record path nests deeper than {MAX_PATH_DEPTH} components")
    if isinstance(value, bool):
        # booleans ride as integers; records are typed i/s/b only
        lines.append(f"{path}=i:{int(value)}")
    elif isinstance(value, int):
        if abs(value) >= _INT_BOUND:
            raise TypeError(f"integer at {path!r} has more than {MAX_INT_DIGITS} digits")
        lines.append(f"{path}=i:{value}")
    elif isinstance(value, (bytes, bytearray, memoryview)):
        value = bytes(value)
        line = f"{path}=b:{len(value)}"
        lines.append(line)
        blobs[line] = value
    elif isinstance(value, str):
        if not value.isascii() or not value.isprintable():
            raise TypeError(f"string at {path!r} must be printable ASCII")
        lines.append(f"{path}=s:{value}")
    elif isinstance(value, Mapping):
        if not value:
            raise TypeError(f"empty mapping at {path!r} is not encodable")
        for key in value:
            if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
                raise TypeError(f"bad record key {key!r} under {path!r}")
            _emit(f"{path}.{key}", value[key], lines, blobs, depth + 1)
    elif isinstance(value, (list, tuple)):
        if not value:
            raise TypeError(f"empty list at {path!r} is not encodable")
        for i, item in enumerate(value):
            _emit(f"{path}.{i}", item, lines, blobs, depth + 1)
    else:
        raise TypeError(f"cannot encode {type(value).__name__} at {path!r}")


def encode_record(record: Mapping) -> bytes:
    """Serialize a nested record to its canonical bytes.

    Values may be int (at most ``MAX_INT_DIGITS`` digits), bytes, str,
    and nested non-empty dicts/lists, at most ``MAX_PATH_DEPTH`` path
    components deep; dict keys must be
    identifier-like (never all digits, which is how list indices are
    spelled).  The output is the canonical encoding: same record, same
    bytes, always.
    """
    if not isinstance(record, Mapping):
        raise TypeError("top-level record must be a mapping")
    lines: list[str] = []
    blobs: dict[str, bytes] = {}  # a byte string's header line -> its bytes
    for key in record:
        if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
            raise TypeError(f"bad record key {key!r}")
        _emit(key, record[key], lines, blobs)
    if not lines:
        return b""
    lines.sort()
    # sorting the blob lines alone keeps their order in the header
    return b"".join(
        ["\n".join(lines).encode("ascii"), b"\n\n"] + [blobs[line] for line in sorted(blobs)]
    )


def _parse_int(digits: str) -> int:
    """A canonical decimal (``_LINE_RE`` checked its form) within the cap."""
    width = len(digits) - (digits[0] == "-")
    if width > MAX_INT_DIGITS:
        raise WireDecodeError(f"integer of {width} digits exceeds the cap")
    try:
        return int(digits)
    except ValueError as exc:  # an interpreter digit limit set below the cap
        raise WireDecodeError(f"integer of {width} digits is too long") from exc


def _bad_line(line: str) -> WireDecodeError:
    """The error for a header line ``_LINE_RE`` refused, naming a bad path."""
    path, eq, _ = line.partition("=")
    if eq and not _PATH_RE.fullmatch(path):
        return WireDecodeError(f"bad record path {path!r}")
    return WireDecodeError(f"malformed line {line!r}")


def _collapse(node):
    """Turn {digit-string: v} levels into lists; leave plain dicts alone."""
    if not isinstance(node, dict):
        return node
    collapsed = {k: _collapse(v) for k, v in node.items()}
    digit_keys = [k for k in collapsed if k.isdigit()]
    if digit_keys and len(digit_keys) != len(collapsed):
        raise WireDecodeError("mixed list indices and named keys at one level")
    if digit_keys:
        # indices are canonical decimal, so comparing strings avoids int()
        # on an index of any length
        order = [str(i) for i in range(len(digit_keys))]
        if set(digit_keys) != set(order):
            raise WireDecodeError("list indices must be contiguous from 0")
        return [collapsed[k] for k in order]
    return collapsed


def decode_record(data: bytes) -> dict:
    """Inverse of encode_record; raises WireDecodeError on any malformation,
    and on any bytes ``encode_record`` would not write."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WireDecodeError("record must be bytes")
    if isinstance(data, memoryview):
        data = bytes(data)
    if not data:
        return {}
    # byte strings are cut from a view, so a received bytearray is copied
    # only leaf by leaf, never whole
    view = memoryview(data)
    # header lines are never empty, so the first empty line ends the header
    cut = data.find(b"\n\n")
    if cut < 0:
        raise WireDecodeError("record header has no terminating empty line")
    try:
        header = data[:cut].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireDecodeError("record header is not ASCII") from exc
    offset = cut + 2  # where the next byte string starts
    root: dict = {}
    previous = ""
    for line in header.split("\n"):
        match = _LINE_RE.fullmatch(line)
        if match is None:
            raise _bad_line(line)
        # the encoder sorts its lines, so each one follows the one before
        if line <= previous:
            raise WireDecodeError(f"line {line!r} is out of order or repeated")
        previous = line
        path, digits, text, length = match.groups()
        if digits is not None:
            leaf = _parse_int(digits)
        elif length is not None:
            size = int(length)
            if size > MAX_PAYLOAD:
                raise WireDecodeError(f"byte string at {path!r} exceeds the 256 MiB cap")
            if offset + size > len(data):
                raise WireDecodeError(f"byte string at {path!r} runs past the record's end")
            leaf = bytes(view[offset : offset + size])
            offset += size
        else:
            leaf = text
        parts = path.split(".")
        if len(parts) > MAX_PATH_DEPTH:
            raise WireDecodeError(f"record path of {len(parts)} components exceeds the cap")
        node = root
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise WireDecodeError(f"path conflict at {part!r}")
            node = nxt
        last = parts[-1]
        if last in node:
            raise WireDecodeError(f"duplicate path {path!r}")
        node[last] = leaf
    if offset != len(data):
        raise WireDecodeError(f"{len(data) - offset} bytes left over after the byte strings")
    record = _collapse(root)
    if isinstance(record, list):
        raise WireDecodeError("top-level record keys are list indices, not names")
    return record
