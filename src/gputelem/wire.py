"""Framed transport messages and the canonical record codec.

Frames are binary for length safety: one version byte, one type byte, a
4-byte big-endian payload length, then the payload.  Payloads are
canonical textual records (sorted ``path=tag:value`` lines), so any
implementation, in any language, produces the same bytes for the same
record.  Nothing hashes those bytes: for now canonical form only makes
encoding deterministic, so peers agree on a record's bytes and its
size, and a later keyed or signed transcript could cover them as they
are.

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
VERSION = 0x07

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

# components of a record path, so that nesting stays far below the
# interpreter's recursion limit; the protocol's deepest path,
# payload.proofs.0.output_y, has 4
MAX_PATH_DEPTH = 64

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
# a record path: non-empty components of ASCII letters, digits, "_" and
# "-", joined by "."
_PATH_RE = re.compile(r"[A-Za-z0-9_-]+(?:\.[A-Za-z0-9_-]+)*")


class WireDecodeError(ValueError):
    """Any malformed frame or record; the only exception decoding raises."""


@dataclass(frozen=True)
class WireMessage:
    msg_type: int
    payload: bytes

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


def _emit(path: str, value, lines: list[str], depth: int = 1) -> None:
    if depth > MAX_PATH_DEPTH:
        raise TypeError(f"record path nests deeper than {MAX_PATH_DEPTH} components")
    if isinstance(value, bool):
        # booleans ride as integers; records are typed i/x/s only
        lines.append(f"{path}=i:{int(value)}")
    elif isinstance(value, int):
        lines.append(f"{path}=i:{value}")
    elif isinstance(value, (bytes, bytearray, memoryview)):
        lines.append(f"{path}=x:{bytes(value).hex()}")
    elif isinstance(value, str):
        if not value.isascii() or not value.isprintable():
            raise TypeError(f"string at {path!r} must be printable ASCII")
        lines.append(f"{path}=s:{value}")
    elif isinstance(value, Mapping):
        if not value:
            raise TypeError(f"empty mapping at {path!r} is not encodable")
        for key in value:
            if not isinstance(key, str) or not _KEY_RE.match(key):
                raise TypeError(f"bad record key {key!r} under {path!r}")
            _emit(f"{path}.{key}", value[key], lines, depth + 1)
    elif isinstance(value, (list, tuple)):
        if not value:
            raise TypeError(f"empty list at {path!r} is not encodable")
        for i, item in enumerate(value):
            _emit(f"{path}.{i}", item, lines, depth + 1)
    else:
        raise TypeError(f"cannot encode {type(value).__name__} at {path!r}")


def encode_record(record: Mapping) -> bytes:
    """Serialize a nested record to canonical sorted-line form.

    Values may be int, bytes, str, and nested non-empty dicts/lists,
    at most ``MAX_PATH_DEPTH`` path components deep; dict keys must be
    identifier-like (never all digits, which is how list indices are
    spelled).  The output is the canonical encoding: same record, same
    bytes, always.
    """
    if not isinstance(record, Mapping):
        raise TypeError("top-level record must be a mapping")
    lines: list[str] = []
    for key in record:
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise TypeError(f"bad record key {key!r}")
        _emit(key, record[key], lines)
    lines.sort()
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_int(text: str) -> int:
    if text in ("", "-"):
        raise WireDecodeError("empty integer value")
    body = text[1:] if text[0] == "-" else text
    if not body.isdigit():
        raise WireDecodeError(f"bad integer {text!r}")
    if len(body) > MAX_INT_DIGITS:
        raise WireDecodeError(f"integer of {len(body)} digits exceeds the cap")
    try:
        return int(text)
    except ValueError as exc:  # an interpreter digit limit set below the cap
        raise WireDecodeError(f"integer of {len(body)} digits is too long") from exc


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
    """Inverse of encode_record; raises WireDecodeError on any malformation."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WireDecodeError("record must be bytes")
    data = bytes(data)
    if data == b"":
        return {}
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireDecodeError("record is not ASCII") from exc
    if not text.endswith("\n"):
        raise WireDecodeError("record must end with a newline")
    root: dict = {}
    for line in text[:-1].split("\n"):
        path, eq, rest = line.partition("=")
        tag, colon, value = rest.partition(":")
        if not eq or not colon or tag not in ("i", "x", "s"):
            raise WireDecodeError(f"malformed line {line!r}")
        if not _PATH_RE.fullmatch(path):
            raise WireDecodeError(f"bad record path {path!r}")
        parts = path.split(".")
        if len(parts) > MAX_PATH_DEPTH:
            raise WireDecodeError(f"record path of {len(parts)} components exceeds the cap")
        for part in parts:
            if part[0] == "0" and len(part) > 1 and part.isdigit():
                raise WireDecodeError(f"non-canonical list index {part!r}")
        if tag == "i":
            leaf = _parse_int(value)
        elif tag == "x":
            try:
                leaf = bytes.fromhex(value)
            except ValueError as exc:
                raise WireDecodeError(f"bad hex value at {path!r}") from exc
        else:
            leaf = value
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
    record = _collapse(root)
    if isinstance(record, list):
        raise WireDecodeError("top-level record keys are list indices, not names")
    return record
