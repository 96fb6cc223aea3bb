"""Frame and record codec tests.

The load-bearing property is totality: decode_message and decode_record
must raise WireDecodeError and nothing else on arbitrary input, because
a listening daemon feeds them raw network bytes. A seven-figure fuzz
run backs the hypothesis properties here; it stays fast because almost
every random input fails at the header checks.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gputelem import wire

# --- frames -----------------------------------------------------------------


def test_frame_known_bytes():
    msg = wire.WireMessage(wire.MSG_CHALLENGE_BATCH, b"abc")
    # 0x07: the residency dataset is one keyed stream, sketched in at most
    # 512 columns; 0x06 keyed each block and cut columns block by block
    # and dropped solve_time_ns, 0x05 appended a phase-2 end state, 0x04
    # carried an unkeyed aggregate, 0x03 answered residency with one
    # SHA-256 scan, 0x02 masked each block
    assert wire.VERSION == 0x07
    assert wire.encode_message(msg) == b"\x07\x01\x00\x00\x00\x03abc"


def test_readme_names_the_current_wire_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"Frames\s+carry\s+wire\s+version\s+(\d+)", readme)
    assert named == [str(wire.VERSION)]


def test_frame_round_trip_all_types():
    for msg_type in sorted(wire._MSG_TYPES):
        msg = wire.WireMessage(msg_type, bytes([msg_type]) * 17)
        decoded = wire.decode_message(wire.encode_message(msg))
        assert decoded == msg


@given(st.binary(max_size=512))
@settings(max_examples=100, deadline=None)
def test_frame_payload_round_trip(payload):
    msg = wire.WireMessage(wire.MSG_RESPONSE_BATCH, payload)
    assert wire.decode_message(wire.encode_message(msg)) == msg


def test_frame_every_strict_prefix_is_rejected():
    encoded = wire.encode_message(wire.WireMessage(wire.MSG_ERROR, b"boom"))
    for cut in range(len(encoded)):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_message(encoded[:cut])


def test_frame_header_rejections():
    good = wire.encode_message(wire.WireMessage(wire.MSG_PRE_CHALLENGE, b"x"))
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(b"\x01" + good[1:])  # retired version 1
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(b"\x02" + good[1:])  # retired version 2
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(b"\x03" + good[1:])  # retired version 3
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(b"\x04" + good[1:])  # retired version 4
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(good[:1] + b"\x7f" + good[2:])  # unknown type
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(good + b"Z")  # trailing byte
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message("not-bytes")  # type confusion
    # declared length over the cap fails before reading any payload
    huge = bytes((wire.VERSION, wire.MSG_ERROR)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(wire.WireDecodeError):
        wire.decode_message(huge)


def test_frame_accepts_bytearray_and_memoryview():
    encoded = wire.encode_message(wire.WireMessage(wire.MSG_PRE_RESPONSE, b"mv"))
    assert wire.decode_message(bytearray(encoded)).payload == b"mv"
    assert wire.decode_message(memoryview(encoded)).payload == b"mv"


def test_wire_message_constructor_validation():
    with pytest.raises(ValueError):
        wire.WireMessage(0x7E, b"")


# --- canonical records ------------------------------------------------------


def test_record_known_canonical_bytes():
    record = {"b": 1, "a": {"c": b"\x00\xff", "d": ["x", "y"]}}
    assert wire.encode_record(record) == (
        b"a.c=x:00ff\na.d.0=s:x\na.d.1=s:y\nb=i:1\n"
    )


def test_record_key_order_never_matters():
    first = wire.encode_record({"x": 1, "y": {"a": 2, "b": 3}})
    second = wire.encode_record({"y": {"b": 3, "a": 2}, "x": 1})
    assert first == second


def test_record_bools_ride_as_integers():
    assert wire.encode_record({"ok": True}) == b"ok=i:1\n"
    assert wire.decode_record(b"ok=i:1\n") == {"ok": 1}


def test_record_empty_round_trip():
    assert wire.encode_record({}) == b""
    assert wire.decode_record(b"") == {}


def test_record_negative_and_huge_integers():
    record = {"neg": -(2**200), "zero": 0, "big": 2**521 - 1}
    assert wire.decode_record(wire.encode_record(record)) == record


def test_record_value_strings_may_contain_separators():
    record = {"s": "a=b:c d"}
    assert wire.decode_record(wire.encode_record(record)) == record


def test_record_encode_type_errors():
    for bad in (
        {"a": {}},  # empty mapping
        {"a": []},  # empty list
        {"a": 1.5},  # floats have no canonical form
        {"a": None},
        {"a": "caf\xe9"},  # non-ASCII
        {"a": "tab\there"},  # non-printable
        {"1a": 1},  # key starts with a digit
        {"with space": 1},
        {7: 1},  # non-string key
        {"a": {"0": 1}},  # digit key collides with list syntax
    ):
        with pytest.raises(TypeError):
            wire.encode_record(bad)
    with pytest.raises(TypeError):
        wire.encode_record([1, 2])  # top level must be a mapping


def test_record_decode_malformations():
    for bad in (
        b"a=i:1",  # missing trailing newline
        b"a=q:1\n",  # unknown tag
        b"a:i=1\n",  # separators swapped
        b"a=i:\n",  # empty integer
        b"a=i:-\n",
        b"a=i:1.5\n",
        b"a=i:+7\n",
        b"a=x:0f0\n",  # odd-length hex
        b"a=x:zz\n",
        b"a..b=i:1\n",  # empty path component
        b"a.01=i:1\n",  # zero-padded list index
        b"a=i:1\na=i:2\n",  # duplicate path
        b"a=i:1\na.b=i:2\n",  # leaf reused as subtree
        b"a.0=i:1\na.b=i:2\n",  # list and named keys mixed
        b"a.0=i:1\na.2=i:3\n",  # hole in list indices
        b"\xffbinary\n",  # not ASCII
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(bad)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_record("text")  # type confusion


def _reference_path_ok(path):
    """The per-character path rule the compiled path pattern replaced."""
    for part in path.split("."):
        if not part or not all(c.isalnum() or c in "_-" for c in part):
            return False
        if part.isdigit() and len(part) > 1 and part[0] == "0":
            return False
    return True


def _path_refused(path):
    """decode_record refuses a one-line record for its path (not, say, a list hole)."""
    try:
        wire.decode_record(f"{path}=i:1\n".encode("ascii"))
    except wire.WireDecodeError as exc:
        return str(exc).startswith(("bad record path", "non-canonical list index"))
    return False


# an ASCII path as it can reach the path check: no "=" (the line is cut
# at its first one) and no newline (the record is cut into lines there)
_ascii_paths = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x7F, blacklist_characters="=\n"),
    max_size=12,
)
_path_like = st.lists(
    st.text(alphabet="aZ09_-.", max_size=4), min_size=1, max_size=4
).map(".".join)


@given(st.one_of(_ascii_paths, _path_like))
@example("")
@example("a")
@example("a..b")  # empty component
@example(".a")  # leading dot
@example("a.")  # trailing dot
@example(".")
@example("-.a_b.c-d._")  # "-" and "_" anywhere
@example("a.01")  # non-canonical index
@example("a.0.10")
@example("a.00")
@example("a.0b")  # a name that starts with 0
@example("a b")
@example("a\tb")
@settings(max_examples=300, deadline=None)
def test_path_pattern_accepts_what_the_per_character_rule_accepts(path):
    assert _path_refused(path) != _reference_path_ok(path)


_keys = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,8}", fullmatch=True)
_scalars = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.binary(max_size=40),
    st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=20
    ),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=4),
        st.dictionaries(_keys, children, min_size=1, max_size=4),
    ),
    max_leaves=12,
)
_records = st.dictionaries(_keys, _values, max_size=5)


@given(_records)
@settings(max_examples=200, deadline=None)
def test_record_round_trip_property(record):
    encoded = wire.encode_record(record)
    assert wire.decode_record(encoded) == record
    # canonical form is a fixed point
    assert wire.encode_record(wire.decode_record(encoded)) == encoded


# --- totality fuzz -------------------------------------------------------------


def test_decoders_are_total_over_a_million_inputs():
    """No input, however mangled, may raise anything but WireDecodeError."""
    rng = random.Random(0xF00D)
    pool = rng.randbytes(4 << 20)
    valid = wire.encode_message(
        wire.WireMessage(wire.MSG_CHALLENGE_BATCH, wire.encode_record({"k": 1}))
    )
    decoded_ok = 0
    for i in range(1_000_000):
        if i % 9973 == 0:
            chunk = valid  # sanity seeds: known-good frames must pass
        elif i % 17 == 0:
            # penetrate past the header checks with a plausible prefix
            cut = rng.randrange(24)
            chunk = bytes((wire.VERSION, wire.MSG_CHALLENGE_BATCH)) + pool[cut : cut + rng.randrange(0, 12)]
        else:
            start = rng.randrange(len(pool) - 64)
            chunk = pool[start : start + rng.randrange(0, 24)]
        try:
            wire.decode_message(chunk)
            decoded_ok += 1
        except wire.WireDecodeError:
            pass
    assert decoded_ok >= 1_000_000 // 9973


def test_decode_record_refuses_over_long_integers():
    """5000 digits passes CPython's int() limit; the decoder must not leak its ValueError."""
    for digits in ("7" * 5000, "-" + "7" * 5000, "1" * (wire.MAX_INT_DIGITS + 1)):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(f"a=i:{digits}\n".encode())
    widest = "9" * wire.MAX_INT_DIGITS
    assert wire.decode_record(f"a=i:{widest}\n".encode()) == {"a": int(widest)}


def test_record_paths_are_refused_beyond_the_depth_cap():
    """Nesting 600 deep would overrun the recursion limit; the cap refuses it first."""
    with pytest.raises(wire.WireDecodeError, match="components"):
        wire.decode_record(("a." * 599 + "a=i:1\n").encode())
    deepest, too_deep = {"a": 1}, {"a": 1}
    for _ in range(wire.MAX_PATH_DEPTH - 1):
        deepest = {"a": deepest}
    for _ in range(wire.MAX_PATH_DEPTH):
        too_deep = {"a": too_deep}
    assert wire.decode_record(wire.encode_record(deepest)) == deepest
    with pytest.raises(wire.WireDecodeError):
        wire.decode_record(("a." * wire.MAX_PATH_DEPTH + "a=i:1\n").encode())
    with pytest.raises(TypeError, match="deeper"):
        wire.encode_record(too_deep)


def test_decode_record_refuses_a_top_level_list():
    """Every record decodes to a dict: top-level list indices, which the
    encoder cannot write (a key starts with a letter or "_"), are refused."""
    for record in (b"0=i:1\n", b"0=i:1\n1.a=s:x\n"):
        with pytest.raises(wire.WireDecodeError, match="list indices"):
            wire.decode_record(record)
    assert wire.decode_record(b"a.0=i:1\n") == {"a": [1]}


def test_decode_record_refuses_over_long_list_indices():
    for record in (
        "a." + "1" * 5000 + "=i:1\n",
        "a.0=i:1\na." + "9" * 5000 + "=i:2\n",
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(record.encode())


def test_decode_header_checks_before_the_payload():
    assert wire.decode_header(bytes((wire.VERSION, wire.MSG_ERROR)) + b"\x00\x00\x01\x00") == (
        wire.MSG_ERROR,
        256,
    )
    for bad in (
        b"\x01\x05\x00\x00\x00\x64",  # retired version 1
        b"\x02\x05\x00\x00\x00\x64",  # retired version 2
        b"\x03\x05\x00\x00\x00\x64",  # retired version 3
        b"\x04\x05\x00\x00\x00\x64",  # retired version 4
        bytes((wire.VERSION, 0x7F)) + b"\x00\x00\x00\x00",  # unknown type
        bytes((wire.VERSION, wire.MSG_ERROR)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big"),
        bytes((wire.VERSION, wire.MSG_ERROR, 0)),  # truncated
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_header(bad)


def test_record_decoder_survives_mutated_valid_inputs():
    """Single-byte corruptions of real records: accept or WireDecodeError."""
    rng = random.Random(0xBEAD)
    base = wire.encode_record(
        {"sid": b"\x01\x02", "mode": "pow", "params": {"d": 8, "mem": 1024}, "v": [1, 2, 3]}
    )
    for _ in range(20_000):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            wire.decode_record(bytes(mutated))
        except wire.WireDecodeError:
            pass
