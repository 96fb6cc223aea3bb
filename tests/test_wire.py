"""Frame and record codec tests.

The load-bearing property is totality: decode_message and decode_record
must raise WireDecodeError and nothing else on arbitrary input, because
a listening daemon feeds them raw network bytes. A seven-figure fuzz
run backs the hypothesis properties here; it stays fast because almost
every random input fails at the header checks.
"""

import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gputelem import protocol, wire
from gputelem.residency import DatasetSpec
from gputelem.worksim import SimWorker, WorkerProfile

# --- frames -----------------------------------------------------------------


def test_frame_known_bytes():
    msg = wire.WireMessage(wire.MSG_CHALLENGE_BATCH, b"abc")
    # 0x08: byte strings ride raw after the record's text header; 0x07
    # wrote them as hex and sketched the residency dataset as one keyed
    # stream in at most 512 columns, 0x06 keyed each block and cut
    # columns block by block and dropped solve_time_ns, 0x05 appended a
    # phase-2 end state, 0x04 carried an unkeyed aggregate, 0x03 answered
    # residency with one SHA-256 scan, 0x02 masked each block
    assert wire.VERSION == 0x08
    assert wire.encode_message(msg) == b"\x08\x01\x00\x00\x00\x03abc"


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
    for retired in range(1, wire.VERSION):
        with pytest.raises(wire.WireDecodeError, match="unsupported version"):
            wire.decode_message(bytes((retired,)) + good[1:])
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
        b"a.c=b:2\na.d.0=s:x\na.d.1=s:y\nb=i:1\n\n\x00\xff"
    )


def test_record_byte_strings_follow_the_header_in_header_order():
    record = {"z": b"last", "a": [b"", b"\n\n=b:9\n"], "m": 7}
    encoded = wire.encode_record(record)
    assert encoded == b"a.0=b:0\na.1=b:7\nm=i:7\nz=b:4\n\n" + b"\n\n=b:9\n" + b"last"
    assert wire.decode_record(encoded) == record
    # bytearray and memoryview leaves ride as their bytes and decode as bytes
    assert wire.encode_record({"a": bytearray(b"xy"), "b": memoryview(b"z")}) == (
        b"a=b:2\nb=b:1\n\nxyz"
    )


def test_record_key_order_never_matters():
    first = wire.encode_record({"x": 1, "y": {"a": 2, "b": 3}})
    second = wire.encode_record({"y": {"b": 3, "a": 2}, "x": 1})
    assert first == second


def test_record_bools_ride_as_integers():
    assert wire.encode_record({"ok": True}) == b"ok=i:1\n\n"
    assert wire.decode_record(b"ok=i:1\n\n") == {"ok": 1}


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
        {"a\n": 1},  # a key may not end a header line
        {"a": 10**wire.MAX_INT_DIGITS},  # one digit more than decode_record takes
        {"a": -(10**wire.MAX_INT_DIGITS)},
    ):
        with pytest.raises(TypeError):
            wire.encode_record(bad)
    with pytest.raises(TypeError):
        wire.encode_record([1, 2])  # top level must be a mapping


def test_record_decode_malformations():
    for bad in (
        b"a=i:1",  # no header terminator
        b"a=i:1\n",
        b"\n",
        b"\n\n",  # a header of no lines is the empty record, b""
        b"a=q:1\n\n",  # unknown tag
        b"a=x:00ff\n\n",  # hex, retired with wire version 8
        b"a:i=1\n\n",  # separators swapped
        b"a=i:\n\n",  # empty integer
        b"a=i:-\n\n",
        b"a=i:1.5\n\n",
        b"a=i:+7\n\n",
        b"a=s:tab\there\n\n",  # a string the encoder refuses
        b"a=s:\x7f\n\n",
        b"a..b=i:1\n\n",  # empty path component
        b"a.01=i:1\n\n",  # zero-padded list index
        b"a.b c=i:1\n\n",
        b"a=i:1\na=i:2\n\n",  # duplicate path
        b"a=i:1\na=i:1\n\n",  # repeated line
        b"a.b=i:2\na=i:1\n\n",  # leaf reused as subtree
        b"a.0=i:1\na.b=i:2\n\n",  # list and named keys mixed
        b"a.0=i:1\na.2=i:3\n\n",  # hole in list indices
        b"a=i:1\n\n\n",  # a second empty line is a stray byte
        b"\xffbinary\n\n",  # not ASCII
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(bad)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_record("text")  # type confusion


def _reference_path_ok(path):
    """The path rule character by character: each component is a list
    index in canonical decimal or a key the encoder accepts."""
    for part in path.split("."):
        if not part or not all(c.isascii() and (c.isalnum() or c in "_-") for c in part):
            return False
        if part.isdigit():
            if len(part) > 1 and part[0] == "0":
                return False
        elif not (part[0].isalpha() or part[0] == "_"):
            return False
    return True


def _path_refused(path):
    """decode_record refuses a one-line record for its path (not, say, a list hole)."""
    try:
        wire.decode_record(f"{path}=i:1\n\n".encode("ascii"))
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
@example("-a")  # a name that starts with "-"
@example("a.9")
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
        wire.WireMessage(
            wire.MSG_CHALLENGE_BATCH, wire.encode_record({"k": 1, "sid": b"\n\n\x00"})
        )
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
            wire.decode_record(wire.decode_message(chunk).payload)
            decoded_ok += 1
        except wire.WireDecodeError:
            pass
    assert decoded_ok >= 1_000_000 // 9973


def test_decode_record_refuses_over_long_integers():
    """5000 digits passes CPython's int() limit; the decoder must not leak its ValueError."""
    for digits in ("7" * 5000, "-" + "7" * 5000, "1" * (wire.MAX_INT_DIGITS + 1)):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(f"a=i:{digits}\n\n".encode())
    widest = "9" * wire.MAX_INT_DIGITS
    assert wire.decode_record(f"a=i:{widest}\n\n".encode()) == {"a": int(widest)}


def test_record_paths_are_refused_beyond_the_depth_cap():
    """Nesting 600 deep would overrun the recursion limit; the cap refuses it first."""
    with pytest.raises(wire.WireDecodeError, match="components"):
        wire.decode_record(("a." * 599 + "a=i:1\n\n").encode())
    deepest, too_deep = {"a": 1}, {"a": 1}
    for _ in range(wire.MAX_PATH_DEPTH - 1):
        deepest = {"a": deepest}
    for _ in range(wire.MAX_PATH_DEPTH):
        too_deep = {"a": too_deep}
    assert wire.decode_record(wire.encode_record(deepest)) == deepest
    with pytest.raises(wire.WireDecodeError):
        wire.decode_record(("a." * wire.MAX_PATH_DEPTH + "a=i:1\n\n").encode())
    with pytest.raises(TypeError, match="deeper"):
        wire.encode_record(too_deep)


def test_decode_record_refuses_a_top_level_list():
    """Every record decodes to a dict: top-level list indices, which the
    encoder cannot write (a key starts with a letter or "_"), are refused."""
    for record in (b"0=i:1\n\n", b"0=i:1\n1.a=s:x\n\n"):
        with pytest.raises(wire.WireDecodeError, match="list indices"):
            wire.decode_record(record)
    assert wire.decode_record(b"a.0=i:1\n\n") == {"a": [1]}


def test_decode_record_refuses_over_long_list_indices():
    for record in (
        "a." + "1" * 5000 + "=i:1\n\n",
        "a.0=i:1\na." + "9" * 5000 + "=i:2\n\n",
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(record.encode())


def test_decode_header_checks_before_the_payload():
    assert wire.decode_header(bytes((wire.VERSION, wire.MSG_ERROR)) + b"\x00\x00\x01\x00") == (
        wire.MSG_ERROR,
        256,
    )
    for bad in (
        *(bytes((retired,)) + b"\x05\x00\x00\x00\x64" for retired in range(1, wire.VERSION)),
        bytes((wire.VERSION, 0x7F)) + b"\x00\x00\x00\x00",  # unknown type
        bytes((wire.VERSION, wire.MSG_ERROR)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big"),
        bytes((wire.VERSION, wire.MSG_ERROR, 0)),  # truncated
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_header(bad)


def test_record_decoder_survives_mutated_valid_inputs():
    """Corruptions of real records, byte strings included: one to three
    bytes replaced, inserted or deleted, or the record cut short.  Each
    is refused with WireDecodeError or decodes to a record whose
    encoding is the corrupted bytes themselves."""
    rng = random.Random(0xBEAD)
    bases = [
        wire.encode_record(record)
        for record in (
            {"sid": b"\x01\x02", "mode": "pow", "params": {"d": 8, "mem": 1024}, "v": [1, 2, 3]},
            {"a": [b"", b"\n\n", b"=b:1\n"], "b": b"x" * 40, "n": -17},
            {"p": {"product_c": rng.randbytes(200), "sigma": rng.randbytes(32)}, "index": 9},
        )
    ]
    accepted = 0
    for i in range(20_000):
        mutated = bytearray(bases[i % len(bases)])
        for _ in range(rng.randint(1, 3)):
            if not mutated:
                break
            at = rng.randrange(len(mutated))
            op = rng.randrange(4)
            if op == 0:
                mutated[at] = rng.randrange(256)
            elif op == 1:
                mutated.insert(at, rng.choice(b"\n=:.0123456789ab" + bytes((rng.randrange(256),))))
            elif op == 2 and len(mutated) > 1:
                del mutated[at]
            else:
                del mutated[at:]
        try:
            record = wire.decode_record(bytes(mutated))
        except wire.WireDecodeError:
            continue
        accepted += 1
        assert wire.encode_record(record) == mutated
    assert accepted > 0  # a changed blob byte, at least, still decodes


# --- the byte-string layout: totality and canonical form -----------------------


def test_record_layout_malformations_raise_only_wire_decode_errors():
    for bad in (
        b"a=b:5\n\nabc",  # a byte string past the record's end
        b"a=b:2\nb=b:2\n\nabc",  # the second one past it
        b"a=b:2\n\nabc",  # a byte left over after the last byte string
        b"a=b:0\n\n\x00",
        b"a=b:3\nabc",  # no header terminator
        b"a=b:3",
        b"a=b:1x\n\nx",  # a length with a non-digit
        b"a=b:-1\n\n",
        b"a=b: 1\n\nx",
        b"a=b:\n\n",
        b"a=b:03\n\nabc",  # a length with a leading zero
        b"a=b:00\n\n",
        b"a=b:12345678901\n\n",  # a length of 11 digits
        b"a=b:" + b"9" * 4000 + b"\n\n",
        f"a=b:{wire.MAX_PAYLOAD + 1}\n\n".encode(),  # a length over the cap
        f"a=b:{10**10 - 1}\n\n".encode(),
        b"a=i:1\n\nxyz",  # byte-string bytes with no b field in the header
        b"a=s:x\n\n\n",
        b"a=b:1\n\xff\n\nx",  # non-ASCII header
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(bad)


def test_non_canonical_records_are_refused():
    """Spellings encode_record never writes.  Under wire version 7 the
    decoder took leading zeros, "-0", hex in capitals or with a space
    and lines out of order, so that several byte strings meant one
    record; the last five inputs are those, in version 7's layout."""
    for bad in (
        b"a=i:007\n\n",
        b"a=i:-0\n\n",
        b"a=i:-007\n\n",
        b"a=x:ABCD\n\n",
        b"a=x:00 ff\n\n",
        b"b=i:1\na=i:2\n\n",  # paths out of order
        b"a.1=i:1\na.0=i:2\n\n",
        b"a=b:01\n\nx",  # a non-canonical length
        b"a.b-=i:1\na.-b=i:1\n\n",  # "-b" is no key the encoder accepts
        b"a.0b=i:1\n\n",
        # the same inputs in version 7's layout
        b"a=i:007\n",
        b"a=i:-0\n",
        b"a=x:ABCD\n",
        b"a=x:00 ff\n",
        b"b=i:1\na=i:2\n",
    ):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_record(bad)
    assert wire.decode_record(b"a=i:-7\nb=i:0\n\n") == {"a": -7, "b": 0}


# header lines built from pieces that are each canonical or one step off
# it, so that a fair share of the inputs decode and the rest fail late
_near_components = st.sampled_from(
    ["a", "b", "a-1", "_", "0", "1", "2", "10", "01", "00", "-a", "0b", ""]
)
_near_values = st.sampled_from(
    ["i:0", "i:-0", "i:7", "i:007", "i:-12", "i:+1", "i:", "s:", "s:x y", "s:\t", "s:=b:1",
     "b:0", "b:1", "b:2", "b:01", "b:3", "x:00ff", "x:00 ff", "q:1"]
)
_near_lines = st.builds(
    "{}={}".format, st.lists(_near_components, min_size=1, max_size=3).map(".".join), _near_values
)
_near_records = st.builds(
    lambda lines, in_order, end, tail: (
        "\n".join(sorted(lines) if in_order else lines) + end
    ).encode("ascii") + tail,
    st.lists(_near_lines, min_size=1, max_size=5),
    st.booleans(),
    st.sampled_from(["\n\n", "\n", "", "\n\n\n"]),
    st.binary(max_size=6),
)


def _mutate(encoded: bytes, op: int, at: float, byte: int) -> bytes:
    if not encoded:
        return bytes((byte,))
    i = int(at * len(encoded))
    return (
        encoded[:i] + bytes((byte,)) + encoded[i + 1 :],  # replace
        encoded[:i] + bytes((byte,)) + encoded[i:],  # insert
        encoded[:i] + encoded[i + 1 :],  # delete
        encoded[:i],  # cut short
    )[op]


_mutated_records = st.builds(
    _mutate,
    st.dictionaries(_keys, _values, min_size=1, max_size=4).map(
        wire.encode_record
    ),
    st.integers(0, 3),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(b"\n=:.-0123456789bisx\xff"),
)


@given(st.one_of(_near_records, _mutated_records, st.binary(max_size=40)))
@example(b"a=i:007\n\n")
@example(b"a=i:-0\n\n")
@example(b"a=x:ABCD\n\n")
@example(b"a=x:00 ff\n\n")
@example(b"b=i:1\na=i:2\n\n")
@example(b"a=b:01\n\nx")
@example(b"a=b:1\nb=b:1\n\nxy")
@example(b"a.0=s:\na.1=b:0\n\n")
@settings(max_examples=600, deadline=None)
def test_every_record_decode_accepts_is_canonical(data):
    try:
        record = wire.decode_record(data)
    except wire.WireDecodeError:
        return
    assert wire.encode_record(record) == data


# --- record sizes and decode memory --------------------------------------------


def _encoded_response(mode, params, worker=None):
    worker = worker or SimWorker(WorkerProfile(squaring_rate=1e6), seed=5)
    challenge = protocol.build_challenge(b"S" * 32, 0, mode, random.Random(2), 1.0, params)
    return wire.encode_record(protocol.response_record(worker.answer(challenge)))


def test_gemm_response_costs_its_product_and_a_short_header():
    """An n = 64 product is 8 n^2 = 32 KiB of words; as hex the record was
    66 077 bytes."""
    n = 64
    encoded = _encoded_response("gemm", {"dimension_n": n, "difficulty_d": 0, "freivalds_k": 5})
    assert 8 * n * n < len(encoded) <= 8 * n * n + 512


def test_residency_digest_record_costs_its_words_and_a_short_header():
    worker = SimWorker(WorkerProfile(squaring_rate=1e6), seed=5)
    size, block = 1 << 20, 256 << 10
    worker.init_dataset(b"\x07" * 32, size, block)
    columns = DatasetSpec(b"\x07" * 32, size, block).column_count
    encoded = _encoded_response("residency", {}, worker)
    assert 8 * columns < len(encoded) <= 8 * columns + 512


def test_decoding_a_large_product_costs_about_one_copy_of_it():
    """An n = 1024 product record (8 MiB) decodes to one slice per byte
    string: the peak stays within 1.25x the record.  As hex the record
    was 16 MiB and decoding it peaked at about 72 MiB."""
    n = 1024
    product = random.Random(3).randbytes(8 * n * n)
    encoded = wire.encode_record({
        "session_id": b"S" * 32,
        "index": 0,
        "mode": "gemm",
        "payload": {"index_jstar": 0, "chain_state_sigma": b"\x01" * 32, "product_c": product},
    })
    tracemalloc.start()
    try:
        record = wire.decode_record(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record["payload"]["product_c"] == product
    assert peak <= 1.25 * len(encoded)
