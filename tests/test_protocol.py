"""Record schema and validation-dispatch tests.

Round trips go through the full path a networked session uses:
build -> record -> canonical bytes -> record -> parse, so every
serialization detail that could silently drop or reorder a field is
exercised, not just the in-memory dict shapes.
"""

import random
import time
from dataclasses import replace

import pytest

from gputelem import gemm, netcli, protocol, wire
from gputelem.core import Challenge, Response, encode_fields, hash_bytes, issued_at_micros
from gputelem.gemm import FIELD_MODULUS, GemmParams, GemmProof, verify_gemm_puzzle
from gputelem.pow import PowParams
from gputelem.residency import SPOT_CHECKS, DatasetSpec, ResidencyParams
from gputelem.stattests import Verdict, continuous_measurement
from gputelem.vdf import VdfParams
from gputelem.worksim import SimWorker, VirtualClock, WorkerProfile


def _challenge(mode="pow", params=None, index=3):
    return protocol.build_challenge(
        session_id=b"S" * 32,
        index=index,
        mode=mode,
        rng=random.Random(1),
        issued_at=1_700_000_000.125,
        params=params if params is not None else {"difficulty": 4, "argon_memory_kib": 8},
    )


def _answered(mode, params, seed=11):
    worker = SimWorker(WorkerProfile(squaring_rate=1e6), seed=seed)
    challenge = _challenge(mode, params)
    return challenge, worker.answer(challenge)


# --- challenge records ----------------------------------------------------------


def test_challenge_record_round_trip_through_wire_bytes():
    challenge = _challenge()
    record = protocol.challenge_record(challenge)
    raw = wire.encode_record(record)
    parsed = protocol.parse_challenge(wire.decode_record(raw))
    assert parsed == challenge


def test_challenge_issue_time_survives_microsecond_encoding():
    # wall-clock epochs land on fractional microseconds
    challenge = _challenge()
    record = protocol.challenge_record(challenge)
    assert record["issued_at_us"] == 1_700_000_000_125_000
    parsed = protocol.parse_challenge(wire.decode_record(wire.encode_record(record)))
    assert issued_at_micros(parsed.issued_at) == issued_at_micros(challenge.issued_at)
    assert (parsed.session_id, parsed.index, parsed.mode, parsed.salt, parsed.params) == (
        challenge.session_id,
        challenge.index,
        challenge.mode,
        challenge.salt,
        challenge.params,
    )


def test_build_challenge_fresh_salt_per_round():
    rng = random.Random(2)
    a = protocol.build_challenge(b"s", 0, "pow", rng, 0.0, {})
    b = protocol.build_challenge(b"s", 1, "pow", rng, 0.0, {})
    assert a.salt != b.salt
    with pytest.raises(protocol.ProtocolError):
        protocol.build_challenge(b"s", 0, "quantum", rng, 0.0, {})


def test_parse_challenge_refuses_integer_byte_fields():
    # bytes(n) of an integer would be n zero bytes
    for key in ("session_id", "salt"):
        record = protocol.challenge_record(_challenge())
        record[key] = 32
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_challenge(record)
    with pytest.raises(protocol.ProtocolError):
        SimWorker(WorkerProfile(), seed=1).pre_challenge({"session_id": 32, "kind": "pow"})


def test_parse_challenge_refuses_an_issue_stamp_outside_the_exact_range():
    """issued_at_micros round-trips exactly only below 2^51 microseconds,
    and pow_hash packs the stamp into 8 bytes."""
    for stamp in (0, (1 << 51) - 1):
        record = {**protocol.challenge_record(_challenge()), "issued_at_us": stamp}
        assert issued_at_micros(protocol.parse_challenge(record).issued_at) == stamp
    for stamp in (10**400, 1 << 64, 1 << 51, -1, -5):
        record = {**protocol.challenge_record(_challenge()), "issued_at_us": stamp}
        with pytest.raises(protocol.ProtocolError, match="issued_at_us"):
            protocol.parse_challenge(record)


def test_parse_challenge_missing_field():
    record = protocol.challenge_record(_challenge())
    del record["salt"]
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_challenge(record)


# --- response records -----------------------------------------------------------


def test_pow_response_round_trip():
    challenge, response = _answered("pow", {"difficulty": 3, "argon_memory_kib": 8})
    raw = wire.encode_record(protocol.response_record(response))
    parsed = protocol.parse_response(wire.decode_record(raw))
    assert parsed.matches(challenge)
    assert parsed.payload["nonce"] == response.payload["nonce"]
    assert parsed.payload["digest"] == response.payload["digest"]
    assert protocol.validate_response(challenge, parsed)


def test_no_response_record_carries_a_solve_time(rsa_group):
    """The challenger times each round on its own clock, so the worker's
    own duration stays behind, and a parsed response holds 0.0."""
    answered = [
        _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})[1],
        _answered("gemm", {"dimension_n": 4, "difficulty_d": 0, "freivalds_k": 2})[1],
        _answered("vdf", {"modulus_n": rsa_group.modulus_N, "t_min": 16, "t_max": 32, "instances": 1})[1],
        _residency_answered()[1],
    ]
    for response in answered:
        assert response.solve_time > 0
        record = protocol.response_record(response)
        assert "solve_time_ns" not in record
        parsed = protocol.parse_response(wire.decode_record(wire.encode_record(record)))
        assert parsed.solve_time == 0.0


def test_gemm_response_round_trip_preserves_matrix():
    params = {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 3}
    challenge, response = _answered("gemm", params)
    raw = wire.encode_record(protocol.response_record(response))
    parsed = protocol.parse_response(wire.decode_record(raw))
    assert parsed.payload == response.payload
    assert protocol.validate_response(challenge, parsed)


def test_gemm_product_of_the_wrong_size_parses_and_is_invalid():
    """The parser needs no dimension: the validator shapes the product
    from the challenge's own n, and a product for another n is refused."""
    _, larger = _answered("gemm", {"dimension_n": 16, "difficulty_d": 0, "freivalds_k": 3})
    challenge, response = _answered("gemm", {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 3})
    assert len(larger.payload["product_c"]) == 8 * 16 * 16
    record = protocol.response_record(
        replace(response, payload={**response.payload, "product_c": larger.payload["product_c"]})
    )
    parsed = protocol.parse_response(wire.decode_record(wire.encode_record(record)))
    assert protocol.validate_response(challenge, parsed) is False


def test_parse_response_refuses_integer_byte_fields():
    params = {"dimension_n": 4, "difficulty_d": 0, "freivalds_k": 2}
    challenge, response = _answered("gemm", params)
    # bytes(8 * n * n) of this integer would decode as the all-zero matrix
    integer = replace(response, payload={**response.payload, "product_c": 8 * 4 * 4})
    parsed = protocol.parse_response(protocol.response_record(integer))
    assert protocol.validate_response(challenge, parsed) is False
    zeros = replace(response, payload={**response.payload, "product_c": bytes(8 * 4 * 4)})
    assert protocol.validate_response(challenge, zeros) is False
    _, response = _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})
    record = protocol.response_record(response)
    record["session_id"] = 32
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_response(record)


def _every_mode_answered(rsa_group):
    """An honest (challenge, response, dataset) of each mode."""
    answered = {
        mode: (*_answered(mode, params), None)
        for mode, params in (
            ("pow", {"difficulty": 3, "argon_passes": 1, "argon_lanes": 1, "argon_memory_kib": 8}),
            ("gemm", {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 3}),
            ("vdf", {"modulus_n": rsa_group.modulus_N, "t_min": 16, "t_max": 32, "instances": 2}),
        )
    }
    answered["residency"] = _residency_answered()
    assert sorted(answered) == sorted(protocol.MODES)
    return answered


def test_every_payload_is_the_same_in_process_and_after_the_wire(rsa_group):
    """A worker's payload is already in wire form, so record, bytes and
    parser hand the validator exactly what the worker built, and the
    parser needs nothing from the challenge."""
    for mode, (challenge, response, dataset) in _every_mode_answered(rsa_group).items():
        record = wire.decode_record(wire.encode_record(protocol.response_record(response)))
        parsed = protocol.parse_response(record)
        assert parsed.payload == response.payload, mode
        assert protocol.validate_response(challenge, parsed, dataset), mode


def test_vdf_response_round_trip(rsa_group):
    params = {
        "modulus_n": rsa_group.modulus_N,
        "t_min": 64,
        "t_max": 256,
        "instances": 2,
    }
    challenge, response = _answered("vdf", params)
    raw = wire.encode_record(protocol.response_record(response))
    parsed = protocol.parse_response(wire.decode_record(raw))
    assert protocol.validate_response(challenge, parsed)


def _flip(value: bytes, at: int = 0) -> bytes:
    return value[:at] + bytes([value[at] ^ 1]) + value[at + 1 :]


def _tamper_gemm_entry(payload):
    product = gemm.matrix_from_bytes(payload["product_c"], 8).copy()
    product[1, 2] = (int(product[1, 2]) + 1) % FIELD_MODULUS
    return {**payload, "product_c": gemm.matrix_bytes(product)}


def _tamper_proof(name, change):
    def tamper(payload):
        proofs = [dict(p) for p in payload["proofs"]]
        proofs[0][name] = change(proofs[0])
        return {**payload, "proofs": proofs}

    return tamper


_TAMPERS = {
    ("pow", "nonce"): lambda p: {**p, "nonce": p["nonce"] + 1},
    ("pow", "digest"): lambda p: {**p, "digest": _flip(p["digest"])},
    ("gemm", "chain_state_sigma"): lambda p: {
        **p, "chain_state_sigma": _flip(p["chain_state_sigma"])
    },
    ("gemm", "index_jstar"): lambda p: {**p, "index_jstar": p["index_jstar"] + 1},
    ("gemm", "product_entry"): _tamper_gemm_entry,
    ("vdf", "output_y"): _tamper_proof("output_y", lambda q: q["output_y"] + 2),
    ("vdf", "pi"): _tamper_proof("pi", lambda q: q["pi"] + 2),
    ("vdf", "remainder_r"): _tamper_proof(
        "remainder_r", lambda q: (q["remainder_r"] + 1) % q["challenge_prime"]
    ),
    ("vdf", "challenge_prime"): _tamper_proof(
        "challenge_prime", lambda q: q["challenge_prime"] + 2
    ),
    # every word of mu is wrong, so the first spot check sees it; one wrong
    # word of 512 slips past the 32 checks with chance (511/512)^32
    ("residency", "mu_word"): lambda p: {
        **p, "response_digest": bytes(b ^ 1 for b in p["response_digest"])
    },
}


@pytest.mark.parametrize("mode, field", list(_TAMPERS), ids=[f"{m}-{f}" for m, f in _TAMPERS])
def test_a_changed_solution_field_fails_validation_after_the_wire(rsa_group, mode, field):
    """The record carries no check of its own: a changed field crosses
    encode, decode and parse unnoticed, and only the validator refuses it."""
    dataset = None
    if mode == "residency":
        challenge, response, dataset = _residency_answered()
    else:
        params = {
            "pow": {"difficulty": 3, "argon_memory_kib": 8},
            # a wrong entry slips past k Freivalds vectors with chance 2^-k
            "gemm": {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 24},
            "vdf": {"modulus_n": rsa_group.modulus_N, "t_min": 64, "t_max": 128, "instances": 2},
        }[mode]
        challenge, response = _answered(mode, params)

    def through_the_wire(r):
        raw = wire.encode_record(protocol.response_record(r))
        return protocol.parse_response(wire.decode_record(raw))

    assert protocol.validate_response(challenge, through_the_wire(response), dataset)
    forged = replace(response, payload=_TAMPERS[mode, field](response.payload))
    parsed = through_the_wire(forged)
    # the record carries the solution fields and nothing else
    assert protocol.response_record(forged)["payload"].keys() == forged.payload.keys()
    assert protocol.validate_response(challenge, parsed, dataset) is False


_SUBSTITUTES = (10**400, -1, 2**64, b"", "x", [1], {"k": 1}, 0)


def _mutants(value):
    """Copies of ``value`` with one field or item, at any depth, set to each substitute."""
    if isinstance(value, dict):
        for key, item in value.items():
            for inner in (*_SUBSTITUTES, *_mutants(item)):
                yield {**value, key: inner}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for inner in (*_SUBSTITUTES, *_mutants(item)):
                yield [*value[:i], inner, *value[i + 1 :]]


def test_a_mutated_record_is_refused_or_judged(rsa_group):
    """Decoders are total and every param is bounded: with any field of a
    valid challenge or response record replaced by a value of another
    type or size, parsing returns or raises ProtocolError, and validation
    returns a bool, quickly."""
    started = time.monotonic()
    mutants = 0
    for challenge, response, dataset in _every_mode_answered(rsa_group).values():
        sent = protocol.challenge_record(challenge)
        received = protocol.response_record(response)
        cases = [(m, received) for m in _mutants(sent)] + [(sent, m) for m in _mutants(received)]
        for challenge_record, response_record in cases:
            mutants += 1
            try:
                parsed = protocol.parse_challenge(challenge_record), protocol.parse_response(response_record)
            except protocol.ProtocolError:
                continue
            assert type(protocol.validate_response(*parsed, dataset)) is bool
    assert mutants > 500
    assert time.monotonic() - started < 30


# --- validation dispatch -----------------------------------------------------------


def test_validate_response_rejects_session_mismatch():
    challenge, response = _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})
    stranger = Response(
        session_id=b"X" * 32,
        index=response.index,
        mode=response.mode,
        payload=response.payload,
        solve_time=response.solve_time,
    )
    assert not protocol.validate_response(challenge, stranger)


def test_validate_response_rejects_forged_pow_digest():
    challenge, response = _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})
    forged = Response(
        session_id=response.session_id,
        index=response.index,
        mode=response.mode,
        payload={**response.payload, "digest": bytes(32)},
        solve_time=response.solve_time,
    )
    assert not protocol.validate_response(challenge, forged)


def test_validate_response_integer_byte_fields_are_invalid_not_a_crash():
    challenge, response = _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})
    huge = replace(response, payload={**response.payload, "digest": 10**30})
    assert protocol.validate_response(challenge, huge) is False
    params = {"dimension_n": 4, "difficulty_d": 0, "freivalds_k": 2}
    challenge, response = _answered("gemm", params)
    huge = replace(response, payload={**response.payload, "chain_state_sigma": 10**30})
    assert protocol.validate_response(challenge, huge) is False


def _proof_derived_rng(sid: bytes, sigma: bytes, product) -> random.Random:
    """Check vectors anyone can compute from the proof: the grinding attacker's model."""
    digest = gemm.puzzle_digest(sid, sigma, product)
    return random.Random(int.from_bytes(hash_bytes(encode_fields(sid, "freivalds", digest)), "big"))


def test_validate_gemm_draws_freivalds_vectors_privately():
    """A product ground against proof-derived check vectors fails both gemm verifiers."""
    params = {"dimension_n": 16, "difficulty_d": 0, "freivalds_k": 5}
    challenge, response = _answered("gemm", params)
    gemm_params = GemmParams(dimension_n=16, difficulty_d=0, freivalds_k=5)
    honest = gemm.matrix_from_bytes(response.payload["product_c"], 16)
    sigma = response.payload["chain_state_sigma"]
    grind = random.Random(8)
    for _ in range(2000):  # about 32 tries at k=5
        bad = honest.copy()
        row, col = grind.randrange(16), grind.randrange(16)
        bad[row, col] = (int(bad[row, col]) + 1 + grind.randrange(FIELD_MODULUS - 1)) % FIELD_MODULUS
        proof = GemmProof(response.payload["index_jstar"], bad, sigma)
        rng = _proof_derived_rng(challenge.salt, sigma, bad)
        if verify_gemm_puzzle(challenge.salt, gemm_params, proof, rng=rng):
            break
    else:
        pytest.fail("no wrong product passed the proof-derived check")
    # private vectors accept with chance 2^-5: mean 6.25, sd 2.4
    accepted = sum(verify_gemm_puzzle(challenge.salt, gemm_params, proof) for _ in range(200))
    assert accepted <= 20
    forged = replace(response, payload={**response.payload, "product_c": gemm.matrix_bytes(bad)})
    accepted = sum(protocol.validate_response(challenge, forged) for _ in range(200))
    assert accepted <= 20


def test_validate_response_malformed_payload_is_false_not_raise():
    challenge, response = _answered("pow", {"difficulty": 2, "argon_memory_kib": 8})
    broken = Response(
        session_id=response.session_id,
        index=response.index,
        mode=response.mode,
        payload={"garbage": 1},
        solve_time=response.solve_time,
    )
    assert protocol.validate_response(challenge, broken) is False


def test_validate_response_wrong_vdf_count(rsa_group):
    params = {
        "modulus_n": rsa_group.modulus_N,
        "t_min": 64,
        "t_max": 128,
        "instances": 2,
    }
    challenge, response = _answered("vdf", params)
    short = Response(
        session_id=response.session_id,
        index=response.index,
        mode=response.mode,
        payload={"proofs": response.payload["proofs"][:1]},
        solve_time=response.solve_time,
    )
    assert not protocol.validate_response(challenge, short)


def test_validate_response_unknown_mode_raises():
    challenge = Challenge(b"s", 0, "residency", b"salt", 0.0, {})
    response = Response(b"s", 0, "residency", {}, 0.0)
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_response(challenge, response)


def test_a_challenge_naming_a_param_its_mode_lacks_is_invalid(rsa_group):
    """Every mode's params are typed on the challenger side too, so a
    stray key makes the round invalid rather than being ignored."""
    for mode, (challenge, response, dataset) in _every_mode_answered(rsa_group).items():
        assert protocol.validate_response(challenge, response, dataset), mode
        stray = replace(challenge, params={**challenge.params, "extra": 1})
        assert not protocol.validate_response(stray, response, dataset), mode


def test_an_unknown_mode_is_refused_by_the_validator_and_the_worker():
    # the challenger's bug, not a lying worker: raised, not judged
    challenge = Challenge(b"s", 0, "quantum", b"salt", 0.0, {})
    response = Response(b"s", 0, "quantum", {}, 0.0)
    with pytest.raises(protocol.ProtocolError, match="no validator"):
        protocol.validate_response(challenge, response)
    with pytest.raises(protocol.ProtocolError, match="unknown mode"):
        SimWorker(WorkerProfile()).answer(challenge)


def _residency_answered():
    """An honest residency answer and the spec of the dataset it was planted."""
    worker = SimWorker(WorkerProfile(), seed=12)
    worker.pre_challenge(
        {
            "session_id": b"S" * 32,
            "kind": "residency",
            "residency": {"seed": b"d", "size_bytes": 1 << 16, "block_size_bytes": 1 << 14},
        }
    )
    challenge = _challenge("residency", {})
    return challenge, worker.answer(challenge), DatasetSpec(b"d", 1 << 16, 1 << 14)


def test_validate_residency_accepts_honest_digest_through_the_wire():
    challenge, response, dataset = _residency_answered()
    raw = wire.encode_record(protocol.response_record(response))
    parsed = protocol.parse_response(wire.decode_record(raw))
    assert protocol.validate_response(challenge, parsed, dataset)


def test_validate_residency_rejects_forged_or_misdirected_digests():
    challenge, response, dataset = _residency_answered()
    digest = response.payload["response_digest"]
    # wrong in every column, so the first spot check sees it
    flipped = bytes(b ^ 1 if i % 8 == 0 else b for i, b in enumerate(digest))
    flipped = replace(response, payload=dict(response.payload, response_digest=flipped))
    assert not protocol.validate_response(challenge, flipped, dataset)
    # the digest of another nonce
    assert not protocol.validate_response(replace(challenge, salt=b"other"), response, dataset)
    for stranger in (
        replace(response, session_id=b"T" * 32),
        replace(response, index=response.index + 1),
    ):
        assert not protocol.validate_response(challenge, stranger, dataset)
    # another dataset of the same shape
    other = DatasetSpec(b"e", 1 << 16, 1 << 14)
    assert not protocol.validate_response(challenge, response, other)
    missing = replace(response, payload={"kernel_time_ns": 1})
    assert protocol.validate_response(challenge, missing, dataset) is False
    # a digest of the wrong length, or not bytes at all, is an invalid round
    for bad in (digest[:-8], digest + bytes(8), b"", 7):
        wrong = replace(response, payload=dict(response.payload, response_digest=bad))
        assert protocol.validate_response(challenge, wrong, dataset) is False


def test_validate_residency_draws_its_spot_checks_from_system_random(monkeypatch):
    """The columns come from a private source after the answer, never from a
    seeded rng the worker could replay, so session fixtures keep their bytes:
    the regenerated columns are the spot-check rule replayed on the reads of
    ``SystemRandom`` alone (k-bit chunks, low bits first, a chunk >= C
    redrawn from a further read)."""
    challenge, response, dataset = _residency_answered()
    reads = []

    class Recording(random.SystemRandom):
        def getrandbits(self, k):
            reads.append((k, super().getrandbits(k)))
            return reads[-1][1]

    regenerated = []
    column_into = DatasetSpec.column_into

    def counting(spec, c, out):
        regenerated.append(c)
        return column_into(spec, c, out)

    monkeypatch.setattr(protocol.random, "SystemRandom", Recording)
    monkeypatch.setattr(DatasetSpec, "column_into", counting)
    assert protocol.validate_response(challenge, response, dataset)
    columns = dataset.column_count
    k = (columns - 1).bit_length()
    picks = []
    for bits, read in reads:
        assert bits == k * (SPOT_CHECKS - len(picks))
        chunks = [(read >> (k * i)) % (1 << k) for i in range(bits // k)]
        picks += [c for c in chunks if c < columns]
    assert len(picks) == SPOT_CHECKS
    assert regenerated == picks


def test_params_for_defaults_are_the_dataclass_defaults():
    assert protocol.params_for("pow", {}) == PowParams()
    assert protocol.params_for("gemm", {}) == GemmParams()
    assert protocol.params_for("vdf", {"modulus_n": 77}) == VdfParams(modulus_n=77)
    # a residency probe takes no params: its class has no field
    assert protocol.params_for("residency", {}) == ResidencyParams()
    with pytest.raises(ValueError, match="unknown residency fields: \\['argon_memory_kib'\\]"):
        protocol.params_for("residency", {"argon_memory_kib": 8})
    assert protocol.params_for("pow", {"difficulty": "3"}) == PowParams(difficulty=3)
    # a challenge carries only params: a key nothing reads is refused
    with pytest.raises(ValueError, match="unknown pow fields: \\['extra'\\]"):
        protocol.params_for("pow", {"difficulty": "3", "extra": 1})
    with pytest.raises(protocol.ProtocolError):
        protocol.params_for("quantum", {})
    # the challenger fills the same defaults into the params it sends
    def plan(kind, config):
        return netcli._session_plan({**config, "kind": kind}).block

    assert plan("pow", {}) == {
        "difficulty": 12,
        "argon_passes": 1,
        "argon_lanes": 1,
        "argon_memory_kib": 1024,
    }
    assert plan("gemm", {}) == {
        "dimension_n": 64,
        "difficulty_d": 4,
        "freivalds_k": 5,
    }
    assert plan("vdf", {"vdf": {"modulus_n": 77}}) == {
        "modulus_n": 77,
        "t_min": 1 << 10,
        "t_max": 1 << 12,
        "instances": 4,
    }


def test_params_for_coerces_by_the_config_rules():
    modulus = (1 << 511) + 1  # exact, not through a float
    assert protocol.params_for("vdf", {"modulus_n": modulus}).modulus_n == modulus
    assert protocol.params_for("gemm", {"dimension_n": "1.6e1"}).dimension_n == 16
    # a size field_matmul would refuse is refused here, before any matrix exists
    with pytest.raises(ValueError, match="dimension"):
        protocol.params_for("gemm", {"dimension_n": gemm._MAX_DIM + 1})
    with pytest.raises(ValueError, match="difficulty"):
        protocol.params_for("pow", {"difficulty": True})
    with pytest.raises(ValueError, match="difficulty"):
        protocol.params_for("pow", {"difficulty": 2.5})


def test_params_for_bounds_the_squarings_of_a_whole_vdf_challenge():
    # each field is in range, but one serving thread may run all the chains
    at_cap = {"modulus_n": 77, "t_min": 1, "t_max": 1 << 12, "instances": 4096}
    assert protocol.params_for("vdf", at_cap).instances == 4096
    with pytest.raises(ValueError, match="instances \\* t_max"):
        protocol.params_for("vdf", {**at_cap, "t_max": 1 << 24})


# --- session driver -----------------------------------------------------------------


def test_session_driver_rounds_validate_and_advance_the_clock():
    worker = SimWorker(WorkerProfile(), seed=21)
    driver = protocol.SessionDriver(
        worker=worker,
        mode="pow",
        params={"difficulty": 3, "argon_memory_kib": 8},
        rng=random.Random(3),
        session_id=b"\x03" * 32,
    )
    t0 = worker.clock.now()
    first = driver.run_round(0)
    assert first.valid and first.duration > 0
    assert worker.clock.now() == pytest.approx(t0 + first.duration)
    # a kind given per round runs in the same session, on a fresh salt
    second = driver.run_round(1, kind="pow")
    assert second.valid and second.challenge.mode == "pow"
    assert second.challenge.session_id == first.challenge.session_id == driver.session_id
    assert (second.challenge.index, first.challenge.index) == (1, 0)
    assert second.challenge.salt != first.challenge.salt


def test_session_driver_reports_worker_exception_as_invalid():
    class _Exploding:
        clock = VirtualClock()

        def answer(self, challenge):
            raise RuntimeError("worker crashed")

    driver = protocol.SessionDriver(
        worker=_Exploding(), mode="pow", params={"difficulty": 1}, rng=random.Random(4),
        session_id=b"\x04" * 32,
    )
    result = driver.run_round(0)
    assert not result.valid and result.response is None
    assert result.challenge.mode == "pow"


def test_session_driver_lets_a_transport_error_end_the_session():
    class _Disconnected:
        clock = VirtualClock()

        def answer(self, challenge):
            raise protocol.TransportError("connection closed mid-frame")

    driver = protocol.SessionDriver(
        worker=_Disconnected(), mode="pow", params={"difficulty": 1}, rng=random.Random(4),
        session_id=b"\x04" * 32,
    )
    with pytest.raises(protocol.TransportError):
        driver.run_round(0)
    assert netcli.TransportError is protocol.TransportError


def test_session_driver_round_keeps_the_challenge_and_response():
    worker = SimWorker(WorkerProfile(), seed=21)
    driver = protocol.SessionDriver(
        worker=worker,
        mode="pow",
        params={"difficulty": 2, "argon_memory_kib": 8},
        rng=random.Random(3),
        session_id=b"\x03" * 32,
    )
    result = driver.run_round(0)
    assert result.valid and result.response.matches(result.challenge)
    assert result.duration == pytest.approx(result.response.solve_time)


def test_session_driver_waits_on_the_worker_clock_before_it_issues():
    worker = SimWorker(WorkerProfile(), seed=21)
    driver = protocol.SessionDriver(
        worker=worker,
        mode="pow",
        params={"difficulty": 2, "argon_memory_kib": 8},
        rng=random.Random(3),
        session_id=b"\x03" * 32,
        wait=lambda: 2.5,
    )
    result = driver.run_round(0)
    # issued once the wait has passed, and timed on the same clock
    answered = worker.clock.now()
    assert result.valid and result.challenge.issued_at == 2.5
    assert answered == 2.5 + result.response.solve_time
    assert result.duration == pytest.approx(result.response.solve_time) and result.duration > 0
    assert driver.run_round(1).challenge.issued_at == answered + 2.5


# --- session loop ------------------------------------------------------------------
#
# The handles below are the two shapes a benchmark or a tracer hands the
# loop: a replay with nothing but the two names the loop reads, whose
# rounds are bare (duration, valid) pairs, and a proxy that forwards
# run_round(index, kind) positionally to a real SessionDriver.


class _BarePairs:
    session_id = b"\x01" * 32

    def __init__(self, outcomes):
        self._outcomes = outcomes

    def run_round(self, index, kind=None):
        return self._outcomes[index]


class _Proxy:
    def __init__(self, inner):
        self._inner = inner

    @property
    def session_id(self):
        return self._inner.session_id

    def run_round(self, index, kind=None):
        return self._inner.run_round(index, kind)


def test_a_handle_of_bare_pairs_drives_the_session_loop():
    rows = []
    d = continuous_measurement(
        _BarePairs([(0.5, True)] * 3), n=3, lambda_min=1.0, kind="pow", sink=rows.append
    )
    assert d.accepted and d.statistic == pytest.approx(1.5)
    assert rows[0] == {
        "session_id": "01" * 32,
        "round": 0,
        "kind": "pow",
        "salt_digest": "",
        "total_ns": 500_000_000,
        "kernel_ns": 0,
        "verdict": "",
        "valid": True,
    }
    d = continuous_measurement(
        _BarePairs([(0.5, True), (0.1, False)]), n=2, lambda_min=1.0, kind="vdf"
    )
    assert (d.verdict, d.invalid_count, d.samples_used) == (Verdict.REJECT, 1, 2)


def test_a_positional_proxy_drives_a_real_session_driver():
    def driver():
        return protocol.SessionDriver(
            worker=SimWorker(WorkerProfile(hash_rate_r=64.0), seed=5),
            mode="pow",
            params={"difficulty": 1, "argon_memory_kib": 8},
            rng=random.Random(6),
            session_id=b"\x06" * 32,
        )

    proxied, direct = [], []
    d = continuous_measurement(_Proxy(driver()), n=3, lambda_min=1.0, sink=proxied.append)
    assert d == continuous_measurement(driver(), n=3, lambda_min=1.0, sink=direct.append)
    assert d.accepted and proxied == direct
    for row in proxied:
        assert row["valid"] and len(row["salt_digest"]) == 64
        assert 0 < row["kernel_ns"] <= row["total_ns"]
