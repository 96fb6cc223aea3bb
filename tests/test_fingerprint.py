"""Device-class fingerprint tests."""

import hashlib
import tracemalloc

import pytest

from gputelem import fingerprint as fp
from gputelem.core import hash_bytes, keyed_hash, encode_fields
from gputelem.residency import init_chal, residency_probe


def _profiles():
    return fp.builtin_profiles()


# --- error vector ---------------------------------------------------------------


def test_error_vector_deterministic_per_class():
    prof = _profiles()["sim-hopper"]
    v1 = fp.device_error_vector(prof)
    v2 = fp.device_error_vector(prof)
    assert v1 == v2
    # length: one entry per layer output element
    assert len(v1.entries) == 64 + 64 + 32


def test_error_vector_diverges_across_classes_and_inputs():
    profiles = _profiles()
    hop = fp.device_error_vector(profiles["sim-hopper"])
    tur = fp.device_error_vector(profiles["sim-turing"])
    assert hop != tur
    assert fp.device_error_vector(profiles["sim-hopper"], b"other-input") != hop


def test_error_vector_entry_matches_hand_computation():
    """First entry is the sum of per-reshape signed 32-bit draws."""
    prof = _profiles()["sim-hopper"]
    expected = 0
    for reshape_idx in range(len(prof.reshape_schedule)):
        h = keyed_hash(
            prof.drift_seed, encode_fields("drift", b"", 0, reshape_idx, 0)
        )
        expected += int.from_bytes(h[:4], "big") - (1 << 31)
    assert fp.device_error_vector(prof).entries[0] == expected


def test_class_id_is_a_label_not_an_input():
    """Profiles differing only in class_id fingerprint identically."""
    prof = _profiles()["sim-hopper"]
    renamed = fp.DeviceClassProfile(
        class_id="renamed",
        drift_seed=prof.drift_seed,
        layer_spec=prof.layer_spec,
        reshape_schedule=prof.reshape_schedule,
    )
    assert fp.device_error_vector(renamed) == fp.device_error_vector(prof)


def test_error_vector_reshape_schedule_sensitivity():
    """Dropping one reshape from the schedule moves every entry."""
    prof = _profiles()["sim-hopper"]
    truncated = fp.DeviceClassProfile(
        class_id=prof.class_id,
        drift_seed=prof.drift_seed,
        layer_spec=prof.layer_spec,
        reshape_schedule=prof.reshape_schedule[:-1],
    )
    full = fp.device_error_vector(prof).entries
    part = fp.device_error_vector(truncated).entries
    assert len(full) == len(part)
    assert all(a != b for a, b in zip(full, part))


def test_encode_is_fixed_width_signed():
    vec = fp.ErrorVector(entries=(0, -1, 1 << 40, -(1 << 40)))
    raw = vec.encode()
    assert len(raw) == 32
    assert raw[:8] == bytes(8)
    assert raw[8:16] == b"\xff" * 8  # -1 in two's complement
    assert int.from_bytes(raw[24:32], "big", signed=True) == -(1 << 40)


def test_fingerprint_digest_is_blake2b_over_encoding():
    vec = fp.device_error_vector(_profiles()["sim-turing"])
    assert fp.fingerprint_digest(vec) == hashlib.blake2b(
        vec.encode(), digest_size=32
    ).digest()


def test_profile_validation():
    with pytest.raises(ValueError):
        fp.DeviceClassProfile("x", b"s", ((0, 4),), (1,))
    with pytest.raises(ValueError):
        fp.DeviceClassProfile("x", b"s", ((4, 4),), (0,))


# --- verification -----------------------------------------------------------------


def test_verify_fingerprint_accepts_right_class_only():
    profiles = _profiles()
    r_hop = fp.fingerprint_digest(fp.device_error_vector(profiles["sim-hopper"]))
    assert fp.verify_fingerprint(r_hop, profiles["sim-hopper"])
    assert not fp.verify_fingerprint(r_hop, profiles["sim-turing"])


def test_verify_fingerprint_binds_canonical_input():
    prof = _profiles()["sim-hopper"]
    r = fp.fingerprint_digest(fp.device_error_vector(prof, b"input-a"))
    assert fp.verify_fingerprint(r, prof, canonical_input=b"input-a")
    assert not fp.verify_fingerprint(r, prof, canonical_input=b"input-b")


# --- dataset masking --------------------------------------------------------------


def _small_chal():
    return init_chal(24_000, b"fp-seed", 8_192)


def test_mask_chal_is_an_involution():
    chal = _small_chal()
    original_blocks = [bytes(b) for b in chal.blocks]  # the views see the mask
    r_gpu = fp.fingerprint_digest(fp.device_error_vector(_profiles()["sim-hopper"]))
    fp.mask_chal_inplace(chal, r_gpu)
    assert chal.blocks != original_blocks
    fp.mask_chal_inplace(chal, r_gpu)
    assert chal.blocks == original_blocks
    assert chal.block_digests == [hash_bytes(b) for b in original_blocks]


def test_mask_chal_inplace_refreshes_digests():
    chal = _small_chal()
    r_gpu = bytes(range(32))
    fp.mask_chal_inplace(chal, r_gpu)
    assert chal.block_digests == [hash_bytes(b) for b in chal.blocks]
    assert [len(b) for b in chal.blocks] == [8_192, 8_192, 7_616]


def test_masked_chal_from_seed_matches_mask_of_init():
    r_gpu = fp.fingerprint_digest(fp.device_error_vector(_profiles()["sim-turing"]))
    # regenerate-and-mask equals mask-of-regenerated
    a = fp.masked_chal_from_seed(b"fp-seed", 24_000, 8_192, r_gpu)
    b = init_chal(24_000, b"fp-seed", 8_192)
    fp.mask_chal_inplace(b, r_gpu)
    assert a.blocks == b.blocks and a.block_digests == b.block_digests


def test_masking_writes_the_planted_buffer_in_place():
    """32 MiB regenerated and masked: one buffer of the dataset's size, and
    no second copy of it (masking each block into fresh bytes doubles it)."""
    size = 32 << 20
    r_gpu = bytes(range(32))
    tracemalloc.start()
    try:
        chal = fp.masked_chal_from_seed(b"mem-seed", size, 1 << 20, r_gpu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chal.spec.block_count == 32
    assert peak < size + (1 << 20), f"masking peaked at {peak / (1 << 20):.1f} MiB"


def test_wrong_class_mask_breaks_probe_digests():
    """The end-to-end property: a worker masking with the wrong class
    fingerprint produces probe digests the challenger rejects."""
    profiles = _profiles()
    r_right = fp.fingerprint_digest(fp.device_error_vector(profiles["sim-hopper"]))
    r_wrong = fp.fingerprint_digest(fp.device_error_vector(profiles["sim-turing"]))
    challenger_side = fp.masked_chal_from_seed(b"fp-seed", 24_000, 8_192, r_right)
    worker_side = fp.masked_chal_from_seed(b"fp-seed", 24_000, 8_192, r_wrong)
    expected = residency_probe(challenger_side, b"n0")
    got = residency_probe(worker_side, b"n0")
    assert expected.response_digest != got.response_digest
