"""Residency probe and session tests.

Session-level checks run a simulated worker on a virtual clock against
a desk-scale dataset (kibibytes, not gibibytes) with a bandwidth model
shrunk to match, so hot/cold separation behaves like the full-size
deployment while the whole file runs in well under a second.
"""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gputelem import residency
from gputelem.core import (
    TimingSample,
    digest_to_int,
    encode_fields,
    hash_bytes,
    keyed_hash,
    keyed_stream,
)
from gputelem.worksim import SimWorker, WorkerProfile

# small dataset, small argon: fast enough to probe dozens of times
DATASET = 64 * 1024
BLOCK = 16 * 1024
ARGON_KIB = 8
MODEL = residency.BandwidthModel(hbm_bw=100e9, pci_bw=10e9, base_latency_ns=1_000)


def _dataset(seed: bytes = b"seed-a") -> residency.ChalDataset:
    return residency.init_chal(DATASET, seed, BLOCK)


# --- dataset construction -----------------------------------------------------


def test_chal_block_is_keyed_stream_slice():
    got = residency.chal_block(b"s", 3, 100)
    assert got == keyed_stream(b"s", 100, domain=encode_fields("chal", 3))
    assert got != residency.chal_block(b"s", 4, 100)
    assert got != residency.chal_block(b"t", 3, 100)


def test_init_chal_block_layout():
    chal = residency.init_chal(40_000, b"x", 16_384)
    assert chal.block_count == 3
    assert [len(b) for b in chal.blocks] == [16_384, 16_384, 7_232]
    assert sum(len(b) for b in chal.blocks) == 40_000
    assert chal.block_digests == [hash_bytes(b) for b in chal.blocks]
    assert chal.blocks[0] == residency.chal_block(b"x", 0, 16_384)


def test_init_chal_validation():
    with pytest.raises(ValueError):
        residency.init_chal(0, b"x")
    with pytest.raises(ValueError):
        residency.init_chal(100, b"x", block_size_bytes=0)


@given(st.binary(min_size=1, max_size=300), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_mask_block_is_an_involution(block, index):
    masked = residency.mask_block(b"nonce", index, block)
    assert len(masked) == len(block)
    assert residency.mask_block(b"nonce", index, masked) == block


def test_mask_block_depends_on_nonce_and_index():
    block = bytes(64)
    a = residency.mask_block(b"n1", 0, block)
    assert a != block
    assert a != residency.mask_block(b"n2", 0, block)
    assert a != residency.mask_block(b"n1", 1, block)


def test_default_instance_count_is_sqrt_ceiling():
    assert residency.default_instance_count(1) == 1
    assert residency.default_instance_count(4) == 2
    assert residency.default_instance_count(16) == 4
    assert residency.default_instance_count(17) == 5
    assert residency.default_instance_count(100) == 10


# --- probe ----------------------------------------------------------------------


def test_probe_digest_reproducible_across_dataset_copies():
    """Challenger-side recomputation: an equal dataset gives an equal digest."""
    a = residency.residency_probe(_dataset(), b"nonce-1", argon_memory_kib=ARGON_KIB)
    b = residency.residency_probe(_dataset(), b"nonce-1", argon_memory_kib=ARGON_KIB)
    assert a.response_digest == b.response_digest
    assert len(a.response_digest) == 32


def test_probe_digest_binds_nonce_and_data():
    chal = _dataset()
    base = residency.residency_probe(chal, b"n", argon_memory_kib=ARGON_KIB)
    other_nonce = residency.residency_probe(chal, b"m", argon_memory_kib=ARGON_KIB)
    assert base.response_digest != other_nonce.response_digest
    other_data = residency.residency_probe(
        _dataset(b"seed-b"), b"n", argon_memory_kib=ARGON_KIB
    )
    assert base.response_digest != other_data.response_digest


def test_probe_digest_binds_argon_parameters():
    chal = _dataset()
    a = residency.residency_probe(chal, b"n", argon_memory_kib=8)
    b = residency.residency_probe(chal, b"n", argon_memory_kib=16)
    assert a.response_digest != b.response_digest


def test_probe_runs_the_default_instance_count(monkeypatch):
    derived = []
    argon2id = residency.Argon2id

    def counting_argon2id(**kwargs):
        derived.append(kwargs)
        return argon2id(**kwargs)

    monkeypatch.setattr(residency, "Argon2id", counting_argon2id)
    chal = _dataset()  # 4 blocks -> 2 instances
    residency.residency_probe(chal, b"n", argon_memory_kib=ARGON_KIB)
    assert len(derived) == residency.default_instance_count(chal.block_count) == 2


def test_probe_reports_its_timing():
    got = residency.residency_probe(_dataset(), b"n", argon_memory_kib=ARGON_KIB)
    assert got.timing.valid and got.timing.mode == "residency"
    assert 0 <= got.kernel_time_s <= got.timing.duration


def _reference_probe(chal: residency.ChalDataset, nonce: bytes, argon_memory_kib: int) -> bytes:
    """The probe digest from its definition, with the inputs concatenated."""
    state = hashlib.sha256(keyed_hash(nonce, b"probe-init") + b"".join(chal.blocks)).digest()
    for i in range(residency.default_instance_count(chal.block_count)):
        j = digest_to_int(keyed_hash(state, encode_fields("pick", i))) % chal.block_count
        kdf = residency.Argon2id(
            salt=state,
            length=32,
            iterations=1,
            lanes=1,
            memory_cost=argon_memory_kib,
            secret=nonce,
            ad=encode_fields(j),
        )
        tag = kdf.derive(hashlib.sha256(state + chal.blocks[j]).digest())
        state = keyed_hash(state, encode_fields(tag, j))
    return state


# (size, block size): 1, 4, 16 and 17 blocks, then three blocks with a short last one
_KAT_DATASETS = ((4096, 4096), (16_384, 4096), (65_536, 4096), (69_632, 4096), (10_000, 4096))
_KAT_NONCES = (b"a", b"kat-nonce-2", bytes(range(100)))
_KAT_LITERALS = {
    (4096, 8, b"a"): "34fe3dc121d862e5fb4721434972e0f824c53c95e32887478ae9aec846af4e02",
    (16_384, 16, b"kat-nonce-2"): "b2f294098a9f5a887aea31626ee3fb22886541a82f9c87be9b84a560fc1c2330",
    (69_632, 8, bytes(range(100))): "027cfcefdd732c6d8cb5ecd2c65412eba97d81c90e20dbe717ece0cf868690da",
    (10_000, 16, b"a"): "d3a33b1bedf0370608ad9a926270faeb23917783b03e48912022f663eebfa513",
}


def test_residency_probe_known_answers():
    """Pins the probe bytes of wire version 3: a grid digest plus four literals."""
    digests = {}
    for size, block in _KAT_DATASETS:
        chal = residency.init_chal(size, b"kat-seed", block)
        for argon_kib in (8, 16):
            for nonce in _KAT_NONCES:
                got = residency.residency_probe(chal, nonce, argon_memory_kib=argon_kib)
                assert got.response_digest == _reference_probe(chal, nonce, argon_kib)
                digests[size, argon_kib, nonce] = got.response_digest
    assert len(set(digests.values())) == len(digests) == 30
    grid = hashlib.sha256(b"".join(digests.values())).hexdigest()
    assert grid == "858286f097da763a071943cf5ee10df98ef8b7a65d57ae65899a633df77958f2"
    assert {key: digests[key].hex() for key in _KAT_LITERALS} == _KAT_LITERALS


def test_probe_digest_changes_with_any_flipped_byte():
    chal = residency.init_chal(65_536, b"flip-seed", 4096)  # 16 blocks
    base = residency.residency_probe(chal, b"n", argon_memory_kib=ARGON_KIB).response_digest
    seen = {base}
    for block_index, byte_index in ((0, 0), (0, 4095), (8, 2048), (15, 4095)):
        blocks = list(chal.blocks)
        flipped = bytearray(blocks[block_index])
        flipped[byte_index] ^= 0x01
        blocks[block_index] = bytes(flipped)
        tampered = dataclasses.replace(chal, blocks=blocks)
        got = residency.residency_probe(tampered, b"n", argon_memory_kib=ARGON_KIB)
        seen.add(got.response_digest)
    assert len(seen) == 5


def test_probe_reads_the_dataset_in_place(monkeypatch):
    """No mask, no copy: a 4 MiB probe peaks far below the dataset size."""

    def refuse(*args, **kwargs):
        raise AssertionError("the probe masks nothing")

    monkeypatch.setattr(residency, "mask_block", refuse)
    monkeypatch.setattr(residency, "keyed_xor", refuse)
    chal = residency.init_chal(4 << 20, b"mem-seed", 256 << 10)
    tracemalloc.start()
    try:
        residency.residency_probe(chal, b"n", argon_memory_kib=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10, f"probe peaked at {peak} bytes"


# --- timing model and classification ----------------------------------------------


def test_expected_gap_is_bus_transfer_time():
    # 65536 / 10e9 s = 6553.6 ns, rounded to a whole nanosecond
    assert residency.expected_gap(DATASET, MODEL) == 6554e-9
    assert residency.expected_gap(0, MODEL) == 0.0
    with pytest.raises(ValueError):
        residency.expected_gap(-1, MODEL)


def test_expected_gap_at_deployment_scale_clears_350ms():
    # 60 GB over a 64 GB/s bus: the gap a real session keys on
    deploy = residency.BandwidthModel(hbm_bw=3000e9, pci_bw=64e9)
    assert residency.expected_gap(60 * 10**9, deploy) == pytest.approx(0.9375)
    assert residency.expected_gap(60 * 10**9, deploy) > 0.350


def test_default_threshold_sits_between_hot_and_cold():
    threshold = residency.default_threshold_ns(DATASET, MODEL)
    hot_ns = MODEL.base_latency_ns + DATASET / MODEL.hbm_bw * 1e9
    cold_ns = hot_ns + DATASET / MODEL.pci_bw * 1e9
    assert hot_ns < threshold < cold_ns
    gap_ns = residency.expected_gap(DATASET, MODEL) * 1e9
    assert threshold == int(round(hot_ns + gap_ns / 2))


def test_classify_residency_strictly_less_is_hot():
    sample = lambda ns: TimingSample(0, "residency", ns * 1e-9, True)
    assert residency.classify_residency(sample(999), 1000) is residency.Residency.HOT
    assert residency.classify_residency(sample(1000), 1000) is residency.Residency.COLD
    assert residency.classify_residency(sample(1001), 1000) is residency.Residency.COLD
    with pytest.raises(ValueError):
        residency.classify_residency(sample(1), 0)


def test_schedule_next_uniform_bounds():
    rng = random.Random(0)
    draws = [residency.schedule_next(2.5, rng) for _ in range(500)]
    assert all(0 <= d < 2.5 for d in draws)
    assert max(draws) > 2.0 and min(draws) < 0.5  # fills the interval
    with pytest.raises(ValueError):
        residency.schedule_next(0, rng)


def test_bandwidth_model_validation():
    with pytest.raises(ValueError):
        residency.BandwidthModel(hbm_bw=1e9, pci_bw=2e9)
    with pytest.raises(ValueError):
        residency.BandwidthModel(base_latency_ns=-1)


# --- sessions ----------------------------------------------------------------------


def _worker(profile: WorkerProfile, seed: int = 1) -> SimWorker:
    return SimWorker(profile, seed=seed, model=MODEL)


def test_session_hot_worker_passes():
    rows_seen = []
    report = residency.run_residency_session(
        _worker(WorkerProfile(residency_state="hot")),
        rounds=6,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        argon_memory_kib=ARGON_KIB,
        rng=random.Random(42),
        sink=rows_seen.append,
    )
    assert report.overall_pass
    assert report.cold_count == 0 and report.invalid_count == 0
    assert len(report.rows) == 6 and rows_seen == report.rows
    assert all(r["verdict"] == "Hot" and r["valid"] for r in report.rows)
    assert all(len(r["nonce_digest"]) == 64 for r in report.rows)


def test_session_cold_worker_fails_every_round():
    report = residency.run_residency_session(
        _worker(WorkerProfile(residency_state="cold")),
        rounds=5,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        argon_memory_kib=ARGON_KIB,
        rng=random.Random(43),
    )
    assert not report.overall_pass
    assert report.cold_count == 5
    # cold answers are still correct digests, just slow
    assert report.invalid_count == 0
    assert all(r["valid"] for r in report.rows)


def test_session_eviction_flagged_from_the_eviction_round():
    profile = WorkerProfile(residency_state="evict_after", evict_after_round=4)
    report = residency.run_residency_session(
        _worker(profile),
        rounds=8,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        argon_memory_kib=ARGON_KIB,
        rng=random.Random(44),
    )
    verdicts = [r["verdict"] for r in report.rows]
    assert verdicts == ["Hot"] * 4 + ["Cold"] * 4
    assert report.cold_count == 4 and not report.overall_pass


class _ForgingWorker(SimWorker):
    """Answers fast but with a fabricated digest."""

    def probe(self, nonce, argon_memory_kib=1024):
        result = super().probe(nonce, argon_memory_kib=argon_memory_kib)
        return dataclasses.replace(result, response_digest=hash_bytes(b"forged"))


def test_session_digest_mismatch_is_invalid_not_cold():
    worker = _ForgingWorker(WorkerProfile(residency_state="hot"), seed=2, model=MODEL)
    report = residency.run_residency_session(
        worker,
        rounds=3,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        argon_memory_kib=ARGON_KIB,
        rng=random.Random(45),
    )
    assert not report.overall_pass
    assert report.invalid_count == 3 and report.cold_count == 0
    assert all(not r["valid"] for r in report.rows)


def test_session_validation():
    with pytest.raises(ValueError):
        residency.run_residency_session(
            _worker(WorkerProfile()), rounds=0, t_max_s=1.0
        )
