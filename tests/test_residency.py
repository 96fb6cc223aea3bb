"""Residency probe and session tests.

Session-level checks run a simulated worker on a virtual clock against
a desk-scale dataset (kibibytes, not gibibytes) with a bandwidth model
shrunk to match, so hot/cold separation behaves like the full-size
deployment while the whole file runs in well under a second.
"""

import dataclasses
import hashlib
import math
import random
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gputelem import core, residency
from gputelem.core import TimingSample, encode_fields, hash_bytes, keyed_hash, keyed_stream
from gputelem.worksim import SimWorker, WorkerProfile

# small dataset: fast enough to probe dozens of times
DATASET = 64 * 1024
BLOCK = 16 * 1024
MODEL = residency.BandwidthModel(hbm_bw=100e9, pci_bw=10e9, base_latency_ns=1_000)


def _dataset(seed: bytes = b"seed-a") -> residency.ChalDataset:
    return residency.init_chal(DATASET, seed, BLOCK)


# --- dataset construction -----------------------------------------------------


def test_init_chal_block_layout():
    chal = residency.init_chal(40_000, b"x", 16_384)
    assert chal.spec.block_count == 3
    assert [len(b) for b in chal.blocks] == [16_384, 16_384, 7_232]
    assert b"".join(chal.blocks) == chal.data == keyed_stream(b"x", 40_000, residency.CHAL_DOMAIN)
    assert chal.block_digests == [hash_bytes(b) for b in chal.blocks]


@pytest.mark.parametrize(
    "size, block", ((40_000, 16_384), (10_003, 4096), (100, 7), (100, 1), (1, 1))
)
def test_init_chal_plants_one_keyed_stream_viewed_as_blocks(size, block):
    chal = residency.init_chal(size, b"plant", block)
    assert chal.data == keyed_stream(b"plant", size, residency.CHAL_DOMAIN)
    buffer = chal.data.obj
    assert len(buffer) == size and not chal.data.readonly
    assert len(chal.blocks) == chal.spec.block_count
    for i, view in enumerate(chal.blocks):
        assert view.obj is buffer
        assert view == chal.data[i * block : (i + 1) * block]
    # the block size cuts views only: the bytes are the same at any
    assert residency.init_chal(size, b"plant", size).data == chal.data


@pytest.mark.parametrize("size, block", ((4 << 20, 256 << 10), (256 << 10, 1)))
def test_planting_allocates_the_dataset_once(size, block):
    """The buffer, and nothing per block on top: 4 MiB in 256 KiB blocks
    (a block generated as fresh bytes from a zero input adds 256 KiB),
    and 256 KiB in 1-byte blocks (a view, a domain or a cipher per block
    adds many times the dataset)."""
    tracemalloc.start()
    try:
        chal = residency.init_chal(size, b"mem-seed", block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chal.spec.block_count == size // block
    assert peak < size + (64 << 10), f"planting peaked at {peak} bytes"


def test_blocks_are_a_lazy_sequence_of_views():
    chal = residency.init_chal(10_003, b"lazy", 4096)
    blocks = chal.blocks
    views = [chal.data[i : i + 4096] for i in range(0, 10_003, 4096)]
    assert len(blocks) == 3 and list(blocks) == views and blocks == views
    assert blocks == tuple(bytes(v) for v in views) and blocks == chal.blocks
    assert bytes(blocks[-1]) == bytes(blocks[2]) == bytes(chal.data[8192:])
    assert blocks[-3] == blocks[0] and blocks[0].obj is chal.data.obj
    assert blocks != views[:2] and blocks != [b"x"] * 3 and blocks != b"".join(views)
    for index in (3, -4):
        with pytest.raises(IndexError):
            blocks[index]


def test_one_block_costs_one_view():
    """1 MiB in 1-byte blocks is 2^20 blocks: reading one cuts one view
    (it built all 2^20 and took seconds when ``blocks`` was a list)."""
    chal = residency.init_chal(1 << 20, b"one-view", 1)
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        first = chal.blocks[0]
        seconds.append(time.perf_counter() - started)
    assert min(seconds) < 1e-3, seconds
    tracemalloc.start()
    try:
        last = chal.blocks[-1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"reading one block peaked at {peak} bytes"
    assert (first, last) == (chal.data[:1], chal.data[-1:])


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


# --- probe ----------------------------------------------------------------------


def test_probe_digest_reproducible_across_dataset_copies():
    """Challenger-side recomputation: an equal dataset gives an equal digest."""
    a = residency.residency_probe(_dataset(), b"nonce-1")
    b = residency.residency_probe(_dataset(), b"nonce-1")
    assert a.response_digest == b.response_digest
    # the digest is mu: one word per column, 512 of them here
    assert len(a.response_digest) == 8 * _dataset().spec.column_count == 8 * 512


def test_probe_digest_binds_nonce_and_data():
    chal = _dataset()
    base = residency.residency_probe(chal, b"n")
    other_nonce = residency.residency_probe(chal, b"m")
    assert base.response_digest != other_nonce.response_digest
    other_data = residency.residency_probe(
        _dataset(b"seed-b"), b"n"
    )
    assert base.response_digest != other_data.response_digest


def test_ignored_argon_memory_leaves_the_digest_and_the_session_unchanged():
    """``argon_memory_kib`` is still accepted by the probe, the simulated
    worker and the session, and changes nothing in any of them."""
    chal = _dataset()
    base = residency.residency_probe(chal, b"n").response_digest
    for kib in (8, 16, 1024):
        assert residency.residency_probe(chal, b"n", argon_memory_kib=kib).response_digest == base
    worker = _worker(WorkerProfile())
    worker.init_dataset(b"seed-a", DATASET, BLOCK)
    assert worker.probe(b"n", argon_memory_kib=16).response_digest == base

    def session(**kwargs):
        return residency.run_residency_session(
            _worker(WorkerProfile(residency_state="evict_after", evict_after_round=2)),
            rounds=4,
            t_max_s=1.0,
            dataset_bytes=DATASET,
            block_size_bytes=BLOCK,
            model=MODEL,
            rng=random.Random(46),
            **kwargs,
        )

    plain = session()
    for kib in (8, 16):
        ignored = session(argon_memory_kib=kib)
        assert ignored.rows == plain.rows
        assert asdict(ignored.decision) == asdict(plain.decision)


def test_probe_reports_its_timing():
    got = residency.residency_probe(_dataset(), b"n")
    assert got.timing.valid and got.timing.mode == "residency"
    assert 0 <= got.kernel_time_s <= got.timing.duration


def _reference_columns(chal: residency.ChalDataset) -> list[bytes]:
    """The sketch columns, cut from their definition: R = ceil(size / 4096)
    words each, the last one possibly short, whatever the block size."""
    data = bytes(chal.data)
    width = 8 * -(-len(data) // (8 * 512))
    return [data[start : start + width] for start in range(0, len(data), width)]


def _reference_mu(columns: list[bytes], nonce: bytes) -> bytes:
    """mu in Python integers mod 2^64: odd weights, zero-padded words."""
    width = -(-len(columns[0]) // 8)
    stream = keyed_stream(nonce, 8 * width, domain=encode_fields("sketch"))
    nu = [int.from_bytes(stream[i : i + 8], "little") | 1 for i in range(0, 8 * width, 8)]
    mu = b""
    for column in columns:
        padded = bytes(column) + bytes(-len(column) % 8)
        total = sum(
            weight * int.from_bytes(padded[i : i + 8], "little")
            for weight, i in zip(nu, range(0, len(padded), 8))
        )
        mu += (total % 2**64).to_bytes(8, "little")
    return mu


# (size, block size): columns of 1, 4, 16 and 17 words, a short last
# column, and a size that is not a multiple of 8
_KAT_DATASETS = (
    (4096, 4096),
    (16_384, 4096),
    (65_536, 4096),
    (69_632, 4096),
    (10_000, 4096),
    (10_003, 4096),
)
_KAT_NONCES = (b"a", b"kat-nonce-2", bytes(range(100)))
# (first word, last word) of mu of four probes
_KAT_LITERALS = {
    (4096, b"a"): ("306011782331d631", "32129a46471d9106"),
    (16_384, b"kat-nonce-2"): ("e12b8e88d4d4a498", "bef249b27947ff18"),
    (69_632, bytes(range(100))): ("97e1707a4041106f", "db71cb76d0bc76f4"),
    (10_003, b"a"): ("051be50d4f0c870c", "e127759b1b554138"),
}


def test_residency_probe_known_answers():
    """Pins the probe bytes of wire version 7: a grid digest plus four literals."""
    digests = {}
    for size, block in _KAT_DATASETS:
        chal = residency.init_chal(size, b"kat-seed", block)
        columns = _reference_columns(chal)
        for nonce in _KAT_NONCES:
            got = residency.residency_probe(chal, nonce)
            assert got.response_digest == _reference_mu(columns, nonce)
            digests[size, nonce] = got.response_digest
    assert len(set(digests.values())) == len(digests) == 18
    grid = hashlib.sha256(b"".join(digests.values())).hexdigest()
    assert grid == "706f6b7b14d687d46b1a8f10e55c9a2edbbaf66a26faeae4dea80858c5a1a691"
    got = {key: (digests[key][:8].hex(), digests[key][-8:].hex()) for key in _KAT_LITERALS}
    assert got == _KAT_LITERALS


@given(
    st.integers(min_value=1, max_value=40_000),
    st.integers(min_value=1, max_value=64),
    st.binary(min_size=1, max_size=16),
)
@example(10_003, 3, b"n")  # a byte length not a multiple of 8, a short last block
@example(1001, 1, b"n")  # a single block
@example(65_536, 16, b"n")  # a block count dividing 512
@settings(max_examples=40, deadline=None)
def test_sketch_equals_the_reference_mu(size, blocks, nonce):
    """One einsum gives the Python-integer mu, for the planted view and bytes."""
    chal = residency.init_chal(size, b"sketch-seed", -(-size // blocks))
    nu = residency._sketch_weights(nonce, chal.spec.column_words)
    expected = _reference_mu(_reference_columns(chal), nonce)
    assert residency._sketch(chal.data, nu) == expected
    assert residency._sketch(bytes(chal.data), nu) == expected


def test_probe_digest_changes_with_any_flipped_byte():
    chal = residency.init_chal(65_536, b"flip-seed", 4096)
    base = residency.residency_probe(chal, b"n").response_digest
    seen = {base}
    for index in (0, 4095, 8 * 4096 + 2048, 65_535):
        flipped = bytearray(chal.data)  # a copy: the planted data stays as it was
        flipped[index] ^= 0x01
        tampered = dataclasses.replace(chal, data=memoryview(flipped))
        got = residency.residency_probe(tampered, b"n")
        seen.add(got.response_digest)
    assert len(seen) == 5


def test_probe_reads_the_dataset_in_place(monkeypatch):
    """No mask, no copy: a 4 MiB probe peaks far below the dataset size."""

    def refuse(*args, **kwargs):
        raise AssertionError("the probe masks nothing")

    monkeypatch.setattr(residency, "mask_block", refuse)
    chal = residency.init_chal(4 << 20, b"mem-seed", 256 << 10)
    tracemalloc.start()
    try:
        residency.residency_probe(chal, b"n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 << 10, f"probe peaked at {peak} bytes"


# --- the seed-level description and spot-check verification -------------------------


@pytest.mark.parametrize(
    "size, block",
    ((4 << 20, 256 << 10), (10_003, 4096), (1001, 1001), (100, 7), (40_000, 16_384), (5000, 1)),
)
def test_spec_columns_partition_the_dataset(size, block):
    chal = residency.init_chal(size, b"cols", block)
    spec = residency.DatasetSpec(b"cols", size, block)
    assert chal.spec == spec
    columns = _reference_columns(chal)
    assert spec.column_count == len(columns) <= residency.SKETCH_WORDS
    width = 8 * spec.column_words
    assert all(len(column) == width for column in columns[:-1])  # only the last is short
    cut = []
    for c in range(spec.column_count):
        row = np.zeros(spec.column_words, dtype="<u8")
        spec.column_into(c, row)
        column = row.tobytes()
        assert column[: len(columns[c])] == columns[c] == chal.data[width * c : width * (c + 1)]
        assert column[len(columns[c]) :] == bytes(width - len(columns[c]))  # zero-padded
        cut.append(columns[c])
    # in order, contiguous, and every byte once
    assert b"".join(cut) == chal.data


# (size, block): (R, C) as wire version 6 cut them block by block, at the
# benchmark, fixture and acceptance shapes, where the block count divides 512
_V6_GEOMETRY = {
    (1 << 20, 256 << 10): (256, 512),
    (1 << 20, 1 << 20): (256, 512),
    (4 << 20, 256 << 10): (1024, 512),
    (4 << 20, 1 << 20): (1024, 512),
    (64 << 20, 256 << 10): (16_384, 512),
    (64 << 20, 1 << 20): (16_384, 512),
    (256 << 20, 1 << 20): (65_536, 512),
}


def test_the_geometry_is_unchanged_where_the_block_count_divides_512():
    for (size, block), geometry in _V6_GEOMETRY.items():
        spec = residency.DatasetSpec(b"g", size, block)
        assert (spec.column_words, spec.column_count) == geometry


@given(
    st.integers(min_value=1, max_value=residency.MAX_DATASET_BYTES),
    st.integers(min_value=1, max_value=1 << 31),
)
@example(residency.MAX_DATASET_BYTES, 1 << 20)  # 1024 blocks: 512 columns, not 1024
@example(residency.MAX_DATASET_BYTES, 1)
@settings(max_examples=200, deadline=None)
def test_mu_has_at_most_sketch_words_at_any_shape(size, block):
    """C <= SKETCH_WORDS whatever the block count, and the columns cover
    the dataset with less than one column to spare; above 8 * SKETCH_WORDS
    bytes mu holds more than half of SKETCH_WORDS words."""
    spec = residency.DatasetSpec(b"any", size, block)
    width = 8 * spec.column_words
    assert 1 <= spec.column_count <= residency.SKETCH_WORDS
    assert width * (spec.column_count - 1) < size <= width * spec.column_count
    if size >= 8 * residency.SKETCH_WORDS:
        assert spec.column_count > residency.SKETCH_WORDS // 2
    else:
        assert spec.column_words == 1


@given(st.integers(min_value=1, max_value=20_000), st.integers(min_value=1, max_value=40_000))
@example(8 * 512 + 1, 1)  # R = 2 and a one-byte last column
@settings(max_examples=30, deadline=None)
def test_an_honest_digest_verifies_at_any_shape(size, block):
    chal, digest = _honest(size, block)
    assert len(digest) == 8 * chal.spec.column_count <= 8 * residency.SKETCH_WORDS
    assert residency.verify_probe(chal.spec, b"n", digest, random.SystemRandom())


def test_one_byte_blocks_leave_the_digest_at_4_kib():
    """1 MiB in 1-byte blocks is 2^20 blocks, and still 512 columns: a
    column per block would make every digest 8 MiB."""
    chal, digest = _honest(1 << 20, 1)
    assert chal.spec.block_count == 1 << 20
    assert chal.spec.column_count <= residency.SKETCH_WORDS
    assert len(digest) == 4096
    assert residency.verify_probe(chal.spec, b"n", digest, random.SystemRandom())


def test_spec_validation():
    with pytest.raises(ValueError):
        residency.DatasetSpec(b"x", 0)
    with pytest.raises(ValueError):
        residency.DatasetSpec(b"x", 100, block_size_bytes=0)
    top = residency.MAX_DATASET_BYTES
    assert residency.DatasetSpec(b"x", top).size_bytes == top
    bad = ((top + 1, 1 << 20), (1 << 40, 1 << 20), (100.0, 10), (True, 1), (100, 10.0))
    for size, block in bad:
        with pytest.raises(ValueError):
            residency.DatasetSpec(b"x", size, block)


def _honest(size: int, block: int, nonce: bytes = b"n"):
    chal = residency.init_chal(size, b"verify-seed", block)
    digest = residency.residency_probe(chal, nonce).response_digest
    return chal, digest


def test_verify_probe_accepts_honest_digests_from_the_seed_alone():
    for size, block in ((DATASET, BLOCK), (10_003, 4096), (100, 7)):
        chal, digest = _honest(size, block)
        assert residency.verify_probe(chal.spec, b"n", digest, random.SystemRandom())
        assert not residency.verify_probe(chal.spec, b"m", digest, random.SystemRandom())
        other = residency.DatasetSpec(b"other-seed", size, block)
        assert not residency.verify_probe(other, b"n", digest, random.SystemRandom())


def test_verify_probe_refuses_a_digest_of_the_wrong_length_without_raising():
    chal, digest = _honest(DATASET, BLOCK)
    for bad in (b"", digest[-32:], digest[:-8], digest + bytes(8), digest[:-1], digest + b"x", digest + bytes(32)):
        assert residency.verify_probe(chal.spec, b"n", bad, random.Random(0)) is False


@pytest.fixture
def regenerated(monkeypatch) -> list[int]:
    """The columns ``DatasetSpec.column_into`` regenerates, in call order."""
    calls = []
    column_into = residency.DatasetSpec.column_into

    def counting(spec, c, out):
        calls.append(c)
        return column_into(spec, c, out)

    monkeypatch.setattr(residency.DatasetSpec, "column_into", counting)
    return calls


def _reference_picks(columns: int, rng: random.Random) -> list[int]:
    """The spot-check rule: one ``getrandbits`` read of SPOT_CHECKS chunks of
    k = (columns - 1).bit_length() bits, low bits first; a chunk >= columns
    is dropped, and the missing picks come from a further read."""
    k = (columns - 1).bit_length()
    picks = []
    while len(picks) < residency.SPOT_CHECKS:
        need = residency.SPOT_CHECKS - len(picks)
        read = rng.getrandbits(k * need)
        for i in range(need):
            chunk = (read >> (k * i)) % (1 << k)
            if chunk < columns:
                picks.append(chunk)
    return picks


def test_spot_checks_are_uniform_with_replacement():
    """Over a column count just past a power of two, where nearly half the
    chunks are redrawn, every column is picked at rate 1/C (chi-square,
    C - 1 = 64 degrees of freedom, under its 0.999 quantile 104.7), and a
    column repeats within one round as often as draws with replacement do;
    at any C the picks are the reference rule's, redraws included."""
    columns, rounds = 65, 2000
    rng = random.Random("uniform")
    counts = [0] * columns
    repeated = 0
    for _ in range(rounds):
        picks = residency._spot_checks(columns, rng)
        assert len(picks) == residency.SPOT_CHECKS
        for c in picks:
            counts[c] += 1
        repeated += len(set(picks)) < len(picks)
    expected = rounds * residency.SPOT_CHECKS / columns
    assert sum((n - expected) ** 2 / expected for n in counts) < 104.7
    # P(32 draws from 65 all distinct) = prod (1 - i/65), i < 32: about 0.0001
    assert repeated > 0.99 * rounds
    # one column: every pick is 0, from reads of no bits
    assert residency._spot_checks(1, rng) == [0] * residency.SPOT_CHECKS
    for c in (1, 2, 65, 126, 512):
        assert residency._spot_checks(c, random.Random(c)) == _reference_picks(c, random.Random(c))


def test_a_second_verify_probe_builds_no_dataset_cipher_and_reads_the_rng_once(monkeypatch):
    """Once a thread has verified against a spec, a spot check seeks that
    thread's live context for the dataset stream instead of building one,
    and the 32 picks over C = 512 columns come from one rng read."""
    chal, digest = _honest(DATASET, BLOCK)
    spec = chal.spec
    assert spec.column_count == 512
    assert residency.verify_probe(spec, b"n", digest, random.Random(0))
    dataset_key = keyed_hash(spec.seed, residency.CHAL_DOMAIN)
    built = []
    cipher = core.Cipher

    def counting(algorithm, mode=None):
        built.append(algorithm.key)
        return cipher(algorithm, mode)

    reads = []

    class Counting(random.Random):
        def getrandbits(self, k):
            reads.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(core, "Cipher", counting)
    assert residency.verify_probe(spec, b"n", digest, Counting(1))
    assert built.count(dataset_key) == 0
    assert reads == [9 * residency.SPOT_CHECKS]


def test_verify_probe_regenerates_exactly_the_spot_checked_columns(regenerated):
    """Verification costs SPOT_CHECKS column regenerations and nothing more."""
    chal, digest = _honest(DATASET, BLOCK)
    drawn = random.Random(5)
    assert residency.verify_probe(chal.spec, b"n", digest, drawn)
    assert len(regenerated) == residency.SPOT_CHECKS
    assert regenerated == _reference_picks(chal.spec.column_count, random.Random(5))


def _forged(chal: residency.ChalDataset, nonce: bytes, wrong: list[int]) -> bytes:
    """A digest whose mu is wrong in the ``wrong`` columns and right
    elsewhere, so only a spot check on those columns sees it."""
    mu = bytearray(residency.residency_probe(chal, nonce).response_digest)
    for c in wrong:
        mu[8 * c] ^= 0x5A
    return bytes(mu)


def test_worker_wrong_in_a_fifth_of_the_columns_fails_nearly_every_round():
    """Each round passes with probability 0.8^32, so 1 - 0.8^32 = 99.92% fail."""
    chal = _dataset()
    spec = chal.spec
    columns = spec.column_count
    rng = random.Random("forge-20")
    failed = 0
    for i in range(300):
        nonce = rng.randbytes(16)
        digest = _forged(chal, nonce, rng.sample(range(columns), columns // 5))
        failed += not residency.verify_probe(spec, nonce, digest, rng)
    assert failed >= 297, f"only {failed}/300 rounds failed"


def test_one_wrong_column_is_caught_at_the_spot_check_rate():
    """Caught with probability 1 - (1 - 1/C)^32, within 4 sigma over 1000 rounds."""
    chal = residency.init_chal(1001, b"one-column", 1001)  # C = 126, last word short
    spec = chal.spec
    columns = spec.column_count
    assert columns == 126
    rng = random.Random("forge-one")
    trials = 1000
    caught = 0
    for _ in range(trials):
        digest = _forged(chal, b"n", [rng.randrange(columns)])
        caught += not residency.verify_probe(spec, b"n", digest, rng)
    p = 1 - (1 - 1 / columns) ** residency.SPOT_CHECKS
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(caught / trials - p) < 4 * sigma, (caught, p)


def test_verifying_against_a_64_mib_description_holds_no_dataset():
    chal, digest = _honest(64 << 20, 1 << 20)
    spec = chal.spec
    del chal
    tracemalloc.start()
    try:
        ok = residency.verify_probe(spec, b"n", digest, random.SystemRandom())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 1 << 20, f"verification peaked at {peak} bytes"


def test_a_digest_wrong_only_in_the_last_batch_is_refused(regenerated):
    """At 64 MiB a column is 128 KiB, so the 32 checks run in batches of
    four; a column wrong only in the last batch is still caught."""
    chal, digest = _honest(64 << 20, 1 << 20)
    spec = chal.spec
    del chal
    rows = residency.VERIFY_BATCH_BYTES // (8 * spec.column_words)
    assert rows == 4 and residency.SPOT_CHECKS % rows == 0
    picks = _reference_picks(spec.column_count, random.Random(9))
    wrong = next(c for c in picks[-rows:] if c not in picks[:-rows])
    mu = bytearray(digest)
    mu[8 * wrong] ^= 0x5A
    assert residency.verify_probe(spec, b"n", digest, random.Random(9))
    assert not residency.verify_probe(spec, b"n", bytes(mu), random.Random(9))
    assert regenerated == picks + picks


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
    for t_max in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            residency.schedule_next(t_max, rng)


def test_bandwidth_model_validation():
    with pytest.raises(ValueError):
        residency.BandwidthModel(hbm_bw=1e9, pci_bw=2e9)
    with pytest.raises(ValueError):
        residency.BandwidthModel(base_latency_ns=-1)


# --- sessions ----------------------------------------------------------------------


def _worker(profile: WorkerProfile, seed: int = 1) -> SimWorker:
    return SimWorker(profile, seed=seed, model=MODEL)


def _cold_rows(report) -> int:
    return sum(row["verdict"] == "Cold" for row in report.rows)


def test_session_hot_worker_passes():
    rows_seen = []
    report = residency.run_residency_session(
        _worker(WorkerProfile(residency_state="hot")),
        rounds=6,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        rng=random.Random(42),
        sink=rows_seen.append,
    )
    assert report.overall_pass
    assert report.invalid_count == 0
    assert len(report.rows) == 6 and rows_seen == report.rows
    assert all(r["verdict"] == "Hot" and r["valid"] for r in report.rows)
    assert all(len(r["salt_digest"]) == 64 for r in report.rows)


def test_session_cold_worker_fails_every_round():
    report = residency.run_residency_session(
        _worker(WorkerProfile(residency_state="cold")),
        rounds=5,
        t_max_s=1.0,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=MODEL,
        rng=random.Random(43),
    )
    assert not report.overall_pass
    assert _cold_rows(report) == 5
    assert report.decision.statistic == 5.0
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
        rng=random.Random(44),
    )
    verdicts = [r["verdict"] for r in report.rows]
    assert verdicts == ["Hot"] * 4 + ["Cold"] * 4
    assert _cold_rows(report) == 4 and not report.overall_pass


class _ForgingWorker(SimWorker):
    """Answers fast but with a fabricated digest."""

    def probe(self, nonce):
        result = super().probe(nonce)
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
        rng=random.Random(45),
    )
    assert not report.overall_pass
    assert report.invalid_count == 3 and _cold_rows(report) == 0
    assert all(not r["valid"] for r in report.rows)


def test_session_validation():
    with pytest.raises(ValueError):
        residency.run_residency_session(
            _worker(WorkerProfile()), rounds=0, t_max_s=1.0
        )


class _RecordingWorker(SimWorker):
    """Keeps every pre-challenge it is sent."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent = []

    def pre_challenge(self, record):
        self.sent.append(record)
        return super().pre_challenge(record)


@pytest.mark.parametrize(
    "bad",
    [
        {"rounds": 0},
        {"t_max_s": 0},
        {"t_max_s": -1.0},
        {"t_max_s": math.nan},  # a NaN deadline would let the probes run back to back
        {"t_max_s": math.inf},
        {"threshold_ns": 0},  # refused, not taken for the default
        {"threshold_ns": -5},
        {"threshold_ns": math.nan},
    ],
)
def test_a_bad_session_setting_is_refused_before_the_dataset_is_planted(bad):
    worker = _RecordingWorker(WorkerProfile(), seed=1, model=MODEL)
    settings = {"rounds": 2, "t_max_s": 1.0, "threshold_ns": None, **bad}
    with pytest.raises(ValueError):
        residency.run_residency_session(
            worker, dataset_bytes=DATASET, block_size_bytes=BLOCK, model=MODEL,
            rng=random.Random(1), **settings,
        )
    assert worker.sent == []


def test_open_residency_draws_the_seed_then_builds_wait_classify_and_decide():
    rng = random.Random(5)
    opening = residency.open_residency(3, 0.5, DATASET, BLOCK, 1_000, rng)
    assert opening.rounds == 3 and opening.config == {} and opening.params == {}
    # the dataset seed is the first draw of the session rng after the session id
    assert opening.dataset == residency.DatasetSpec(
        core.generate_salt(random.Random(5)), DATASET, BLOCK
    )
    assert all(0 <= opening.wait() < 0.5 for _ in range(20))
    fast, slow = (TimingSample(0, "residency", ns * 1e-9, True) for ns in (999, 1000))
    assert (opening.classify(fast), opening.classify(slow)) == ("Hot", "Cold")
    assert opening.decide([fast, fast]).accepted and not opening.decide([fast, slow]).accepted
