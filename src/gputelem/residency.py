"""Memory-residency inference from probe timing.

The challenger plants a large pseudorandom dataset in the worker's fast
memory, then fires nonce-keyed probes at uniformly random times.  A
worker that kept the data resident answers after a fast-memory scan; a
worker that evicted it must haul every byte back across the slow bus
first, which shows up as a timing gap of roughly dataset_size / bus
bandwidth.

A probe is a linear sketch of the whole dataset, and the sketch is the
digest.  Each block of the dataset is read as little-endian u64 words
and cut into contiguous columns of R words (``DatasetSpec.column_words``),
about ceil(512 / B) columns per block, so no column crosses a block.
With nonce-derived odd weights nu_1..nu_R the sketch is

    mu_c = sum_i nu_i * word_(c, i)  mod 2^64,

one matrix-vector product per block, read in place at memory speed.
The ring is Z/2^64 because numpy's uint64 arithmetic wraps there
exactly; the weights are odd, so w -> nu * w is a bijection and a word
the worker does not hold enters mu_c as a uniformly random term.  The
response is mu, about max(512, B) words, so the challenger never holds
the dataset: it regenerates only the ``SPOT_CHECKS`` columns it draws
privately, by seeking ChaCha20 to them.  A worker whose mu is wrong in
a fraction f of the columns passes one round with probability
(1 - f)^32, so it is caught with probability 1 - (1 - f)^32 per round
(private verification in Shacham & Waters, *Compact Proofs of
Retrievability*, ASIACRYPT 2008; cf. Ateniese et al., *Provable Data
Possession at Untrusted Stores*, CCS 2007).
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .core import (
    TimingSample,
    encode_fields,
    generate_salt,
    hash_bytes,
    keyed_stream,
    keyed_xor,
)
from .stattests import Decision, Verdict

DEFAULT_BLOCK_BYTES = 1 << 20
SKETCH_WORDS = 512  # mu has about max(SKETCH_WORDS, block count) words
SPOT_CHECKS = 32  # sketch columns the challenger regenerates per round


class Residency(str, Enum):
    HOT = "Hot"
    COLD = "Cold"


@dataclass(frozen=True)
class BandwidthModel:
    """Fast-memory vs. transfer-bus bandwidths used for timing expectations."""

    hbm_bw: float = 100e9
    pci_bw: float = 10e9
    base_latency_ns: int = 50_000

    def __post_init__(self) -> None:
        if not math.inf > self.hbm_bw > self.pci_bw > 0:
            raise ValueError("need hbm_bw > pci_bw > 0, both finite")
        if not 0 <= self.base_latency_ns < math.inf:
            raise ValueError("base latency must be non-negative and finite")


@dataclass(frozen=True)
class ResidencyParams:
    """Challenge params of a residency probe: none, so naming one is refused."""


@dataclass(frozen=True)
class ResidencySettings:
    """Session settings of a ``residency`` config block.

    Desk-scale defaults: deployment-scale corpora are simulated through
    the bandwidth model, not allocated.  ``threshold_ns`` None means
    ``default_threshold_ns`` of the dataset size.
    """

    rounds: int = 10
    t_max_s: float = 1.0
    dataset_mib: int = 64
    block_kib: int = DEFAULT_BLOCK_BYTES >> 10
    threshold_ns: int | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.t_max_s < math.inf:
            raise ValueError("t_max_s must be positive and finite")
        if self.dataset_mib < 1 or self.block_kib < 1:
            raise ValueError("dataset_mib and block_kib must be >= 1")
        if self.threshold_ns is not None and self.threshold_ns <= 0:
            raise ValueError("threshold_ns must be positive")


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset by its seed and shape: all the challenger keeps of it.

    Blocks are ``block_size_bytes`` long except a short last one.  Each
    block is read as little-endian u64 words, its tail zero-padded, and
    cut into contiguous sketch columns of ``column_words`` words; only a
    block's last column may be shorter.  A full block of W words holds
    ceil(W / R) columns, about ceil(SKETCH_WORDS / B) of them.
    """

    seed: bytes
    size_bytes: int
    block_size_bytes: int = DEFAULT_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes < 1:
            raise ValueError("dataset needs at least one byte")
        if self.block_size_bytes < 1:
            raise ValueError("block size must be positive")

    @property
    def block_count(self) -> int:
        return -(-self.size_bytes // self.block_size_bytes)

    def block_len(self, index: int) -> int:
        return min(self.block_size_bytes, self.size_bytes - index * self.block_size_bytes)

    # the geometry is read once per spot check, so it is worked out once
    @functools.cached_property
    def column_words(self) -> int:
        """R, the words per column and the number of sketch weights."""
        words = -(-self.block_len(0) // 8)
        return -(-words // -(-SKETCH_WORDS // self.block_count))

    def _columns_in(self, index: int) -> int:
        return -(-self.block_len(index) // (8 * self.column_words))

    @functools.cached_property
    def _columns_per_block(self) -> int:
        return self._columns_in(0)

    @functools.cached_property
    def column_count(self) -> int:
        """C, the words of mu."""
        last = self.block_count - 1
        return last * self._columns_per_block + self._columns_in(last)

    def column(self, c: int) -> tuple[int, int, int]:
        """(block, start byte, stop byte) of column ``c`` within its block."""
        index, j = divmod(c, self._columns_per_block)
        width = 8 * self.column_words
        return index, width * j, min(width * (j + 1), self.block_len(index))

    def column_bytes(self, c: int) -> bytes:
        """Column ``c`` regenerated from the seed, without its block."""
        index, start, stop = self.column(c)
        return chal_block(self.seed, index, stop - start, offset=start)


@dataclass
class ChalDataset:
    """Incompressible challenge data, regenerable block by block from a seed.

    ``blocks`` is the only copy of the data; nothing derived from it is
    cached, so masking the blocks in place leaves nothing stale.
    ``spec`` is the seed and shape the blocks were generated from.
    """

    spec: DatasetSpec
    blocks: list[bytes]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def block_digests(self) -> list[bytes]:
        """SHA-256 of each block, computed from the blocks when read."""
        return [hash_bytes(block) for block in self.blocks]


@dataclass(frozen=True)
class ResidencyProbeResult:
    response_digest: bytes
    timing: TimingSample
    kernel_time_s: float


def chal_block(seed: bytes, index: int, nbytes: int, offset: int = 0) -> bytes:
    """Bytes [offset, offset + nbytes) of block ``index`` of the dataset.

    The ChaCha20 keystream of ``core.keyed_stream`` under the domain
    ``("chal", index)``, so any slice of a block is regenerated alone.
    """
    return keyed_stream(seed, nbytes, domain=encode_fields("chal", index), offset=offset)


def init_chal(
    size_bytes: int, seed: bytes, block_size_bytes: int = DEFAULT_BLOCK_BYTES
) -> ChalDataset:
    """Materialize the dataset from its seed, block by block.

    The last block may be short when the size is not a block multiple.
    Pseudorandom bytes are incompressible to anyone without the seed,
    but today the pre-challenge tells the worker the seed: a worker may
    keep the seed alone and regenerate the blocks for each probe, and
    its digest verifies, so only the probe's time tells it apart.
    """
    spec = DatasetSpec(seed, size_bytes, block_size_bytes)
    blocks = [chal_block(seed, i, spec.block_len(i)) for i in range(spec.block_count)]
    return ChalDataset(spec, blocks)


def mask_block(nonce: bytes, index: int, block: bytes) -> bytes:
    """Nonce-keyed block mask; XOR, so applying it twice restores the block.

    The block is XORed with the nonce-keyed ChaCha20 stream of
    ``core.keyed_xor`` under the domain ``("mask", index)``.  It is not
    part of ``residency_probe``, which sketches the raw blocks; the
    ``mask`` domain is used only here.
    """
    return keyed_xor(nonce, block, domain=encode_fields("mask", index))


def _sketch_weights(nonce: bytes, width: int) -> np.ndarray:
    """nu: ``width`` little-endian u64 words of the ``sketch`` stream, made odd."""
    stream = keyed_stream(nonce, 8 * width, domain=encode_fields("sketch"))
    return np.frombuffer(stream, dtype="<u8") | np.uint64(1)


def _column_sum(data, nu: np.ndarray) -> int:
    """sum_i nu_i * word_i mod 2^64 of ``data`` as little-endian u64 words.

    A tail shorter than a word is zero-padded.
    """
    words = len(data) // 8
    total = int(np.frombuffer(data, dtype="<u8", count=words) @ nu[:words])
    if len(data) % 8:
        total += int(nu[words]) * int.from_bytes(data[8 * words :], "little")
    return total & 0xFFFF_FFFF_FFFF_FFFF


def _sketch(blocks: list[bytes], nu: np.ndarray) -> bytes:
    """mu of the dataset: one matrix-vector product per block, read in place."""
    width = len(nu)
    parts = []
    for block in blocks:
        full = len(block) // (8 * width)
        words = np.frombuffer(block, dtype="<u8", count=full * width)
        parts.append(words.reshape(full, width) @ nu)
        if len(block) > 8 * full * width:
            tail = memoryview(block)[8 * full * width :]
            parts.append(np.array([_column_sum(tail, nu)], dtype=np.uint64))
    return np.concatenate(parts).astype("<u8").tobytes()


def residency_probe(
    chal: ChalDataset, nonce: bytes, argon_memory_kib: int | None = None
) -> ResidencyProbeResult:
    """Sketch the dataset under the nonce; the digest is mu, 8 * C bytes.

    Every byte is read once, in place, under the nonce-derived odd
    weights; ``kernel_time_s`` times the sketch.  ``argon_memory_kib``
    is accepted and ignored: a probe has no memory-hard phase.
    """
    t_start = time.perf_counter()
    mu = _sketch(chal.blocks, _sketch_weights(nonce, chal.spec.column_words))
    elapsed = time.perf_counter() - t_start
    timing = TimingSample(index=0, mode="residency", duration=elapsed, valid=True)
    return ResidencyProbeResult(response_digest=mu, timing=timing, kernel_time_s=elapsed)


def verify_probe(
    spec: DatasetSpec, nonce: bytes, response_digest: bytes, rng: random.Random
) -> bool:
    """Check a probe digest against the dataset's seed, never its bytes.

    A digest that is not 8 * C bytes is refused.  Then ``SPOT_CHECKS``
    columns drawn from ``rng`` are regenerated and summed against mu.  A
    challenger passes ``random.SystemRandom()`` so the worker cannot
    know which columns are checked.
    """
    columns = spec.column_count
    if len(response_digest) != 8 * columns:
        return False
    mu = np.frombuffer(response_digest, dtype="<u8")
    nu = _sketch_weights(nonce, spec.column_words)
    for _ in range(SPOT_CHECKS):
        c = rng.randrange(columns)
        if _column_sum(spec.column_bytes(c), nu) != int(mu[c]):
            return False
    return True


def expected_gap(size_bytes: int, model: BandwidthModel) -> float:
    """Hot/cold timing gap: transferring S bytes over the slow bus.

    Nanosecond-rounded so both sides agree on thresholds exactly.
    """
    if size_bytes < 0:
        raise ValueError("size cannot be negative")
    return round(size_bytes / model.pci_bw * 1e9) / 1e9


def default_threshold_ns(size_bytes: int, model: BandwidthModel) -> int:
    """Classification threshold: hot-path estimate plus half the gap.

    The hot estimate covers base latency plus a fast-memory scan of the
    dataset; probe compute must stay under half the gap for the default
    to separate cleanly.
    """
    hot_estimate_s = model.base_latency_ns * 1e-9 + size_bytes / model.hbm_bw
    return int(round((hot_estimate_s + expected_gap(size_bytes, model) / 2) * 1e9))


def schedule_next(t_max: float, rng: random.Random) -> float:
    """Waiting time before the next probe: uniform on [0, t_max).

    Uniform scheduling means the worker cannot predict a quiet window to
    page the dataset out and back in unnoticed.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    return rng.random() * t_max


def classify_residency(timing: TimingSample, threshold_ns: int) -> Residency:
    """Hot iff the observed time is strictly below the threshold.

    Ties go to Cold: when in doubt, flag.
    """
    if threshold_ns <= 0:
        raise ValueError("threshold must be positive")
    return Residency.HOT if timing.duration * 1e9 < threshold_ns else Residency.COLD


def run_residency_session(
    worker,
    rounds: int,
    t_max_s: float,
    dataset_bytes: int = ResidencySettings.dataset_mib << 20,
    block_size_bytes: int = DEFAULT_BLOCK_BYTES,
    model: BandwidthModel | None = None,
    threshold_ns: int | None = None,
    argon_memory_kib: int | None = None,
    rng: random.Random | None = None,
    sink=None,
):
    """Full session: plant the dataset, then probe at random times.

    The pre-challenge plants the dataset; the challenger keeps only its
    ``DatasetSpec``.  ``protocol.run_session`` then runs the rounds and
    returns its ``SessionReport``: each round waits ``schedule_next``
    (the driver's ``wait``) on the worker handle's clock, then sends a
    fresh nonce (the challenge salt) and checks the digest by
    ``verify_probe`` against the seed.  A row's verdict is Hot or Cold
    against ``threshold_ns``; the statistic counts Cold or invalid
    rounds, with threshold 0 and no level, so any such round fails.
    ``argon_memory_kib`` is accepted and ignored.
    """
    from .protocol import SessionDriver, run_session  # protocol imports this module

    if rounds < 1:  # before the dataset is planted
        raise ValueError("need at least one round")
    rng = rng if rng is not None else random.Random()
    model = model if model is not None else BandwidthModel()
    if threshold_ns is None:
        threshold_ns = default_threshold_ns(dataset_bytes, model)
    spec = DatasetSpec(generate_salt(rng), dataset_bytes, block_size_bytes)
    session_id = worker.session_id or bytes(32)
    worker.pre_challenge(
        {"session_id": session_id, "kind": "residency", "residency": asdict(spec)}
    )
    wait = functools.partial(schedule_next, t_max_s, rng)
    driver = SessionDriver(worker, "residency", {}, rng, session_id, spec, wait)

    def classify(sample: TimingSample) -> str:
        return classify_residency(sample, threshold_ns).value

    def decide(samples: list[TimingSample]) -> Decision:
        flagged = sum(not s.valid or classify(s) == Residency.COLD for s in samples)
        verdict = Verdict.REJECT if flagged else Verdict.ACCEPT
        return Decision(verdict, float(flagged), threshold=0.0, samples_used=len(samples))

    return run_session(driver, rounds, "residency", decide, classify, sink)
