"""Memory-residency inference from probe timing.

The challenger plants a large pseudorandom dataset in the worker's fast
memory, then fires nonce-keyed probes at uniformly random times.  A
worker that kept the data resident answers after a fast-memory scan; a
worker that evicted it must haul every byte back across the slow bus
first, which shows up as a timing gap of roughly dataset_size / bus
bandwidth.

A probe is a linear sketch of the whole dataset, and the sketch is the
digest.  The dataset is one keyed stream, read as little-endian u64
words and cut into C contiguous columns of R words
(``DatasetSpec.column_words``), R = ceil(size / (8 * SKETCH_WORDS)), so
C <= SKETCH_WORDS whatever the block size; only the last column may be
short.  With nonce-derived odd weights nu_1..nu_R the sketch is

    mu_c = sum_i nu_i * word_(c, i)  mod 2^64,

one uint64 ``np.einsum`` over the dataset, read in place, plus one row
for a short last column.
The ring is Z/2^64 because numpy's uint64 arithmetic wraps there
exactly; the weights are odd, so w -> nu * w is a bijection and a word
the worker does not hold enters mu_c as a uniformly random term.  The
response is mu, at most 512 words, so the challenger never holds the
dataset: it regenerates only the ``SPOT_CHECKS`` columns it draws
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
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    TimingSample,
    encode_fields,
    generate_salt,
    hash_bytes,
    keyed_stream,
    keyed_xor_into,
)
from .stattests import Decision, Verdict

DEFAULT_BLOCK_BYTES = 1 << 20
# the most a worker plants: a pre-challenge names the size, and a worker must
# not allocate whatever it is told (this holds the acceptance suite's 256 MiB
# dataset four times over, and keeps every seek far below the 2^32 64-byte
# blocks of ChaCha20's counter)
MAX_DATASET_BYTES = 1 << 30
# the dataset's one keyed stream: every byte of it, whatever the block size
CHAL_DOMAIN = encode_fields("chal")
SKETCH_WORDS = 512  # mu has at most SKETCH_WORDS words
SPOT_CHECKS = 32  # sketch columns the challenger regenerates per round
# the most the challenger's regenerated columns hold at once; a column
# wider than this is checked alone
VERIFY_BATCH_BYTES = 512 << 10


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
        if not 1 <= self.rounds < math.inf:
            raise ValueError(f"rounds must be at least 1 and finite, got {self.rounds}")
        if not 0 < self.t_max_s < math.inf:
            raise ValueError("t_max_s must be positive and finite")
        if not 1 <= self.dataset_mib <= MAX_DATASET_BYTES >> 20:
            raise ValueError(
                "dataset_mib must be finite, at least 1 and at most "
                f"{MAX_DATASET_BYTES >> 20}, got {self.dataset_mib}"
            )
        if not 1 <= self.block_kib < math.inf:
            raise ValueError(f"block_kib must be at least 1 and finite, got {self.block_kib}")
        if self.threshold_ns is not None and not 0 < self.threshold_ns < math.inf:
            raise ValueError("threshold_ns must be positive and finite")


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset by its seed and shape: all the challenger keeps of it.

    The bytes are the keyed stream of the seed under ``CHAL_DOMAIN``,
    read as little-endian u64 words, the tail zero-padded, and cut into
    contiguous sketch columns of ``column_words`` words; only the last
    column may be shorter.  Blocks, ``block_size_bytes`` long except a
    short last one, are views of it and play no part in the sketch.
    Sizes are ints and a dataset holds at most ``MAX_DATASET_BYTES``, so
    a worker refuses a pre-challenge that names more before it allocates.
    """

    seed: bytes
    size_bytes: int
    block_size_bytes: int = DEFAULT_BLOCK_BYTES

    def __post_init__(self) -> None:
        for size in (self.size_bytes, self.block_size_bytes):
            if not isinstance(size, int) or isinstance(size, bool):
                raise ValueError(f"dataset sizes must be ints, got {size!r}")
        if not 1 <= self.size_bytes <= MAX_DATASET_BYTES:
            raise ValueError(f"dataset size must lie in [1, {MAX_DATASET_BYTES}] bytes")
        if self.block_size_bytes < 1:
            raise ValueError("block size must be positive")

    @property
    def block_count(self) -> int:
        return -(-self.size_bytes // self.block_size_bytes)

    @property
    def column_words(self) -> int:
        """R, the words per column and the number of sketch weights."""
        return -(-self.size_bytes // (8 * SKETCH_WORDS))

    @property
    def column_count(self) -> int:
        """C, the words of mu: at most ``SKETCH_WORDS``."""
        return -(-self.size_bytes // (8 * self.column_words))

    def column_into(self, c: int, out) -> None:
        """XOR column ``c``, regenerated from the seed, into the front of ``out``.

        ``out`` is a writable buffer of at least the column's bytes; into
        a zeroed row of ``column_words`` words it writes the column
        zero-padded, as the sketch reads it.  The stream is seeked to the
        column, and nothing before it is generated.
        """
        width = 8 * self.column_words
        start = width * c
        front = memoryview(out).cast("B")[: min(width, self.size_bytes - start)]
        keyed_xor_into(front, self.seed, CHAL_DOMAIN, offset=start)


class BlockViews(Sequence):
    """The blocks of a buffer as a read-only sequence, one view cut per access.

    Block i is ``data[i * step : (i + 1) * step]``, the last one short
    when ``step`` does not divide the buffer; negative indices count from
    the end.  Nothing is held per block, so reading one block of a
    dataset in 1-byte blocks costs one view, not one per block.  It
    compares equal to a list or tuple of its blocks' bytes.
    """

    def __init__(self, data: memoryview, step: int) -> None:
        self._data = data
        self._starts = range(0, len(data), step)
        self._step = step

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index: int) -> memoryview:
        start = self._starts[index]
        return self._data[start : start + self._step]

    def __iter__(self):
        return (self._data[start : start + self._step] for start in self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (BlockViews, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class ChalDataset:
    """Incompressible challenge data, regenerable column by column from a seed.

    ``data`` is the only copy: ``init_chal`` plants it as a writable
    view of one buffer of the dataset's size, which
    ``fingerprint.mask_chal_inplace`` XORs in place.  ``blocks`` are
    views of it, cut when read.  Nothing derived from the data is
    cached, so changing it leaves nothing stale.  ``spec`` is the seed
    and shape the data was generated from.
    """

    spec: DatasetSpec
    data: memoryview

    @property
    def blocks(self) -> BlockViews:
        """Views of ``data``, ``spec.block_size_bytes`` long except a short last one."""
        return BlockViews(self.data, self.spec.block_size_bytes)

    @property
    def block_digests(self) -> list[bytes]:
        """SHA-256 of each block, computed from the blocks when read."""
        return [hash_bytes(block) for block in self.blocks]


@dataclass(frozen=True)
class ResidencyProbeResult:
    response_digest: bytes
    timing: TimingSample
    kernel_time_s: float


def init_chal(
    size_bytes: int, seed: bytes, block_size_bytes: int = DEFAULT_BLOCK_BYTES
) -> ChalDataset:
    """Materialize the dataset from its seed into one buffer.

    The spec is checked before anything is allocated.  The keyed stream
    of ``seed`` under ``CHAL_DOMAIN`` is XORed in place into one zeroed
    ``size_bytes`` buffer, so planting allocates the dataset once and
    sets up one cipher, whatever the block size.  Pseudorandom bytes
    are incompressible to anyone without the seed, but today the
    pre-challenge tells the worker the seed: a worker may keep the seed
    alone and regenerate the dataset for each probe, and its digest
    verifies, so only the probe's time tells it apart.
    """
    spec = DatasetSpec(seed, size_bytes, block_size_bytes)
    data = memoryview(bytearray(size_bytes))
    keyed_xor_into(data, seed, CHAL_DOMAIN)
    return ChalDataset(spec, data)


def mask_block(nonce: bytes, index: int, block: bytes) -> bytearray:
    """Nonce-keyed block mask; XOR, so applying it twice restores the block.

    A copy of the block is XORed in place (``core.keyed_xor_into``) with
    the nonce-keyed ChaCha20 stream under the domain ``("mask", index)``.
    It is not part of ``residency_probe``, which sketches the raw dataset;
    the ``mask`` domain is used only here.
    """
    masked = bytearray(block)
    keyed_xor_into(masked, nonce, encode_fields("mask", index))
    return masked


def _sketch_weights(nonce: bytes, width: int) -> np.ndarray:
    """nu: ``width`` little-endian u64 words of the ``sketch`` stream, made odd."""
    stream = keyed_stream(nonce, 8 * width, domain=encode_fields("sketch"))
    return np.frombuffer(stream, dtype="<u8") | np.uint64(1)


def _sketch(data, nu: np.ndarray) -> bytes:
    """mu of the dataset: one einsum over its full columns, read in place.

    ``data`` is any buffer (the planted dataset's view, ``bytes``).  Its
    full columns are a (columns, R) u64 view of it, summed against nu by
    one ``np.einsum`` that writes straight into mu; numpy's integer
    ``matmul`` is a slower, non-BLAS loop.  A short last column is
    copied into a zeroed row of R words, as ``verify_probe`` regenerates
    it, and summed as ``row @ nu``.
    """
    width = len(nu)
    full = len(data) // (8 * width)
    tail = np.frombuffer(data, dtype=np.uint8, offset=8 * width * full)
    mu = np.empty(full + bool(len(tail)), dtype="<u8")
    words = np.frombuffer(data, dtype="<u8", count=full * width)
    np.einsum("ij,j->i", words.reshape(full, width), nu, out=mu[:full])
    if len(tail):
        row = np.zeros(width, dtype="<u8")
        row.view(np.uint8)[: len(tail)] = tail
        mu[full] = row @ nu
    return mu.tobytes()


def residency_probe(
    chal: ChalDataset, nonce: bytes, argon_memory_kib: int | None = None
) -> ResidencyProbeResult:
    """Sketch the dataset under the nonce; the digest is mu, 8 * C bytes.

    Every byte is read once, in place, under the nonce-derived odd
    weights; ``kernel_time_s`` times the sketch.  ``argon_memory_kib``
    is accepted and ignored: a probe has no memory-hard phase.
    """
    t_start = time.perf_counter()
    mu = _sketch(chal.data, _sketch_weights(nonce, chal.spec.column_words))
    elapsed = time.perf_counter() - t_start
    timing = TimingSample(index=0, mode="residency", duration=elapsed, valid=True)
    return ResidencyProbeResult(response_digest=mu, timing=timing, kernel_time_s=elapsed)


def _spot_checks(columns: int, rng: random.Random) -> list[int]:
    """``SPOT_CHECKS`` columns in [0, columns), uniform with replacement.

    One ``rng.getrandbits`` read of 32 k bits, k = (columns - 1).bit_length(),
    is cut into k-bit chunks, low bits first; a chunk of at least
    ``columns`` is dropped and redrawn from a further read of as many
    chunks as are missing.  Accepted chunks are independent and uniform,
    as ``randrange``'s are, for one read of the OS instead of 32.
    """
    bits = (columns - 1).bit_length()
    mask = (1 << bits) - 1
    picks: list[int] = []
    while len(picks) < SPOT_CHECKS:
        need = SPOT_CHECKS - len(picks)
        draw = rng.getrandbits(bits * need)
        chunks = ((draw >> (bits * i)) & mask for i in range(need))
        picks += [c for c in chunks if c < columns]
    return picks


def verify_probe(
    spec: DatasetSpec, nonce: bytes, response_digest: bytes, rng: random.Random
) -> bool:
    """Check a probe digest against the dataset's seed, never its bytes.

    A digest that is not 8 * C bytes is refused.  Then ``SPOT_CHECKS``
    columns are drawn from ``rng`` (``_spot_checks``: one read), all
    before any is checked, and regenerated (``DatasetSpec.column_into``)
    into the zeroed rows of one reused batch of at most
    ``VERIFY_BATCH_BYTES``; each batch is summed against nu by one
    einsum and compared with those words of mu, and the first batch
    that differs refuses the digest.  The columns are seeks of the
    thread's one live context for the dataset stream (``core._chacha20``),
    so after a thread's first round the cost is the 32 columns'
    keystream, whatever the dataset size.  A challenger passes
    ``random.SystemRandom()`` so the worker cannot know which columns
    are checked.
    """
    columns = spec.column_count
    if len(response_digest) != 8 * columns:
        return False
    mu = np.frombuffer(response_digest, dtype="<u8")
    width = spec.column_words
    nu = _sketch_weights(nonce, width)
    picks = _spot_checks(columns, rng)
    batch = np.zeros((max(1, min(SPOT_CHECKS, VERIFY_BATCH_BYTES // (8 * width))), width), "<u8")
    for first in range(0, SPOT_CHECKS, len(batch)):
        checked = picks[first : first + len(batch)]
        rows = batch[: len(checked)]
        if first:
            rows.fill(0)
        for row, c in zip(rows, checked):
            spec.column_into(c, row)
        if not np.array_equal(np.einsum("ij,j->i", rows, nu), mu[checked]):
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
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    return rng.random() * t_max


def classify_residency(timing: TimingSample, threshold_ns: int) -> Residency:
    """Hot iff the observed time is strictly below the threshold.

    Ties go to Cold: when in doubt, flag.
    """
    if threshold_ns <= 0:
        raise ValueError("threshold must be positive")
    return Residency.HOT if timing.duration * 1e9 < threshold_ns else Residency.COLD


def open_residency(rounds, t_max_s, dataset_bytes, block_size_bytes, threshold_ns, rng, config=None):
    """A residency session's ``protocol.Opening``, refused before anything is planted.

    Bad settings are ValueErrors.  The dataset seed is drawn from ``rng``;
    each round waits ``schedule_next``, a row is Hot or Cold against
    ``threshold_ns``, and the statistic counts Cold or invalid rounds,
    with threshold 0 and no level, so any such round fails.
    """
    from .protocol import Opening  # protocol imports this module

    if rounds < 1:
        raise ValueError("need at least one round")
    for name, value in (("t_max_s", t_max_s), ("threshold_ns", threshold_ns)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    spec = DatasetSpec(generate_salt(rng), dataset_bytes, block_size_bytes)

    def classify(sample: TimingSample) -> str:
        return classify_residency(sample, threshold_ns).value

    def decide(samples: list[TimingSample]) -> Decision:
        flagged = sum(not s.valid or classify(s) == Residency.COLD for s in samples)
        verdict = Verdict.REJECT if flagged else Verdict.ACCEPT
        return Decision(verdict, float(flagged), threshold=0.0, samples_used=len(samples))

    wait = functools.partial(schedule_next, t_max_s, rng)
    return Opening(rounds, decide, config or {}, {}, spec, wait, classify)


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
    """Full session: ``open_residency``, run by ``protocol.run_opened``.

    The dataset is planted, and each digest checked by ``verify_probe``
    against its seed.  ``threshold_ns`` None is ``default_threshold_ns``
    on ``model``; ``argon_memory_kib`` is accepted and ignored.
    """
    from .protocol import run_opened  # protocol imports this module

    rng = rng if rng is not None else random.Random()
    if threshold_ns is None:
        threshold_ns = default_threshold_ns(dataset_bytes, model or BandwidthModel())
    opening = open_residency(rounds, t_max_s, dataset_bytes, block_size_bytes, threshold_ns, rng)
    return run_opened(worker, "residency", opening, rng, sink)
