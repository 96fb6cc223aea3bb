"""Memory-residency inference from probe timing.

The challenger plants a large pseudorandom dataset in the worker's fast
memory, then fires nonce-keyed probes at uniformly random times.  A
worker that kept the data resident answers after a fast-memory scan; a
worker that evicted it must haul every byte back across the slow bus
first, which shows up as a timing gap of roughly dataset_size / bus
bandwidth.  A probe is one nonce-keyed SHA-256 scan that reads every
dataset byte once, then ceil(sqrt(B)) Argon2id instances on blocks the
scan's digest picks.  Probes are keyed so responses can be neither
precomputed nor faked: the challenger regenerates the dataset from its
seed and recomputes the expected digest exactly.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from enum import Enum

from cryptography.hazmat.primitives.kdf.argon2 import Argon2id

from .core import (
    TimingSample,
    digest_to_int,
    encode_fields,
    generate_salt,
    hash_bytes,
    keyed_hash,
    keyed_stream,
    keyed_xor,
)

DEFAULT_BLOCK_BYTES = 1 << 20  # matches the per-instance Argon2id memory cost


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
        if not self.hbm_bw > self.pci_bw > 0:
            raise ValueError("need hbm_bw > pci_bw > 0")
        if self.base_latency_ns < 0:
            raise ValueError("base latency cannot be negative")


@dataclass(frozen=True)
class ResidencyParams:
    """Challenge params of one probe: the phase-2 Argon2id memory cost."""

    argon_memory_kib: int = 1024


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


@dataclass
class ChalDataset:
    """Incompressible challenge data, regenerable block by block from a seed.

    ``blocks`` is the only copy of the data; nothing derived from it is
    cached, so masking the blocks in place leaves nothing stale.
    """

    size_bytes: int
    block_size_bytes: int
    seed: bytes
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


def chal_block(seed: bytes, index: int, nbytes: int) -> bytes:
    """Block ``index`` of the dataset: a seed-keyed pseudorandom stream.

    The ChaCha20 keystream of ``core.keyed_stream`` under the domain
    ``("chal", index)``.
    """
    return keyed_stream(seed, nbytes, domain=encode_fields("chal", index))


def init_chal(
    size_bytes: int, seed: bytes, block_size_bytes: int = DEFAULT_BLOCK_BYTES
) -> ChalDataset:
    """Materialize the dataset from its seed, block by block.

    The last block may be short when the size is not a block multiple.
    Pseudorandom bytes are incompressible, so a worker cannot keep a
    cheaper representation than the data itself.
    """
    if size_bytes < 1:
        raise ValueError("dataset needs at least one byte")
    if block_size_bytes < 1:
        raise ValueError("block size must be positive")
    blocks = []
    offset = 0
    index = 0
    while offset < size_bytes:
        nbytes = min(block_size_bytes, size_bytes - offset)
        blocks.append(chal_block(seed, index, nbytes))
        offset += nbytes
        index += 1
    return ChalDataset(
        size_bytes=size_bytes,
        block_size_bytes=block_size_bytes,
        seed=seed,
        blocks=blocks,
    )


def mask_block(nonce: bytes, index: int, block: bytes) -> bytes:
    """Nonce-keyed block mask; XOR, so applying it twice restores the block.

    The block is XORed with the nonce-keyed ChaCha20 stream of
    ``core.keyed_xor`` under the domain ``("mask", index)``.  It is not
    part of ``residency_probe``, which folds the raw blocks into a
    nonce-keyed SHA-256 scan; the ``mask`` domain is used only here.
    """
    return keyed_xor(nonce, block, domain=encode_fields("mask", index))


def default_instance_count(block_count: int) -> int:
    """Phase-2 memory-hard instances per probe: ceil(sqrt(block count))."""
    return math.isqrt(max(block_count - 1, 0)) + 1


def residency_probe(
    chal: ChalDataset,
    nonce: bytes,
    argon_memory_kib: int = ResidencyParams.argon_memory_kib,
) -> ResidencyProbeResult:
    """Run the two-phase probe over the dataset and return the digest.

    Phase 1 reads every byte once: one SHA-256 stream, seeded with the
    nonce-keyed ``keyed_hash(nonce, b"probe-init")``, absorbs every block
    in order, so the digest is unknowable before the nonce and the scan
    is a sequential chain that cannot be split.  Phase 2 runs
    ``default_instance_count`` single-pass, single-lane Argon2id
    instances whose block indices depend on the evolving digest; the
    next index is unknown until the previous tag exists, forcing
    genuinely randomized access instead of a prefetched linear pass.
    Each instance's password is SHA-256(state || block), so it depends
    on the state and on every byte of its block.  ``kernel_time_s``
    times phase 2.
    """
    t_start = time.perf_counter()
    scan = hashlib.sha256(keyed_hash(nonce, b"probe-init"))
    for block in chal.blocks:
        scan.update(block)
    state = scan.digest()
    t_phase2 = time.perf_counter()
    for i in range(default_instance_count(chal.block_count)):
        pick = digest_to_int(keyed_hash(state, encode_fields("pick", i)))
        j = pick % chal.block_count
        kdf = Argon2id(
            salt=state,
            length=32,
            iterations=1,
            lanes=1,
            memory_cost=argon_memory_kib,
            secret=nonce,
            ad=encode_fields(j),
        )
        password = hashlib.sha256(state)
        password.update(chal.blocks[j])
        tag = kdf.derive(password.digest())
        state = keyed_hash(state, encode_fields(tag, j))
    t_end = time.perf_counter()
    timing = TimingSample(
        index=0, mode="residency", duration=t_end - t_start, valid=True
    )
    return ResidencyProbeResult(
        response_digest=state,
        timing=timing,
        kernel_time_s=t_end - t_phase2,
    )


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
    to separate cleanly, which holds whenever the dataset dwarfs the
    phase-2 working set (square-root sampling guarantees that).
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


@dataclass
class ResidencySessionReport:
    rows: list[dict]
    overall_pass: bool
    cold_count: int
    invalid_count: int
    threshold_ns: int


def run_residency_session(
    worker,
    rounds: int,
    t_max_s: float,
    dataset_bytes: int = ResidencySettings.dataset_mib << 20,
    block_size_bytes: int = DEFAULT_BLOCK_BYTES,
    model: BandwidthModel | None = None,
    threshold_ns: int | None = None,
    argon_memory_kib: int = ResidencyParams.argon_memory_kib,
    rng: random.Random | None = None,
    sink=None,
) -> ResidencySessionReport:
    """Full session: plant the dataset, then probe at random times.

    The pre-challenge plants the dataset on the worker.  Each round waits
    a uniform interval, then takes the session driver's round step: a
    fresh nonce (the challenge salt), the answer timed on the
    challenger's clock, and its digest checked against the challenger's
    own copy of the dataset.  The measured time is classified Hot or
    Cold.  A digest mismatch marks the round invalid regardless of how
    fast it was; any Cold or invalid round fails the session overall.
    """
    from .protocol import SessionDriver  # protocol imports this module

    if rounds < 1:
        raise ValueError("need at least one round")
    rng = rng if rng is not None else random.Random()
    model = model if model is not None else BandwidthModel()
    if threshold_ns is None:
        threshold_ns = default_threshold_ns(dataset_bytes, model)
    seed = generate_salt(rng)
    session_id = worker.session_id or bytes(32)
    plant = {"seed": seed, "size_bytes": dataset_bytes, "block_size_bytes": block_size_bytes}
    worker.pre_challenge({"session_id": session_id, "kind": "residency", "residency": plant})
    driver = SessionDriver(
        worker=worker,
        mode="residency",
        params={"argon_memory_kib": argon_memory_kib},
        rng=rng,
        session_id=session_id,
        dataset=init_chal(dataset_bytes, seed, block_size_bytes),
    )
    rows: list[dict] = []
    cold = 0
    invalid = 0
    for i in range(rounds):
        driver.sleep_until(driver.now() + schedule_next(t_max_s, rng))
        step = driver.step(i)
        timing = TimingSample(
            index=i, mode="residency", duration=step.duration, valid=step.valid
        )
        verdict = classify_residency(timing, threshold_ns)
        if not step.valid:
            invalid += 1
        elif verdict is Residency.COLD:
            cold += 1
        payload = step.response.payload if step.response is not None else {}
        row = {
            "round": i,
            "nonce_digest": hash_bytes(step.challenge.salt).hex(),
            "total_ns": int(step.duration * 1e9),
            "kernel_ns": int(payload.get("kernel_time_ns", 0)),
            "verdict": verdict.value,
            "valid": step.valid,
        }
        rows.append(row)
        if sink is not None:
            sink(row)
    return ResidencySessionReport(
        rows=rows,
        overall_pass=(cold == 0 and invalid == 0),
        cold_count=cold,
        invalid_count=invalid,
        threshold_ns=threshold_ns,
    )
