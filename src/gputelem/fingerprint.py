"""Device-class fingerprints and fingerprint-keyed dataset masking.

Real accelerators leave stable, architecture-specific numerical
residue when the same linear layers run under different batched
reshapes.  Here that drift is simulated: a device class owns a drift
seed, and its error vector is derived deterministically from it, which
preserves the properties the protocol cares about (same class, same
vector; different class, different vector) while staying reproducible
on any host.  The fingerprint digest keys a mask over the challenge
dataset, so a worker on the wrong device class produces wrong masked
bytes and every subsequent probe digest fails verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .core import encode_fields, keyed_hash, keyed_xor_into
from .residency import ChalDataset, init_chal


@dataclass(frozen=True)
class DeviceClassProfile:
    """Simulated device class: a drift seed plus the layer/reshape plan.

    class_id is a human label only and never enters any hash; two
    profiles that differ only in class_id are the same device class.
    """

    class_id: str
    drift_seed: bytes
    layer_spec: tuple[tuple[int, int], ...]
    reshape_schedule: tuple[int, ...]

    def __post_init__(self) -> None:
        for rows, cols in self.layer_spec:
            if rows < 1 or cols < 1:
                raise ValueError("layer shapes must be positive")
        for batch in self.reshape_schedule:
            if batch < 1:
                raise ValueError("batch sizes must be positive")


@dataclass(frozen=True)
class ErrorVector:
    """Signed deviations in 2^-32 units, one per layer output element."""

    entries: tuple[int, ...]

    def encode(self) -> bytes:
        """Canonical bytes: 8-byte big-endian two's complement per entry."""
        return b"".join(e.to_bytes(8, "big", signed=True) for e in self.entries)


def device_error_vector(
    profile: DeviceClassProfile, canonical_input: bytes = b""
) -> ErrorVector:
    """Deterministic pseudo-drift for one device class.

    Each layer output element accumulates a signed 32-bit deviation per
    reshape, drawn from the drift-seed-keyed hash of (input, layer,
    reshape, index).  Summing across the reshape schedule mirrors how
    physical drift compounds when one computation is replayed under
    different batchings; the result is stable for the class and
    divergent across drift seeds.
    """
    entries = []
    for layer_idx, (rows, _cols) in enumerate(profile.layer_spec):
        for out_idx in range(rows):
            total = 0
            for reshape_idx in range(len(profile.reshape_schedule)):
                h = keyed_hash(
                    profile.drift_seed,
                    encode_fields(
                        "drift", canonical_input, layer_idx, reshape_idx, out_idx
                    ),
                )
                total += int.from_bytes(h[:4], "big") - (1 << 31)
            entries.append(total)
    return ErrorVector(entries=tuple(entries))


def fingerprint_digest(error_vector: ErrorVector) -> bytes:
    """R_GPU: unkeyed BLAKE2b-256 over the canonical error-vector bytes."""
    return hashlib.blake2b(error_vector.encode(), digest_size=32).digest()


def mask_chal_inplace(chal: ChalDataset, r_gpu: bytes) -> None:
    """XOR the dataset with its fingerprint-keyed ChaCha20 stream, in place.

    One ``core.keyed_xor_into`` of ``chal.data`` under the ``fpmask``
    domain, so masking allocates nothing of the dataset's size.  The
    mask forces a full linear pass over the dataset and is an
    involution: applying it twice restores the original bytes.
    """
    keyed_xor_into(chal.data, r_gpu, encode_fields("fpmask"))


def masked_chal_from_seed(
    seed: bytes, size_bytes: int, block_size_bytes: int, r_gpu: bytes
) -> ChalDataset:
    """Challenger-side reconstruction: regenerate from seed, then mask."""
    chal = init_chal(size_bytes, seed, block_size_bytes)
    mask_chal_inplace(chal, r_gpu)
    return chal


def verify_fingerprint(
    claimed_r_gpu: bytes, expected: DeviceClassProfile, canonical_input: bytes = b""
) -> bool:
    """Check a claimed fingerprint against the expected device class's profile."""
    reference = fingerprint_digest(device_error_vector(expected, canonical_input))
    return claimed_r_gpu == reference


def builtin_profiles() -> dict[str, DeviceClassProfile]:
    """Two ready-made simulated classes for demos and tests."""
    layers = ((64, 64), (64, 32), (32, 16))
    reshapes = (1, 8, 32)
    return {
        "sim-hopper": DeviceClassProfile(
            class_id="sim-hopper",
            drift_seed=bytes.fromhex(
                "9f2c1a7e55d0b83641c6e2a90d5f77183a64bb01c9d2e84f70125c3db6a9ee04"
            ),
            layer_spec=layers,
            reshape_schedule=reshapes,
        ),
        "sim-turing": DeviceClassProfile(
            class_id="sim-turing",
            drift_seed=bytes.fromhex(
                "417bd02c88f3a1e6b95d64023c7ea8f1905b3cd6ea42071f8c6db2e4a07f5613"
            ),
            layer_spec=layers,
            reshape_schedule=reshapes,
        ),
    }
