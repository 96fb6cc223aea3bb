"""Memory-hard proof of work.

Each attempt runs Argon2id over an incrementing nonce with the
challenge salt, then hashes the tag with SHA-256; a solution is a nonce
whose digest clears the difficulty target.  Attempts are geometric with
success probability 2**-d, so solve times are (discretely) exponential,
which is what the rate tests downstream assume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from cryptography.hazmat.primitives.kdf.argon2 import Argon2id

from .core import Challenge, PuzzleExhaustedError, digest_below_target, hash_bytes, issued_at_micros

NONCE_LEN = 8
MAX_ARGON_KIB = 1 << 20


@dataclass(frozen=True)
class PowParams:
    """Tunables for the Argon2id proof of work.

    difficulty: leading zero bits demanded of the final digest, in [0, 64].
    argon_memory_kib: memory cost per attempt; the knob that makes
        attempts expensive on machines without fast RAM.
    argon_memory_kib * argon_passes: at most MAX_ARGON_KIB, one GiB per attempt.
    """

    difficulty: int = 12
    argon_passes: int = 1
    argon_lanes: int = 1
    argon_memory_kib: int = 1024

    def __post_init__(self) -> None:
        if not 0 <= self.difficulty <= 64:
            raise ValueError("difficulty must lie in [0, 64]")
        if not (1 <= self.argon_passes < math.inf and 1 <= self.argon_lanes < math.inf):
            raise ValueError("argon passes and lanes must be at least 1 and finite")
        # Argon2id requires memory >= 8 * lanes KiB
        if not 8 * self.argon_lanes <= self.argon_memory_kib < math.inf:
            raise ValueError("argon memory must be finite and >= 8 KiB per lane")
        if self.argon_memory_kib * self.argon_passes > MAX_ARGON_KIB:
            raise ValueError(f"argon_memory_kib * argon_passes must be at most {MAX_ARGON_KIB}")

    @property
    def max_attempts(self) -> int:
        """Nonces a solve may try: 2^(d+8), 256x the expected effort, at most 2^62."""
        return 1 << min(self.difficulty + 8, 62)


@dataclass(frozen=True)
class PowSolution:
    nonce: int
    digest: bytes
    attempts: int


def pow_hash(
    salt: bytes, session_id: bytes, issued_at: float, nonce: int, params: PowParams
) -> bytes:
    """Digest for one nonce attempt: SHA-256 of the Argon2id tag.

    The session id enters as the Argon2id secret and the issue
    timestamp as associated data, so tags cannot be precomputed before
    the challenge exists or replayed across sessions.
    """
    kdf = Argon2id(
        salt=salt,
        length=32,
        iterations=params.argon_passes,
        lanes=params.argon_lanes,
        memory_cost=params.argon_memory_kib,
        secret=session_id,
        ad=issued_at_micros(issued_at).to_bytes(8, "big"),
    )
    tag = kdf.derive(nonce.to_bytes(NONCE_LEN, "big"))
    return hash_bytes(tag)


def solve_pow(challenge: Challenge, params: PowParams) -> PowSolution:
    """Scan nonces 0, 1, 2, ... until a digest clears the target.

    Raises PuzzleExhaustedError once ``params.max_attempts`` nonces have
    failed; an honest worker essentially never gets there.
    """
    for nonce in range(params.max_attempts):
        digest = pow_hash(
            challenge.salt, challenge.session_id, challenge.issued_at, nonce, params
        )
        if digest_below_target(digest, params.difficulty):
            return PowSolution(nonce=nonce, digest=digest, attempts=nonce + 1)
    raise PuzzleExhaustedError(f"no solution within {params.max_attempts} attempts")


def verify_pow(challenge: Challenge, solution: PowSolution, params: PowParams) -> bool:
    """Recompute the solution nonce's digest and check it against the target.

    Cost is a single Argon2id evaluation regardless of difficulty.
    """
    if solution.nonce < 0 or solution.nonce >= (1 << (8 * NONCE_LEN)):
        return False
    digest = pow_hash(
        challenge.salt, challenge.session_id, challenge.issued_at, solution.nonce, params
    )
    if digest != solution.digest:
        return False
    return digest_below_target(digest, params.difficulty)
