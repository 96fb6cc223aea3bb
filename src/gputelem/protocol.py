"""Challenge construction, response validation, and session driving.

This layer owns the record schemas that travel inside wire payloads and
the verification dispatch that turns a raw response into a valid/invalid
verdict.  Both the in-process fast path and the TCP daemons go through
the same builders and validators, so a decision reached against a
virtual-clock worker is reached by identical code against a live one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import vdf as vdf_mod
from .core import (
    Challenge,
    Response,
    encode_fields,
    generate_salt,
    hash_bytes,
    issued_at_micros,
)
from .gemm import GemmParams, GemmProof, matrix_bytes, verify_gemm_puzzle
from .pow import PowParams, PowSolution, verify_pow

MODES = ("pow", "vdf", "gemm", "residency")


class ProtocolError(ValueError):
    """Structurally invalid record content (missing fields, bad shapes)."""


def new_session_id(rng: random.Random) -> bytes:
    return generate_salt(rng)


def build_challenge(
    session_id: bytes,
    index: int,
    mode: str,
    rng: random.Random,
    issued_at: float,
    params: dict,
) -> Challenge:
    """Fresh-salt challenge for one round.

    The salt is the randomness that makes precomputation useless: every
    derived puzzle (nonce target, squaring generators, matrix chain)
    starts from it.
    """
    if mode not in MODES:
        raise ProtocolError(f"unknown mode {mode!r}")
    return Challenge(
        session_id=session_id,
        index=index,
        mode=mode,
        salt=generate_salt(rng),
        issued_at=issued_at,
        params=dict(params),
    )


def challenge_record(challenge: Challenge) -> dict:
    return {
        "session_id": challenge.session_id,
        "index": challenge.index,
        "mode": challenge.mode,
        "salt": challenge.salt,
        "issued_at_us": issued_at_micros(challenge.issued_at),
        "params": {k: v for k, v in sorted(challenge.params.items())},
    }


def parse_challenge(record: dict) -> Challenge:
    try:
        return Challenge(
            session_id=bytes(record["session_id"]),
            index=int(record["index"]),
            mode=str(record["mode"]),
            salt=bytes(record["salt"]),
            issued_at=int(record["issued_at_us"]) / 1e6,
            params=dict(record.get("params", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad challenge record: {exc}") from exc


def response_aggregate(mode: str, payload: dict) -> bytes:
    """Order-fixed digest of the solution material in a response.

    The worker sends it alongside the raw fields; the challenger
    recomputes it after parsing.  Any in-flight tampering with solution
    fields breaks the aggregate even before cryptographic verification
    runs.
    """
    if mode == "pow":
        return hash_bytes(
            encode_fields("pow-agg", payload["nonce"], payload["digest"])
        )
    if mode == "gemm":
        return hash_bytes(
            encode_fields(
                "gemm-agg",
                payload["index_jstar"],
                payload["chain_state_sigma"],
                matrix_bytes(payload["product_c"]),
            )
        )
    if mode == "vdf":
        parts: list[bytes | int | str] = ["vdf-agg"]
        for proof in payload["proofs"]:
            parts.extend(
                (proof["output_y"], proof["pi"], proof["remainder_r"])
            )
        return hash_bytes(encode_fields(*parts))
    if mode == "residency":
        return hash_bytes(encode_fields("residency-agg", payload["response_digest"]))
    raise ProtocolError(f"unknown mode {mode!r}")


def _matrix_from_bytes(data: bytes, n: int) -> np.ndarray:
    if len(data) != 8 * n * n:
        raise ProtocolError("matrix byte length does not match dimension")
    flat = np.frombuffer(data, dtype=">u8").astype(np.int64)
    return flat.reshape(n, n)


def response_record(response: Response) -> dict:
    """Wire form of a response; matrices flatten to canonical bytes."""
    payload = dict(response.payload)
    payload["aggregate"] = response_aggregate(response.mode, payload)
    if response.mode == "gemm":
        payload["product_c"] = matrix_bytes(payload["product_c"])
    return {
        "session_id": response.session_id,
        "index": response.index,
        "mode": response.mode,
        "solve_time_ns": int(response.solve_time * 1e9),
        "payload": payload,
    }


def parse_response(record: dict, dimension_n: int | None = None) -> Response:
    """Rebuild a Response from its record and check the aggregate.

    ``dimension_n`` is required for gemm responses so the matrix bytes
    can be shaped; the challenger takes it from its own challenge
    params, never from the worker.
    """
    try:
        mode = str(record["mode"])
        payload = dict(record["payload"])
        claimed_aggregate = payload.pop("aggregate")
        if mode == "gemm":
            if dimension_n is None:
                raise ProtocolError("gemm response needs dimension_n to parse")
            payload["product_c"] = _matrix_from_bytes(
                bytes(payload["product_c"]), dimension_n
            )
        response = Response(
            session_id=bytes(record["session_id"]),
            index=int(record["index"]),
            mode=mode,
            payload=payload,
            solve_time=int(record["solve_time_ns"]) / 1e9,
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad response record: {exc}") from exc
    expected = response_aggregate(mode, payload)
    if claimed_aggregate != expected:
        raise ProtocolError("response aggregate mismatch")
    return response


def validate_response(challenge: Challenge, response: Response) -> bool:
    """Cryptographic verification dispatch; False means a lying worker."""
    if not response.matches(challenge):
        return False
    try:
        if challenge.mode == "pow":
            return _validate_pow(challenge, response)
        if challenge.mode == "gemm":
            return _validate_gemm(challenge, response)
        if challenge.mode == "vdf":
            return _validate_vdf(challenge, response)
    except (KeyError, TypeError, ValueError):
        return False
    raise ProtocolError(f"no validator for mode {challenge.mode!r}")


def _validate_pow(challenge: Challenge, response: Response) -> bool:
    params = PowParams(
        difficulty=int(challenge.params["difficulty"]),
        argon_passes=int(challenge.params.get("argon_passes", 1)),
        argon_lanes=int(challenge.params.get("argon_lanes", 1)),
        argon_memory_kib=int(challenge.params.get("argon_memory_kib", 1024)),
    )
    solution = PowSolution(
        nonce=int(response.payload["nonce"]),
        digest=bytes(response.payload["digest"]),
        attempts=int(response.payload.get("attempts", 0)),
    )
    return verify_pow(challenge, solution, params)


def _validate_gemm(challenge: Challenge, response: Response) -> bool:
    params = GemmParams(
        dimension_n=int(challenge.params["dimension_n"]),
        difficulty_d=int(challenge.params["difficulty_d"]),
        freivalds_k=int(challenge.params.get("freivalds_k", 5)),
    )
    proof = GemmProof(
        index_jstar=int(response.payload["index_jstar"]),
        product_C=np.asarray(response.payload["product_c"], dtype=np.int64),
        chain_state_sigma=bytes(response.payload["chain_state_sigma"]),
    )
    # the prover knows (sid, digest), so the default proof-derived check
    # vectors could be ground against; draw them privately instead
    return verify_gemm_puzzle(challenge.salt, params, proof, rng=random.SystemRandom())


def _validate_vdf(challenge: Challenge, response: Response) -> bool:
    modulus_n = int(challenge.params["modulus_n"])
    t_min = int(challenge.params["t_min"])
    t_max = int(challenge.params["t_max"])
    count = int(challenge.params.get("instances", 1))
    raw = response.payload["proofs"]
    if len(raw) != count:
        return False
    instances = [
        vdf_mod.derive_instance(challenge.salt, i, modulus_n, t_min, t_max)
        for i in range(count)
    ]
    try:
        proofs = [
            vdf_mod.VdfProof(
                output_y=int(p["output_y"]),
                pi=int(p["pi"]),
                remainder_r=int(p["remainder_r"]),
                challenge_prime=int(p["challenge_prime"]),
            )
            for p in raw
        ]
    except ValueError:
        return False
    return vdf_mod.batch_verify(instances, proofs, modulus_n, challenge.salt)


@dataclass
class SessionDriver:
    """Round runner for continuous measurement against an in-process worker.

    Issues a fresh challenge each round, times the answer on the shared
    session clock, and validates the response.  The worker sees exactly
    what a networked worker would see; only the transport is elided.
    """

    worker: object
    mode: str
    params: dict
    rng: random.Random
    session_id: bytes = b""

    def __post_init__(self) -> None:
        if not self.session_id:
            self.session_id = new_session_id(self.rng)

    def now(self) -> float:
        return self.worker.now()

    def sleep_until(self, deadline: float) -> None:
        self.worker.sleep_until(deadline)

    def run_round(self, index: int, kind: str | None = None) -> tuple[float, bool]:
        mode = kind or self.mode
        challenge = build_challenge(
            self.session_id, index, mode, self.rng, self.now(), self.params
        )
        started = self.now()
        try:
            response = self.worker.answer(challenge)
        except Exception:
            return self.now() - started, False
        duration = self.now() - started
        return duration, validate_response(challenge, response)
