"""Challenge construction, response validation, and the session loop.

This layer owns the record schemas that travel inside wire payloads and
the modes: each is one row of ``_MODES``, a challenge params class,
which ``params_for`` types for challenger and worker alike, and a
validator, which turns a raw response into a valid/invalid verdict.  A
response record carries the solution and nothing that vouches for it:
host and device may both be untrusted, so a round is valid only if the
challenger's own recomputation accepts it.  A payload is the same in process and on the
wire (a gemm product is its canonical bytes), so records know no mode.
Every mode, residency included, runs through one session loop
(``run_session``) of one round (``SessionDriver.run_round``): wait out
the session's delay if it has one, issue a challenge, time the worker's
answer on the challenger's clock, validate the response, write one row.
The round alone reads that clock, the worker handle's ``clock``; the
loop only records rounds and decides.  The in-process fast path and
the TCP daemons share both, so a decision reached against a
virtual-clock worker is reached by identical code against a live one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from . import vdf as vdf_mod
from .core import (
    Challenge,
    Response,
    TimingSample,
    _parse_fields,
    generate_salt,
    hash_bytes,
    issued_at_micros,
)
from .gemm import GemmParams, GemmProof, matrix_from_bytes, verify_gemm_puzzle
from .pow import PowParams, PowSolution, verify_pow
from .residency import DatasetSpec, ResidencyParams, verify_probe
from .stattests import Decision, Verdict

class ProtocolError(ValueError):
    """Structurally invalid record content (missing fields, bad shapes)."""


class TransportError(RuntimeError):
    """Connection-level failure: refused, reset, truncated, or timed out.

    It ends the session: a round lost with its connection was not
    answered wrongly, so it cannot count toward a verdict.
    """


def params_for(mode: str, params: dict):
    """Typed settings of a ``mode`` challenge from its params dict.

    The one parser of challenge params, for challenger and worker alike.
    A key the dict omits takes its dataclass default, and a key that is
    not a field of the mode's params class is refused (ValueError): a
    challenge carries only params, and a config block that also holds
    session keys (``modulus_bits``) is split first.  Every mode has a
    class (residency's, ``ResidencyParams``, has no field), and an
    unknown mode is a ProtocolError.
    """
    if mode not in _MODES:
        raise ProtocolError(f"unknown mode {mode!r}")
    return _parse_fields(_MODES[mode][0], params, block=mode)


def bytes_field(value) -> bytes:
    """A byte-string record field as bytes; anything else is a ProtocolError.

    ``bytes()`` of a peer-sent integer would allocate that many zero
    bytes (or overflow), so integers and lists are refused here.
    """
    if not isinstance(value, (bytes, bytearray)):
        raise ProtocolError(f"expected bytes, got {type(value).__name__}")
    return bytes(value)


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
    """Wire form of a challenge; empty params are left out, as the codec
    refuses an empty mapping and ``parse_challenge`` defaults them."""
    record = {
        "session_id": challenge.session_id,
        "index": challenge.index,
        "mode": challenge.mode,
        "salt": challenge.salt,
        "issued_at_us": issued_at_micros(challenge.issued_at),
    }
    if challenge.params:
        record["params"] = dict(sorted(challenge.params.items()))
    return record


def parse_challenge(record: dict) -> Challenge:
    """A Challenge from its record; a malformed one, or an issue stamp outside
    [0, 2^51) us, where ``issued_at_micros`` is exact, is a ProtocolError."""
    try:
        issued_at_us = int(record["issued_at_us"])
        if not 0 <= issued_at_us < 1 << 51:
            raise ValueError("issued_at_us lies outside [0, 2^51)")
        return Challenge(
            session_id=bytes_field(record["session_id"]),
            index=int(record["index"]),
            mode=str(record["mode"]),
            salt=bytes_field(record["salt"]),
            issued_at=issued_at_us / 1e6,
            params=dict(record.get("params", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad challenge record: {exc}") from exc


def response_record(response: Response) -> dict:
    """Wire form of a response: the payload as the worker built it.

    The worker's own ``solve_time`` stays behind: the challenger times
    the round on its own clock.
    """
    return {
        "session_id": response.session_id,
        "index": response.index,
        "mode": response.mode,
        "payload": dict(response.payload),
    }


def parse_response(record: dict, dimension_n: int | None = None) -> Response:
    """Rebuild a Response from its record; a malformed one is a ProtocolError.

    Nothing here vouches for the payload, which ``validate_response``
    checks in full.  ``dimension_n`` is accepted and ignored.
    """
    try:
        return Response(
            session_id=bytes_field(record["session_id"]),
            index=int(record["index"]),
            mode=str(record["mode"]),
            payload=dict(record["payload"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad response record: {exc}") from exc


def validate_response(
    challenge: Challenge, response: Response, dataset: DatasetSpec | None = None
) -> bool:
    """Cryptographic verification dispatch; False means a lying worker.

    The mode's validator in ``_MODES`` judges the payload against the
    params ``params_for`` parsed once; an unknown mode is the
    challenger's bug, a ProtocolError.  A residency response is checked
    against ``dataset``, the seed and shape of what the worker was told
    to hold.  A ``kernel_time_ns`` report is never trusted, only
    recorded, so one that is not a non-negative int makes the round invalid.
    """
    if not response.matches(challenge):
        return False
    if challenge.mode not in _MODES:
        raise ProtocolError(f"no validator for mode {challenge.mode!r}")
    if challenge.mode == "residency" and dataset is None:
        raise ProtocolError("a residency response needs the dataset spec")
    kernel_ns = response.payload.get("kernel_time_ns", 0)
    if type(kernel_ns) is not int or kernel_ns < 0:
        return False
    try:
        params = params_for(challenge.mode, challenge.params)
        return _MODES[challenge.mode][1](challenge, params, response.payload, dataset)
    except (KeyError, TypeError, ValueError):
        return False


def _validate_pow(challenge: Challenge, params, payload: dict, dataset) -> bool:
    solution = PowSolution(
        nonce=int(payload["nonce"]),
        digest=bytes_field(payload["digest"]),
        attempts=int(payload.get("attempts", 0)),
    )
    return verify_pow(challenge, solution, params)


def _validate_gemm(challenge: Challenge, params, payload: dict, dataset) -> bool:
    proof = GemmProof(
        index_jstar=int(payload["index_jstar"]),
        product_C=matrix_from_bytes(bytes_field(payload["product_c"]), params.dimension_n),
        chain_state_sigma=bytes_field(payload["chain_state_sigma"]),
    )
    return verify_gemm_puzzle(challenge.salt, params, proof)


def _validate_vdf(challenge: Challenge, params, payload: dict, dataset) -> bool:
    raw = payload["proofs"]
    if len(raw) != params.instances:
        return False
    proofs = [
        vdf_mod.VdfProof(
            output_y=int(p["output_y"]),
            pi=int(p["pi"]),
            remainder_r=int(p["remainder_r"]),
            challenge_prime=int(p["challenge_prime"]),
        )
        for p in raw
    ]
    return vdf_mod.batch_verify(
        params.derive_instances(challenge.salt),
        proofs,
        params.modulus_n,
        challenge.salt,
    )


def _validate_residency(challenge: Challenge, params, payload: dict, dataset) -> bool:
    # spot-check columns drawn after the answer arrived, from a source the
    # worker cannot see (never the session rng, which it could replay)
    return verify_probe(
        dataset,
        challenge.salt,
        bytes_field(payload["response_digest"]),
        random.SystemRandom(),
    )


# each mode's challenge params class and its validator, (challenge, typed
# params, payload, dataset) -> valid; the keys are the modes
_MODES = {
    "pow": (PowParams, _validate_pow),
    "vdf": (vdf_mod.VdfParams, _validate_vdf),
    "gemm": (GemmParams, _validate_gemm),
    "residency": (ResidencyParams, _validate_residency),
}
MODES = tuple(_MODES)


class Round(NamedTuple):
    """One round on the challenger's clock; no response if the worker failed it."""

    duration: float
    valid: bool
    challenge: Challenge | None = None
    response: Response | None = None


@dataclass
class SessionDriver:
    """The round of every session, whatever the mode or transport.

    Issues a fresh challenge each round, times the worker's answer on
    the challenger's clock, and validates the response; a residency
    session carries the ``DatasetSpec`` it planted as ``dataset``.  The
    worker is any handle with ``clock`` and ``answer``, in process or
    over TCP, and ``run_round`` is the only challenger code that reads
    that clock.  ``wait``, if given, draws the seconds each round waits
    on it before its challenge is issued (residency's random schedule).
    """

    worker: object
    mode: str
    params: dict
    rng: random.Random
    session_id: bytes
    dataset: DatasetSpec | None = None
    wait: Callable[[], float] | None = None

    def run_round(self, index: int, kind: str | None = None) -> Round:
        clock = self.worker.clock
        if self.wait is not None:
            clock.sleep_until(clock.now() + self.wait())
        challenge = build_challenge(
            self.session_id, index, kind or self.mode, self.rng, clock.now(), self.params
        )
        started = clock.now()
        try:
            response = self.worker.answer(challenge)
        except TransportError:
            raise
        except Exception:  # a worker that fails a round has answered it wrongly
            return Round(clock.now() - started, False, challenge)
        duration = clock.now() - started
        valid = validate_response(challenge, response, self.dataset)
        return Round(duration, valid, challenge, response)


@dataclass
class SessionReport:
    """One session's rows and decision.  ``config`` holds the settings
    that ran, typed and with defaults filled in, in config-block form."""

    session_id: str
    kind: str
    decision: Decision
    rows: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return self.decision.accepted

    @property
    def invalid_count(self) -> int:
        return self.decision.invalid_count

    @property
    def exit_code(self) -> int:
        return 0 if self.overall_pass else 1

    def verdict_line(self) -> str:
        d = self.decision
        return (
            f"{self.kind}: {d.verdict.value} "
            f"(statistic={d.statistic:.6g}, threshold={d.threshold:.6g}, "
            f"alpha={d.alpha}, rounds={d.samples_used}, invalid={d.invalid_count})"
        )


def run_session(
    driver,
    rounds: int,
    kind: str,
    decide: Callable[[list[TimingSample]], Decision],
    classify: Callable[[TimingSample], str] | None = None,
    sink: Callable[[dict], None] | None = None,
) -> SessionReport:
    """The session loop of every mode: ``rounds`` rounds, then ``decide``.

    ``driver`` has ``session_id`` and ``run_round(index, kind)``,
    returning a ``Round`` or a bare ``(duration, valid)`` pair; the loop
    reads no clock.  Each round writes one row, handed to ``sink`` too:
    the salt's SHA-256, the challenger-clock ``total_ns``, the
    ``kernel_ns`` the worker reported on a valid round (else 0), the
    ``classify`` label (else empty) and ``valid``.  After ``decide``, any invalid round
    rejects the session, so a worker cannot drop its slow rounds.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    session_id = driver.session_id.hex()
    samples: list[TimingSample] = []
    rows: list[dict] = []
    for i in range(rounds):
        result = Round(*driver.run_round(i, kind))
        sample = TimingSample(index=i, mode=kind, duration=result.duration, valid=result.valid)
        samples.append(sample)
        challenge, response = result.challenge, result.response
        row = {
            "session_id": session_id,
            "round": i,
            "kind": kind,
            "salt_digest": hash_bytes(challenge.salt).hex() if challenge else "",
            "total_ns": int(result.duration * 1e9),
            "kernel_ns": response.payload.get("kernel_time_ns", 0) if result.valid and response else 0,
            "verdict": classify(sample) if classify else "",
            "valid": result.valid,
        }
        rows.append(row)
        if sink is not None:
            sink(row)
    decision = decide(samples)
    invalid = sum(not s.valid for s in samples)
    if invalid:
        decision = replace(decision, verdict=Verdict.REJECT, invalid_count=invalid)
    return SessionReport(session_id, kind, decision, rows)
