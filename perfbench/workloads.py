"""The benchmark's workloads, their set-up and their correctness gate.

All workloads are closed loops with a single client: the next operation
starts when the previous one has finished, so at most one session and
one connection are open at a time.  Inputs come from the workload seed;
the library only ever sees the generated challenges, profiles and
configs.

* ``local-mix``: whole sessions through ``netcli.run_local_session`` on a
  virtual clock, in a fixed rotation of honest and slow pow, vdf, gemm,
  and hot and cold residency; the cheap pow sessions come twice as
  often so that every mode gets a similar number of samples.  The prover (``worksim``) and the
  verifier (``protocol``, ``residency``) do all the work; ``wire`` none.
* ``tcp-mix``: whole sessions through ``netcli.run_challenger`` against a
  ``worker serve`` child process whose profile makes latency shaping a
  no-op.  Pow sessions dominate, with cheap puzzles, so framing, record
  coding and the decision loop dominate; one small session of each
  other mode per cycle keeps every mode on the TCP path.
* ``verify-only``: the challenger side alone.  Each honest response is
  verified exactly once, so a result cache cannot fake a gain; tampered
  copies are mixed in and must be rejected.
"""

from __future__ import annotations

import hashlib
import os
import random
import socket
import subprocess
import sys
import time
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from gputelem import core, netcli, protocol, residency, vdf, wire
from gputelem.stattests import Verdict, continuous_measurement
from gputelem.worksim import SimWorker, WorkerProfile

from layers import FAST_PROFILE, MODES, Tracer, TracedDriver, TracedWorker, challenge_params

WORKLOADS = ("local-mix", "tcp-mix", "verify-only")

# Session shapes.  Honest workers run at 4x lambda_min and deviant ones
# at 0.25x, so every expected verdict holds with certainty under the
# mean rule; the sizes keep each session short enough that a run holds
# many of them, which is what keeps the medians steady across seeds.
# ``setup_repeats`` is how many set-ups the reported median is taken
# over (see timed_set_up).
SIZES = {
    "local-mix": {
        "lambda_min": 1.0,
        "rounds": {"pow": 64, "vdf": 10, "gemm": 6, "residency": 3},
        "pow": {"difficulty": 2, "argon_passes": 1, "argon_lanes": 1, "argon_memory_kib": 256},
        "vdf": {"t_min": 1024, "t_max": 4096, "instances": 4},
        # d = 0: one product per round, so a session's work does not vary
        # with the seed; the search itself is exercised by pow
        "gemm": {"dimension_n": 64, "difficulty_d": 0, "freivalds_k": 5},
        # 4 MiB: above the per-core L2, well inside L3
        "residency": {"dataset_mib": 4, "block_kib": 256, "argon_memory_kib": 64, "t_max_s": 1.0},
        "modulus_bits": 512,
        "setup_repeats": 7,
    },
    "tcp-mix": {
        "lambda_min": 10.0,
        "rounds": {"pow": 50, "vdf": 10, "gemm": 10, "residency": 4},
        "pow": {"difficulty": 1, "argon_passes": 1, "argon_lanes": 1, "argon_memory_kib": 8},
        "vdf": {"t_min": 64, "t_max": 256, "instances": 2},
        "gemm": {"dimension_n": 16, "difficulty_d": 0, "freivalds_k": 5},
        # wall-clock rounds over loopback are far above the modeled hot
        # time, so the threshold is set to accept any answer within 1 s
        "residency": {
            "dataset_mib": 1, "block_kib": 256, "argon_memory_kib": 8,
            "t_max_s": 0.001, "threshold_ns": 10**9,
        },
        "modulus_bits": 512,
        "setup_repeats": 5,
    },
    "verify-only": {
        "lambda_min": 1.0,
        "rounds": {"pow": 20, "vdf": 20, "gemm": 20, "residency": 10},
        # the verifier's cost does not depend on the difficulty
        "pow": {"difficulty": 0, "argon_passes": 1, "argon_lanes": 1, "argon_memory_kib": 256},
        "vdf": {"t_min": 1024, "t_max": 4096, "instances": 4},
        "gemm": {"dimension_n": 64, "difficulty_d": 0, "freivalds_k": 5},
        "residency": {"dataset_mib": 4, "block_kib": 256, "argon_memory_kib": 64, "t_max_s": 1.0},
        "modulus_bits": 512,
        "setup_repeats": 5,
    },
}

# (mode, worker behaviour, expected verdict) in rotation order.
ROTATIONS = {
    "local-mix": (
        ("pow", "honest", Verdict.ACCEPT),
        ("vdf", "honest", Verdict.ACCEPT),
        ("pow", "slow", Verdict.REJECT),
        ("gemm", "honest", Verdict.ACCEPT),
        ("residency", "hot", Verdict.ACCEPT),
        ("pow", "honest", Verdict.ACCEPT),
        ("vdf", "honest", Verdict.ACCEPT),
        ("pow", "slow", Verdict.REJECT),
        ("gemm", "honest", Verdict.ACCEPT),
        ("residency", "cold", Verdict.REJECT),
    ),
    "tcp-mix": (
        *(("pow", "honest", Verdict.ACCEPT),) * 4,
        ("vdf", "honest", Verdict.ACCEPT),
        ("gemm", "honest", Verdict.ACCEPT),
        ("residency", "hot", Verdict.ACCEPT),
    ),
}

# Fields a lying worker may change that the verifier checks
# deterministically (never the Freivalds product, which it samples).
TAMPER_FIELDS = {
    "pow": ("nonce", "digest"),
    "vdf": ("output_y", "remainder_r", "challenge_prime"),
    "gemm": ("chain_state_sigma", "index_jstar"),
}


@dataclass
class Op:
    """One measured operation: a session, or the verification of one response."""

    mode: str
    label: str
    seconds: float
    rounds: int
    failed: int
    verdict_error: bool = False
    timed: bool = True  # counts toward the end-to-end metrics
    round_ms: tuple = ()
    traced_seconds: float | None = None
    speed: float = 1.0  # HostSpeed.factor() when the operation ran


# --- host speed ---------------------------------------------------------------

_REFERENCE_MODULUS = (1 << 511) + 187  # any odd 512-bit number


def _reference_mix() -> None:
    """A fixed mix of the kinds of work the probes do, in no gputelem code:
    memory-hard hashing, hashing in a Python loop, a keyed stream,
    big-integer squaring and interpreter-bound record handling."""
    hashlib.scrypt(b"reference", salt=bytes(16), n=256, r=8, p=1)  # 256 KiB
    base = hashlib.sha256(b"reference")
    for i in range(1000):
        h = base.copy()
        h.update(i.to_bytes(8, "big"))
        int.from_bytes(h.digest(), "big") % 2305843009213693951
    stream = hashlib.blake2b(digest_size=64, key=b"reference")
    out = bytearray()
    for i in range(1024):
        h = stream.copy()
        h.update(i.to_bytes(8, "big"))
        out += h.digest()
    y = 3
    for _ in range(1000):
        y = y * y % _REFERENCE_MODULUS
    parsed = {}
    for line in sorted(f"k{i}.v=i:{i * 7919}" for i in range(1000)):
        path, _, rest = line.partition("=")
        parsed[path] = int(rest[2:])


class HostSpeed:
    """A reference mix, timed between operations, that rescales wall times.

    The 2-vCPU Xeon VM this benchmark was defined on switches between a
    slow and a fast state for seconds to minutes at a time; in the fast
    state the same code runs up to 1.9x quicker, so raw wall-time medians
    of two runs differ by more than any useful bound.  Every end-to-end
    time is therefore rescaled to the nominal host speed: multiplied by
    NOMINAL_MS over the recent time of the reference mix.  The mix uses
    only the standard library, never gputelem code, so a faster program
    still reads faster.  Raw wall times are printed next to the rescaled
    ones.
    """

    NOMINAL_MS = 7.0  # the mix's time in that VM's slow state
    INTERVAL_S = 0.25

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._sampled_at = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the mix, at most every INTERVAL_S unless forced."""
        if not force and time.perf_counter() - self._sampled_at < self.INTERVAL_S:
            return
        started = time.perf_counter()
        _reference_mix()
        self._sampled_at = time.perf_counter()
        self.readings.append((self._sampled_at - started) * 1e3)

    def factor(self) -> float:
        """NOMINAL_MS over the median of the last three readings."""
        return self.NOMINAL_MS / statistics.median(self.readings[-3:])


# --- the worker daemon --------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class WorkerProcess:
    """A ``worker serve`` child on a loopback port found by binding port 0.

    ``close()`` terminates the child and waits for it; callers use it in
    ``finally`` so the child ends on every exit path.
    """

    def __init__(self, root: Path, work_dir: Path, seed: int, attempts: int = 3) -> None:
        profile = work_dir / "worker-profile.yaml"
        profile.write_text(
            "profile:\n  hash_rate_r: 1.0e+12\n  squaring_rate: 1.0e+12\n", encoding="utf-8"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        for _ in range(attempts):
            self.address = ("127.0.0.1", _free_port())
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "gputelem.cli", "worker", "serve",
                    "--listen", f"{self.address[0]}:{self.address[1]}",
                    "--profile", str(profile), "--seed", str(seed),
                ],
                cwd=root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                if self._wait_ready(timeout_s=30.0):
                    return
            except BaseException:
                self.close()
                raise
            self.close()  # the port was taken before the child bound it
        raise RuntimeError("worker serve did not start listening")

    def _wait_ready(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                with socket.create_connection(self.address, timeout=1.0):
                    return True
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("worker serve did not start within the deadline")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# --- set-up -------------------------------------------------------------------


@dataclass
class State:
    """Everything a workload builds before it measures."""

    name: str
    sizes: dict
    modulus_n: int
    daemon: WorkerProcess | None = None
    dataset: residency.ChalDataset | None = None
    worker: SimWorker | None = None

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


def set_up(name: str, sizes: dict, seed: str, root: Path, work_dir: Path) -> State:
    """Build the workload's state from ``seed``: the VDF modulus, and the
    worker daemon (tcp-mix) or both copies of the residency dataset
    (verify-only)."""
    rng = random.Random(f"setup:{seed}")
    state = State(name, sizes, vdf.setup_group(sizes["modulus_bits"], rng).modulus_N)
    try:
        if name == "tcp-mix":
            state.daemon = WorkerProcess(root, work_dir, rng.randrange(1 << 31))
        elif name == "verify-only":
            res = sizes["residency"]
            size, block = res["dataset_mib"] << 20, res["block_kib"] << 10
            dataset_seed = core.generate_salt(rng)
            state.dataset = residency.init_chal(size, dataset_seed, block)
            state.worker = SimWorker(FAST_PROFILE, seed=rng.randrange(1 << 62))
            state.worker.init_dataset(dataset_seed, size, block)
    except BaseException:
        state.close()
        raise
    return state


def timed_set_up(
    name: str, sizes: dict, seed: int, root: Path, work_dir: Path, host: HostSpeed
) -> tuple[State, list[tuple[float, float]]]:
    """Set up ``setup_repeats`` times and keep the last state.

    The earlier set-ups use a fixed panel of seeds, the same in every run,
    and the last one the workload seed, whose state is kept.  The seeded
    safe-prime search varies several-fold between seeds, so the median
    over the panel is what makes set-up times comparable across runs.
    Returns the state and (wall seconds, host-speed factor) per set-up.
    """
    times: list[tuple[float, float]] = []
    state = None
    repeats = sizes["setup_repeats"]
    for rep in range(repeats):
        if state is not None:
            state.close()
        host.sample(force=True)
        started = time.perf_counter()
        state = set_up(name, sizes, f"{seed}" if rep == repeats - 1 else f"panel.{rep}", root, work_dir)
        times.append((time.perf_counter() - started, host.factor()))
    return state, times


# --- sessions -----------------------------------------------------------------


def _profile(sizes: dict, mode: str, behaviour: str) -> WorkerProfile:
    if mode == "residency":
        return WorkerProfile(residency_state=behaviour)
    bits = {"pow": sizes["pow"]["difficulty"], "gemm": sizes["gemm"]["difficulty_d"]}.get(mode, 0)
    share = 4.0 if behaviour == "honest" else 0.25
    return WorkerProfile(hash_rate_r=share * sizes["lambda_min"] * 2.0**bits)


def session_config(state: State, mode: str, seed: int) -> dict:
    """The config a challenger passes for one session of ``mode``."""
    sizes = state.sizes
    config = {
        "kind": mode,
        "seed": seed,
        "rounds": sizes["rounds"][mode],
        "lambda_min": sizes["lambda_min"],
    }
    if mode == "residency":
        config["residency"] = dict(sizes["residency"], rounds=sizes["rounds"]["residency"])
    else:
        config[mode] = challenge_params(sizes, mode, state.modulus_n)
    if state.daemon is not None:
        host, port = state.daemon.address
        config["worker"] = f"{host}:{port}"
    return config


def _untraced_session(state: State, mode: str, behaviour: str, seed: int):
    config = session_config(state, mode, seed)
    if state.daemon is not None:
        return netcli.run_challenger(config)
    return netcli.run_local_session(mode, _profile(state.sizes, mode, behaviour), config, seed=seed)


def _traced_session(state: State, mode: str, behaviour: str, seed: int, tracer: Tracer):
    """The same session as ``_untraced_session``, assembled from the public
    pieces so proxies can sit around the worker handle and the driver.

    Mirrors the random draws of ``run_local_session`` and
    ``run_challenger`` so both see the same challenges.
    """
    config = session_config(state, mode, seed)
    rng = random.Random(seed)
    if state.daemon is not None:
        with tracer.span("netcli.RemoteWorker"):
            inner = netcli.RemoteWorker(state.daemon.address)
    else:
        inner = SimWorker(_profile(state.sizes, mode, behaviour), seed=rng.randrange(1 << 62))
    worker = TracedWorker(inner, tracer)
    try:
        session_id = protocol.new_session_id(rng)
        rows: list[dict] = []
        if mode == "residency":
            res = config["residency"]
            worker.session_id = session_id
            with tracer.span("residency.run_residency_session"):
                report = residency.run_residency_session(
                    worker,
                    rounds=res["rounds"],
                    t_max_s=float(res["t_max_s"]),
                    dataset_bytes=res["dataset_mib"] << 20,
                    block_size_bytes=res["block_kib"] << 10,
                    model=residency.BandwidthModel(),
                    threshold_ns=res.get("threshold_ns"),
                    argon_memory_kib=res["argon_memory_kib"],
                    rng=rng,
                    sink=rows.append,
                )
            verdict = Verdict.ACCEPT if report.overall_pass else Verdict.REJECT
            return verdict, rows
        params = config[mode]
        if state.daemon is not None:
            worker.pre_challenge({"session_id": session_id, "kind": mode, "params": params})
        worker.session_id = session_id
        driver = TracedDriver(
            protocol.SessionDriver(
                worker=worker, mode=mode, params=params, rng=rng, session_id=session_id
            ),
            tracer,
        )
        with tracer.span("stattests.continuous_measurement"):
            decision = continuous_measurement(
                driver, n=config["rounds"], lambda_min=config["lambda_min"],
                kind=mode, sink=rows.append,
            )
        return decision.verdict, rows
    finally:
        if state.daemon is not None:
            inner.close()


def _round_ms(rows: list[dict]) -> tuple:
    return tuple(row.get("total_time_ns", row.get("total_ns", 0)) / 1e6 for row in rows)


def session_op(state: State, spec: tuple, seed: int, tracer: Tracer | None) -> Op:
    """Run one session (and, when tracing, its traced twin) and check it."""
    mode, behaviour, expected = spec
    rounds = state.sizes["rounds"][mode]
    label = f"{mode}-{behaviour}"
    try:
        started = time.perf_counter()
        report = _untraced_session(state, mode, behaviour, seed)
        seconds = time.perf_counter() - started
        verdict = report.decision.verdict if report.decision else None
        rows = report.rows
        traced_seconds = None
        if tracer is not None:
            tracer.session = f"{label}:{seed}"
            with tracer.span("bench.session") as span:
                traced_verdict, traced_rows = _traced_session(state, mode, behaviour, seed, tracer)
            tracer.session = None
            traced_seconds = (span["end_ns"] - span["start_ns"]) / 1e9
            if traced_verdict != verdict:
                verdict = None
            rows = rows + traced_rows
    except Exception:  # a failed session is a measured outcome, not a crash
        traceback.print_exc(file=sys.stderr)
        return Op(mode, label, 0.0, rounds, rounds, verdict_error=True, timed=False)
    failed = sum(1 for row in rows if not row["valid"]) + max(rounds - len(report.rows), 0)
    return Op(
        mode, label, seconds, rounds, failed,
        verdict_error=verdict is not expected,
        round_ms=_round_ms(report.rows) if state.daemon is not None else (),
        traced_seconds=traced_seconds,
    )


# --- verification only ----------------------------------------------------------


def flip_byte(value: bytes) -> bytes:
    return bytes([value[0] ^ 0x01]) + value[1:]


def tamper(response: core.Response, field: str) -> core.Response:
    """A copy of ``response`` with one checked field changed, as a lying
    worker would send it; ``response_record`` re-aggregates it."""
    payload = dict(response.payload)
    if field in ("digest", "chain_state_sigma"):
        payload[field] = flip_byte(payload[field])
    elif field in ("nonce", "index_jstar"):
        payload[field] += 1
    else:  # vdf proof fields
        proofs = [dict(p) for p in payload["proofs"]]
        proof = proofs[0]
        if field == "remainder_r":
            proof[field] = (proof[field] + 1) % proof["challenge_prime"]
        else:
            proof[field] += 2
        payload["proofs"] = proofs
    return replace(response, payload=payload)


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _verify_response(challenge: core.Challenge, blob: bytes, tracer: Tracer | None) -> bool:
    """Challenger side of one round: decode, parse and validate the bytes received."""
    try:
        with _span(tracer, "wire.decode_record"):
            record = wire.decode_record(blob)
        with _span(tracer, "protocol.parse_response"):
            response = protocol.parse_response(record, dimension_n=challenge.params.get("dimension_n"))
        with _span(tracer, "protocol.validate_response"):
            return protocol.validate_response(challenge, response)
    except (protocol.ProtocolError, wire.WireDecodeError):
        return False


def _verify_digest(state: State, nonce: bytes, digest: bytes, tracer: Tracer | None) -> bool:
    """Challenger side of one residency round: recompute the probe and compare."""
    argon = state.sizes["residency"]["argon_memory_kib"]
    with _span(tracer, "residency.residency_probe"):
        expected = residency.residency_probe(state.dataset, nonce, argon_memory_kib=argon)
    return expected.response_digest == digest


def _timed_check(check, tracer: Tracer | None, label: str) -> tuple[set, float, float | None]:
    """Run ``check`` untimed-by-spans, then (when tracing) again under a span.

    Returns the set of results seen, so a traced run that disagrees with
    the untraced one shows up as two results.
    """
    started = time.perf_counter()
    results = {check(None)}
    seconds = time.perf_counter() - started
    traced_seconds = None
    if tracer is not None:
        tracer.session = label
        with tracer.span("bench.verify") as span:
            results.add(check(tracer))
        tracer.session = None
        traced_seconds = (span["end_ns"] - span["start_ns"]) / 1e9
    return results, seconds, traced_seconds


def verify_cycle(state: State, index: int, rng: random.Random, session_id: bytes, tracer: Tracer | None) -> list[Op]:
    """Draw one challenge per mode, answer it honestly, and verify it once;
    one mode per cycle (in rotation) also gets a tampered copy."""
    ops = []
    tampered_mode = MODES[index % len(MODES)]
    for mode in MODES:
        if mode == "residency":
            nonce = core.generate_salt(rng)
            honest = state.worker.probe(
                nonce, argon_memory_kib=state.sizes["residency"]["argon_memory_kib"]
            ).response_digest
            checks = [("honest", partial(_verify_digest, state, nonce, honest))]
            if mode == tampered_mode:
                checks.append(("tampered", partial(_verify_digest, state, nonce, flip_byte(honest))))
        else:
            challenge = protocol.build_challenge(
                session_id, index, mode, rng, float(index),
                challenge_params(state.sizes, mode, state.modulus_n),
            )
            response = state.worker.answer(challenge)
            responses = [("honest", response)]
            if mode == tampered_mode:
                responses.append(("tampered", tamper(response, rng.choice(TAMPER_FIELDS[mode]))))
            checks = [
                (label, partial(_verify_response, challenge,
                                wire.encode_record(protocol.response_record(r))))
                for label, r in responses
            ]
        for label, check in checks:
            expect_valid = label == "honest"
            try:
                results, seconds, traced = _timed_check(check, tracer, f"{mode}-{label}:{index}")
            except Exception:  # a verifier that raises fails the operation
                traceback.print_exc(file=sys.stderr)
                ops.append(Op(mode, f"{mode}-{label}", 0.0, 1, 1, timed=False))
                continue
            ops.append(Op(
                mode, f"{mode}-{label}", seconds, 1, int(results != {expect_valid}),
                timed=expect_valid, traced_seconds=traced,
            ))
    return ops


# --- the measured loop ----------------------------------------------------------


def measure(state: State, seed: int, seconds: float, tracer: Tracer | None, host: HostSpeed) -> list[Op]:
    """Run the workload's operations back to back for ``seconds``.

    At least one full rotation (or verification cycle) always runs.  The
    host-speed loops run between operations, outside their timing.
    """
    rng = random.Random(f"measure:{seed}")
    deadline = time.perf_counter() + seconds
    ops: list[Op] = []
    if state.name == "verify-only":
        session_id = protocol.new_session_id(rng)
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            host.sample()
            cycle = verify_cycle(state, index, rng, session_id, tracer)
            for op in cycle:
                op.speed = host.factor()
            ops.extend(cycle)
            index += 1
        return ops
    rotation = ROTATIONS[state.name]
    index = 0
    while index < len(rotation) or time.perf_counter() < deadline:
        spec = rotation[index % len(rotation)]
        host.sample()
        op = session_op(state, spec, rng.randrange(1 << 62), tracer)
        op.speed = host.factor()
        ops.append(op)
        index += 1
    return ops
