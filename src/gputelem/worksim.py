"""Simulated workers: real cryptographic answers, modeled latencies.

A simulated worker actually solves every challenge it receives (the
hashes, squarings and matrix products are genuine, so verification
exercises the real code paths), but the time it *reports into the
session* is drawn from a behavioral latency model: exponential solve
times for nonce searches, near-deterministic times for the squaring
chain, bandwidth-derived times for residency probes.  The worker waits
each drawn time out on its own clock, counted from when the request
arrived: an in-process worker's virtual clock jumps, which lets
thousand-session Monte-Carlo runs finish in seconds while producing the
same decisions a patient wall-clock run would, and a daemon's worker
sleeps on the wall clock for whatever of the time its real computation
left, so a challenger over TCP measures the modeled latency.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, replace

from .core import Challenge, Response, generate_salt
from .gemm import matrix_bytes, solve_gemm_puzzle
from .pow import solve_pow
from .protocol import MODES, bytes_field, params_for
from .residency import (
    BandwidthModel,
    ChalDataset,
    ResidencyProbeResult,
    init_chal,
    residency_probe,
)
from .vdf import solve_batch

_RESIDENCY_STATES = ("hot", "cold", "evict_after")


@dataclass(frozen=True)
class WorkerProfile:
    """Behavioral model of one worker.

    hash_rate_r is the whole worker's nonce-search attempt rate, every
    thread or device of it together; the three contention factors slow
    the scalar, tensor, and memory pathways independently (a co-resident
    workload rarely loads all three the same way).  residency_state is
    hot, cold, or evict_after, which alone takes an evict_after_round:
    the first round the dataset is gone.  network_t0_ns is a fixed
    latency added to every answer, whether it comes from the link or
    from shipping work elsewhere.
    """

    hash_rate_r: float = 1024.0
    contention_factor: float = 1.0
    tensor_contention: float = 1.0
    memory_contention: float = 1.0
    residency_state: str = "hot"
    evict_after_round: int | None = None
    network_t0_ns: int = 0
    squaring_rate: float = 1e6
    jitter_rel: float = 0.02
    vdf_capacity: int = 128

    def __post_init__(self) -> None:
        if not (0 < self.hash_rate_r < math.inf and 0 < self.squaring_rate < math.inf):
            raise ValueError("rates must be positive and finite")
        for factor in (
            self.contention_factor,
            self.tensor_contention,
            self.memory_contention,
        ):
            if not 1 <= factor < math.inf:
                raise ValueError("contention factors must be >= 1 and finite")
        if not 0 <= self.jitter_rel <= 0.2:
            raise ValueError("jitter_rel must lie in [0, 0.2]")
        if self.residency_state not in _RESIDENCY_STATES:
            raise ValueError(f"residency_state must be one of {_RESIDENCY_STATES}")
        evicts = self.residency_state == "evict_after"
        if evicts and not 1 <= (self.evict_after_round or 0) < math.inf:
            raise ValueError("evict_after state needs a finite evict_after_round >= 1")
        if not evicts and self.evict_after_round is not None:
            raise ValueError(f"{self.residency_state} state takes no evict_after_round")
        if not 0 <= self.network_t0_ns < math.inf:
            raise ValueError("network_t0_ns must be non-negative and finite")
        if not 1 <= self.vdf_capacity < math.inf:
            raise ValueError("vdf_capacity must be >= 1 and finite")


def _jitter_factor(profile: WorkerProfile, rng: random.Random) -> float:
    """Multiplicative Gaussian jitter, truncated at three sigma."""
    if profile.jitter_rel == 0:
        return 1.0
    g = rng.gauss(0.0, 1.0)
    while abs(g) > 3.0:
        g = rng.gauss(0.0, 1.0)
    return 1.0 + profile.jitter_rel * g


def _finalize(profile: WorkerProfile, core_s: float, rng: random.Random) -> float:
    """Apply jitter to the compute core, then add the network offset."""
    return core_s * _jitter_factor(profile, rng) + profile.network_t0_ns * 1e-9


def _search_time(
    profile: WorkerProfile, d: int, contention: float, rng: random.Random
) -> float:
    """Memoryless, like independent hashing: rate r * 2^-d / contention."""
    lam = profile.hash_rate_r * 2.0 ** (-d)
    lam /= contention
    return _finalize(profile, rng.expovariate(lam), rng)


def simulate_pow_time(profile: WorkerProfile, difficulty: int, rng: random.Random) -> float:
    """Draw one nonce-search solve time, slowed by scalar contention."""
    return _search_time(profile, difficulty, profile.contention_factor, rng)


def simulate_gemm_time(profile: WorkerProfile, difficulty: int, rng: random.Random) -> float:
    """Chained-product search time: same law as the nonce search, tensor path."""
    return _search_time(profile, difficulty, profile.tensor_contention, rng)


def occupancy(profile: WorkerProfile, c_instances: int) -> float:
    """Saturation factor: 1 below the parallel capacity, C/capacity above."""
    return max(1.0, c_instances / profile.vdf_capacity)


def simulate_vdf_time(
    profile: WorkerProfile, delay_t: int, c_instances: int, rng: random.Random
) -> float:
    """Squaring-chain wall time: deterministic core, narrow jitter.

    T/squaring_rate scaled by scalar contention and by occupancy once
    the instance count exceeds the parallel capacity.  The coefficient
    of variation is jitter_rel, far below the exponential law's 1.
    """
    if delay_t < 1:
        raise ValueError("delay must be >= 1")
    if c_instances < 1:
        raise ValueError("instance count must be >= 1")
    core = delay_t / profile.squaring_rate
    core *= profile.contention_factor * occupancy(profile, c_instances)
    return _finalize(profile, core, rng)


def residency_hot_at(profile: WorkerProfile, round_index: int) -> bool:
    """Ground truth for round ``round_index`` (0-based) under the profile."""
    if profile.residency_state == "hot":
        return True
    if profile.residency_state == "cold":
        return False
    return round_index < profile.evict_after_round


def simulate_residency_time(
    profile: WorkerProfile,
    s_touched: int,
    model: BandwidthModel,
    rng: random.Random,
    hot: bool = True,
) -> float:
    """Probe wall time under the bandwidth model.

    Hot: base latency plus a fast-memory scan (memory contention applies
    to the scan).  Cold: the same plus the full transfer of the touched
    bytes over the slow bus, which is the detectable gap.
    """
    if s_touched < 0:
        raise ValueError("touched bytes cannot be negative")
    core = model.base_latency_ns * 1e-9
    core += s_touched / model.hbm_bw * profile.memory_contention
    if not hot:
        core += s_touched / model.pci_bw
    return _finalize(profile, core, rng)


class VirtualClock:
    """Session clock that jumps instead of waiting."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep_until(self, deadline: float) -> None:
        if deadline > self._now:
            self._now = deadline


class WallClock:
    """Real-time clock with the same interface."""

    def now(self) -> float:
        return time.monotonic()

    def sleep_until(self, deadline: float) -> None:
        remaining = deadline - self.now()
        if remaining > 0:
            time.sleep(remaining)


class SimWorker:
    """In-process worker: solves challenges for real, reports modeled times.

    The handle has the worker interface that ``netcli.RemoteWorker``
    shares: clock, session_id, pre_challenge and answer.  ``clock`` is
    the one place a modeled duration becomes elapsed time: a
    ``VirtualClock`` (the default) jumps, a ``WallClock`` sleeps.  The
    challenger's ``SessionDriver.run_round`` times each round on it, so
    both sides share one timeline.  One handle serves one session at a
    time.
    """

    def __init__(
        self,
        profile: WorkerProfile,
        seed: int = 0,
        model: BandwidthModel | None = None,
        clock: VirtualClock | WallClock | None = None,
    ) -> None:
        self.profile = profile
        self.rng = random.Random(seed)
        self.clock = clock if clock is not None else VirtualClock()
        self.model = model if model is not None else BandwidthModel()
        self.session_id = generate_salt(self.rng)
        self.dataset: ChalDataset | None = None
        self._probe_round = 0

    def pre_challenge(self, record: dict) -> dict:
        """Session announcement; a residency session plants its dataset here.

        The ack's ``init_time_ns`` is the modeled planting time, already
        waited out; nothing in this package reads it.
        """
        kind = str(record["kind"])
        if kind not in MODES:
            raise ValueError(f"unknown kind {kind!r}")
        init_time_ns = 0
        if kind == "residency":
            res = record["residency"]
            duration = self.init_dataset(
                bytes_field(res["seed"]),
                int(res["size_bytes"]),
                int(res["block_size_bytes"]),
            )
            init_time_ns = int(duration * 1e9)
        return {
            "session_id": bytes_field(record["session_id"]),
            "status": "ok",
            "init_time_ns": init_time_ns,
        }

    def answer(self, challenge: Challenge) -> Response:
        """Solve one challenge; return once the modeled duration has passed.

        The duration counts from the call, so on a wall clock the real
        computation is part of it.  ``protocol.params_for`` types the
        params of every mode, so a challenge of an unknown mode, or one
        that names a param its mode lacks, is refused before any work.
        """
        started = self.clock.now()
        params = params_for(challenge.mode, challenge.params)
        handler = getattr(self, f"_answer_{challenge.mode}")
        payload, duration = handler(challenge, params)
        payload.setdefault(
            "kernel_time_ns", max(int(duration * 1e9) - self.profile.network_t0_ns, 0)
        )
        self.clock.sleep_until(started + duration)
        return Response(
            session_id=challenge.session_id,
            index=challenge.index,
            mode=challenge.mode,
            payload=payload,
            solve_time=duration,
        )

    # each handler returns its payload and the modeled duration; the
    # kernel time defaults to that duration less the network offset
    def _answer_pow(self, challenge: Challenge, params) -> tuple[dict, float]:
        solution = solve_pow(challenge, params)
        if solution is None:
            raise RuntimeError("solve cap exhausted on an honest worker")
        duration = simulate_pow_time(self.profile, params.difficulty, self.rng)
        return asdict(solution), duration

    def _answer_gemm(self, challenge: Challenge, params) -> tuple[dict, float]:
        proof = solve_gemm_puzzle(challenge.salt, params)
        duration = simulate_gemm_time(self.profile, params.difficulty_d, self.rng)
        payload = {
            "index_jstar": proof.index_jstar,
            "chain_state_sigma": proof.chain_state_sigma,
            "product_c": matrix_bytes(proof.product_C),
        }
        return payload, duration

    def _answer_vdf(self, challenge: Challenge, params) -> tuple[dict, float]:
        instances = params.derive_instances(challenge.salt)
        proofs = solve_batch(instances, params.modulus_n, challenge.salt)
        # concurrent instances finish with the slowest chain
        t_eff = max(inst.delay_T for inst in instances)
        duration = simulate_vdf_time(self.profile, t_eff, params.instances, self.rng)
        return {"proofs": [asdict(p) for p in proofs]}, duration

    def _answer_residency(self, challenge: Challenge, params) -> tuple[dict, float]:
        result = self.probe(challenge.salt)
        payload = {
            "response_digest": result.response_digest,
            "kernel_time_ns": int(result.kernel_time_s * 1e9),
        }
        return payload, result.timing.duration

    def init_dataset(
        self, seed: bytes, size_bytes: int, block_size_bytes: int
    ) -> float:
        """Pre-challenge: materialize the dataset; costs one bus transfer."""
        started = self.clock.now()
        self.dataset = init_chal(size_bytes, seed, block_size_bytes)
        self._probe_round = 0
        duration = _finalize(
            self.profile, size_bytes / self.model.pci_bw, self.rng
        )
        self.clock.sleep_until(started + duration)
        return duration

    def probe(
        self, nonce: bytes, argon_memory_kib: int | None = None
    ) -> ResidencyProbeResult:
        """One residency probe: a real digest and a modeled time.

        ``answer`` waits the modeled time out; ``probe`` alone does not.
        ``argon_memory_kib`` is accepted and ignored.
        """
        if self.dataset is None:
            raise RuntimeError("probe before init_dataset")
        hot = residency_hot_at(self.profile, self._probe_round)
        self._probe_round += 1
        real = residency_probe(self.dataset, nonce)
        duration = simulate_residency_time(
            self.profile, self.dataset.spec.size_bytes, self.model, self.rng, hot=hot
        )
        return replace(
            real,
            timing=replace(real.timing, duration=duration),
            kernel_time_s=self.dataset.spec.size_bytes / self.model.hbm_bw,
        )
