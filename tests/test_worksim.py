"""Simulated-worker tests: latency laws, clocks, and real answers.

The law tests check distributional facts (means, coefficients of
variation, exact offsets) with seeds and bands wide enough to never
flake; the answer tests feed SimWorker genuine challenges and verify
the cryptographic content with the same verifiers a challenger uses.
"""

import random
import time
import tracemalloc

import pytest

from gputelem import vdf, worksim
from gputelem.core import Challenge
from gputelem.gemm import GemmParams, GemmProof, matrix_from_bytes, verify_gemm_puzzle
from gputelem.pow import PowParams, PowSolution, verify_pow
from gputelem.residency import BandwidthModel
from gputelem.worksim import SimWorker, VirtualClock, WallClock, WorkerProfile


def _mean(xs):
    return sum(xs) / len(xs)


def _cv(xs):
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return var**0.5 / m


# --- profile validation ---------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkerProfile(hash_rate_r=0)
    with pytest.raises(ValueError):
        WorkerProfile(contention_factor=0.5)
    with pytest.raises(ValueError):
        WorkerProfile(jitter_rel=0.3)
    with pytest.raises(ValueError):
        WorkerProfile(residency_state="warm")
    with pytest.raises(ValueError):
        WorkerProfile(residency_state="evict_after")  # missing round
    with pytest.raises(ValueError, match=">= 1"):
        WorkerProfile(residency_state="evict_after", evict_after_round=-3)  # read as cold
    for state in ("hot", "cold"):  # a round that the state would ignore
        with pytest.raises(ValueError, match="evict_after_round"):
            WorkerProfile(residency_state=state, evict_after_round=2)
    assert WorkerProfile(residency_state="cold", evict_after_round=None).evict_after_round is None
    with pytest.raises(ValueError):
        WorkerProfile(network_t0_ns=-1)
    with pytest.raises(ValueError):
        WorkerProfile(vdf_capacity=0)


# --- latency laws ------------------------------------------------------------------


def test_pow_time_mean_tracks_rate_and_difficulty():
    profile = WorkerProfile(hash_rate_r=1024.0, jitter_rel=0.0)
    rng = random.Random(7)
    draws = [worksim.simulate_pow_time(profile, 6, rng) for _ in range(4000)]
    expected = 2.0**6 / 1024.0  # 62.5 ms
    assert expected * 0.90 <= _mean(draws) <= expected * 1.10
    assert 0.90 <= _cv(draws) <= 1.10  # exponential: CV = 1


def test_pow_time_contention_scales_the_mean():
    base = WorkerProfile(hash_rate_r=1024.0, jitter_rel=0.0)
    slowed = WorkerProfile(hash_rate_r=1024.0, jitter_rel=0.0, contention_factor=4.0)
    rng_a, rng_b = random.Random(8), random.Random(8)
    a = _mean([worksim.simulate_pow_time(base, 4, rng_a) for _ in range(4000)])
    b = _mean([worksim.simulate_pow_time(slowed, 4, rng_b) for _ in range(4000)])
    assert 3.6 <= b / a <= 4.4


def test_gemm_time_uses_tensor_contention_not_scalar():
    scalar = WorkerProfile(jitter_rel=0.0, contention_factor=8.0)
    tensor = WorkerProfile(jitter_rel=0.0, tensor_contention=8.0)
    rng_a, rng_b = random.Random(9), random.Random(9)
    a = _mean([worksim.simulate_gemm_time(scalar, 4, rng_a) for _ in range(3000)])
    b = _mean([worksim.simulate_gemm_time(tensor, 4, rng_b) for _ in range(3000)])
    # scalar contention must not touch the tensor path
    assert b / a > 6.0


def test_network_offset_adds_to_every_draw():
    profile = WorkerProfile(jitter_rel=0.0, network_t0_ns=50_000_000)
    rng = random.Random(10)
    draws = [worksim.simulate_pow_time(profile, 2, rng) for _ in range(500)]
    assert min(draws) > 0.050


def test_vdf_time_is_deterministic_without_jitter():
    profile = WorkerProfile(squaring_rate=1e6, jitter_rel=0.0, vdf_capacity=16)
    rng = random.Random(12)
    assert worksim.simulate_vdf_time(profile, 2**20, 1, rng) == 2**20 / 1e6
    # below capacity: no occupancy penalty
    assert worksim.simulate_vdf_time(profile, 2**20, 16, rng) == 2**20 / 1e6
    # above capacity: time scales with C / capacity
    assert worksim.simulate_vdf_time(profile, 2**20, 32, rng) == 2 * 2**20 / 1e6


def test_vdf_time_jitter_is_narrow():
    profile = WorkerProfile(squaring_rate=1e6, jitter_rel=0.02)
    rng = random.Random(13)
    draws = [worksim.simulate_vdf_time(profile, 2**18, 1, rng) for _ in range(2000)]
    assert _cv(draws) < 0.03  # nothing like the exponential's CV = 1


def test_vdf_time_validation():
    profile = WorkerProfile()
    with pytest.raises(ValueError):
        worksim.simulate_vdf_time(profile, 0, 1, random.Random(0))
    with pytest.raises(ValueError):
        worksim.simulate_vdf_time(profile, 10, 0, random.Random(0))


def test_occupancy_knee():
    profile = WorkerProfile(vdf_capacity=16)
    assert worksim.occupancy(profile, 1) == 1.0
    assert worksim.occupancy(profile, 16) == 1.0
    assert worksim.occupancy(profile, 24) == 1.5
    assert worksim.occupancy(profile, 64) == 4.0


def test_residency_cold_minus_hot_is_exactly_the_bus_transfer():
    profile = WorkerProfile(jitter_rel=0.0)
    model = BandwidthModel(hbm_bw=100e9, pci_bw=10e9, base_latency_ns=50_000)
    rng = random.Random(14)
    size = 64 << 20
    hot = worksim.simulate_residency_time(profile, size, model, rng, hot=True)
    cold = worksim.simulate_residency_time(profile, size, model, rng, hot=False)
    assert cold - hot == pytest.approx(size / model.pci_bw, rel=1e-12)


def test_residency_memory_contention_touches_scan_only():
    model = BandwidthModel()
    loaded = WorkerProfile(jitter_rel=0.0, memory_contention=3.0)
    plain = WorkerProfile(jitter_rel=0.0)
    rng = random.Random(15)
    size = 128 << 20
    slow = worksim.simulate_residency_time(loaded, size, model, rng, hot=True)
    fast = worksim.simulate_residency_time(plain, size, model, rng, hot=True)
    assert slow - fast == pytest.approx(2 * size / model.hbm_bw, rel=1e-9)


def test_residency_hot_at_ground_truth():
    assert worksim.residency_hot_at(WorkerProfile(residency_state="hot"), 999)
    assert not worksim.residency_hot_at(WorkerProfile(residency_state="cold"), 0)
    evict = WorkerProfile(residency_state="evict_after", evict_after_round=3)
    assert [worksim.residency_hot_at(evict, i) for i in range(5)] == [
        True, True, True, False, False,
    ]


def test_jitter_draws_stay_within_three_sigma():
    profile = WorkerProfile(jitter_rel=0.2)  # the maximum allowed
    rng = random.Random(16)
    factors = [worksim._jitter_factor(profile, rng) for _ in range(20_000)]
    assert all(0.4 <= f <= 1.6 for f in factors)  # 1 +/- 3 * 0.2
    assert 0.99 <= _mean(factors) <= 1.01


# --- clocks -------------------------------------------------------------------------


def test_virtual_clock_jumps():
    clock = VirtualClock(start=5.0)
    assert clock.now() == 5.0
    clock.sleep_until(clock.now() + 2.5)
    assert clock.now() == 7.5
    clock.sleep_until(7.0)  # never goes backwards
    assert clock.now() == 7.5
    clock.sleep_until(10.0)
    assert clock.now() == 10.0


def test_wall_clock_past_deadline_returns_immediately():
    clock = WallClock()
    started = time.monotonic()
    clock.sleep_until(clock.now() - 5.0)
    assert time.monotonic() - started < 0.05


# --- SimWorker answers ----------------------------------------------------------------


def _challenge(mode: str, params: dict, index: int = 0) -> Challenge:
    return Challenge(
        session_id=b"sim-session",
        index=index,
        mode=mode,
        salt=bytes(range(32)),
        issued_at=1_700_000_000.125,
        params=params,
    )


def test_answer_pow_is_genuinely_valid():
    worker = SimWorker(WorkerProfile(), seed=3)
    challenge = _challenge(
        "pow", {"difficulty": 4, "argon_memory_kib": 8, "argon_passes": 1, "argon_lanes": 1}
    )
    before = worker.clock.now()
    response = worker.answer(challenge)
    assert response.matches(challenge)
    assert worker.clock.now() == before + response.solve_time  # clock advanced
    params = PowParams(difficulty=4, argon_memory_kib=8)
    solution = PowSolution(
        nonce=response.payload["nonce"],
        digest=response.payload["digest"],
        attempts=response.payload["attempts"],
    )
    assert verify_pow(challenge, solution, params)


def test_answer_gemm_is_genuinely_valid():
    worker = SimWorker(WorkerProfile(), seed=4)
    challenge = _challenge(
        "gemm", {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 4}
    )
    response = worker.answer(challenge)
    proof = GemmProof(
        index_jstar=response.payload["index_jstar"],
        product_C=matrix_from_bytes(response.payload["product_c"], 8),
        chain_state_sigma=response.payload["chain_state_sigma"],
    )
    params = GemmParams(dimension_n=8, difficulty_d=2, freivalds_k=4)
    assert verify_gemm_puzzle(challenge.salt, params, proof)


def test_answer_vdf_is_genuinely_valid(rsa_group):
    worker = SimWorker(WorkerProfile(squaring_rate=1e6), seed=5)
    n = rsa_group.modulus_N
    challenge = _challenge(
        "vdf", {"modulus_n": n, "t_min": 64, "t_max": 256, "instances": 3}
    )
    response = worker.answer(challenge)
    raw = response.payload["proofs"]
    assert len(raw) == 3
    instances = [
        vdf.derive_instance(challenge.salt, i, n, 64, 256) for i in range(3)
    ]
    proofs = [
        vdf.VdfProof(
            output_y=p["output_y"],
            pi=p["pi"],
            remainder_r=p["remainder_r"],
            challenge_prime=p["challenge_prime"],
        )
        for p in raw
    ]
    assert vdf.batch_verify(instances, proofs, n, challenge.salt)


def test_answer_unknown_mode_raises():
    worker = SimWorker(WorkerProfile(), seed=6)
    with pytest.raises(ValueError):
        worker.answer(_challenge("quantum", {}))


def test_same_seed_same_latency_sequence():
    challenge = _challenge("pow", {"difficulty": 3, "argon_memory_kib": 8})
    times_a = [
        SimWorker(WorkerProfile(), seed=42).answer(challenge).solve_time
        for _ in range(1)
    ]
    times_b = [
        SimWorker(WorkerProfile(), seed=42).answer(challenge).solve_time
        for _ in range(1)
    ]
    assert times_a == times_b


def test_wall_clock_worker_waits_out_its_modeled_time():
    """On a wall clock the modeled duration is elapsed time, counted from the call."""
    # the network offset puts a 30 ms floor under every modeled duration
    profile = WorkerProfile(network_t0_ns=30_000_000)
    worker = SimWorker(profile, seed=3, clock=WallClock())
    challenge = _challenge("pow", {"difficulty": 2, "argon_memory_kib": 8})
    started = time.monotonic()
    response = worker.answer(challenge)
    assert time.monotonic() - started >= response.solve_time > 0.030
    started = time.monotonic()
    ack = worker.pre_challenge(_residency_pre_challenge())
    assert time.monotonic() - started >= ack["init_time_ns"] / 1e9 > 0.030


def test_init_dataset_costs_one_bus_transfer():
    model = BandwidthModel(hbm_bw=100e9, pci_bw=10e9, base_latency_ns=0)
    worker = SimWorker(WorkerProfile(jitter_rel=0.0), seed=8, model=model)
    duration = worker.init_dataset(b"seed", 1 << 20, 1 << 18)
    assert duration == pytest.approx((1 << 20) / 10e9)
    assert worker.clock.now() == pytest.approx(duration)
    assert worker.dataset is not None and worker.dataset.spec.block_count == 4


def test_probe_before_init_raises():
    worker = SimWorker(WorkerProfile(), seed=9)
    with pytest.raises(RuntimeError):
        worker.probe(b"nonce")


def _residency_pre_challenge(size=1 << 16, block=1 << 14) -> dict:
    return {
        "session_id": b"sim-session",
        "kind": "residency",
        "residency": {"seed": b"seed", "size_bytes": size, "block_size_bytes": block},
    }


def test_pre_challenge_plants_the_residency_dataset():
    model = BandwidthModel(hbm_bw=100e9, pci_bw=10e9, base_latency_ns=0)
    worker = SimWorker(WorkerProfile(jitter_rel=0.0), seed=8, model=model)
    ack = worker.pre_challenge(_residency_pre_challenge(1 << 20, 1 << 18))
    assert ack == {
        "session_id": b"sim-session",
        "status": "ok",
        "init_time_ns": int((1 << 20) / 10e9 * 1e9),
    }
    assert worker.dataset is not None and worker.dataset.spec.block_count == 4


@pytest.mark.parametrize("size", [1 << 40, "65536", 65536.0])
def test_pre_challenge_naming_a_tebibyte_or_no_int_is_refused_before_allocating(size):
    worker = SimWorker(WorkerProfile(), seed=8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dataset size"):
            worker.pre_challenge(_residency_pre_challenge(size, 1 << 14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refusing peaked at {peak} bytes"
    assert worker.dataset is None and worker.clock.now() == 0.0


def test_pre_challenge_of_other_modes_draws_nothing():
    worker = SimWorker(WorkerProfile(), seed=8)
    state = worker.rng.getstate()
    for kind in ("pow", "vdf", "gemm"):
        ack = worker.pre_challenge({"session_id": b"s", "kind": kind})
        assert ack == {"session_id": b"s", "status": "ok", "init_time_ns": 0}
    assert worker.rng.getstate() == state and worker.clock.now() == 0.0
    with pytest.raises(ValueError):
        worker.pre_challenge({"session_id": b"s", "kind": "quantum"})


def test_answer_residency_matches_probe():
    answering = SimWorker(WorkerProfile(residency_state="cold"), seed=10)
    probing = SimWorker(WorkerProfile(residency_state="cold"), seed=10)
    for worker in (answering, probing):
        worker.pre_challenge(_residency_pre_challenge())
    challenge = _challenge("residency", {})
    started = answering.clock.now()
    response = answering.answer(challenge)
    result = probing.probe(challenge.salt)
    assert response.matches(challenge)
    assert response.payload == {
        "response_digest": result.response_digest,
        "kernel_time_ns": int(result.kernel_time_s * 1e9),
    }
    assert response.solve_time == result.timing.duration
    assert answering.clock.now() == started + response.solve_time
    # a probe takes no params, so a challenge that names one is refused
    for params in ({"argon_memory_kib": 8}, {"extra": 1}):
        with pytest.raises(ValueError, match="unknown residency fields"):
            answering.answer(_challenge("residency", params))

