"""Decision-procedure tests.

The quantile machinery is self-implemented, so scipy plays the role of
an independent oracle here: frozen values guard against regressions on
machines without scipy, live comparisons guard against systematic bias
across a parameter sweep.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats as sps

from gputelem import netcli
from gputelem.core import TimingSample
from gputelem.stattests import (
    SESSION_ALPHA,
    Decision,
    TestConfig,
    Verdict,
    chi_square_quantile,
    continuous_measurement,
    fixed_sample_test,
    fixed_time_test,
    poisson_quantile,
    regularized_gamma_p,
    regularized_gamma_q,
    utilization_proxy,
)

# --- quantiles against the oracle -------------------------------------------

# scipy.stats.chi2.ppf values, frozen so the check stands alone
CHI2_FROZEN = [
    (40, 0.95, 55.75847927888702),
    (40, 0.05, 26.50930319669311),
    (1, 0.5, 0.454936423119572),
    (120, 0.95, 146.56735758076744),
    (2, 0.975, 7.377758908227871),
]


@pytest.mark.parametrize("dof,prob,expected", CHI2_FROZEN)
def test_chi_square_quantile_frozen_values(dof, prob, expected):
    assert chi_square_quantile(dof, prob) == pytest.approx(expected, rel=1e-9)


def test_chi_square_quantile_exponential_closed_form():
    # dof = 2 is Exp(1/2): quantile is -2 ln(1 - p)
    for p in (0.01, 0.25, 0.5, 0.9, 0.999):
        assert chi_square_quantile(2, p) == pytest.approx(
            -2.0 * math.log1p(-p), rel=1e-10
        )


def test_chi_square_quantile_against_scipy_sweep():
    for dof in (1, 2, 3, 8, 40, 80, 200, 1000):
        for p in (0.001, 0.05, 0.5, 0.95, 0.999):
            assert chi_square_quantile(dof, p) == pytest.approx(
                float(sps.chi2.ppf(p, dof)), rel=1e-8
            )


def test_chi_square_quantile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi_square_quantile(0, 0.5)
    with pytest.raises(ValueError):
        chi_square_quantile(4, 0.0)
    with pytest.raises(ValueError):
        chi_square_quantile(4, 1.0)


def test_regularized_gamma_complementarity():
    for s in (0.5, 1.0, 3.7, 20.0, 60.0):
        for x in (0.01, 0.5, s, s + 1, 4 * s):
            p = regularized_gamma_p(s, x)
            q = regularized_gamma_q(s, x)
            assert p + q == pytest.approx(1.0, abs=1e-12)
            assert p == pytest.approx(float(sp_special.gammainc(s, x)), abs=1e-12)


def test_poisson_quantile_frozen_values():
    # scipy.stats.poisson.ppf gives the same k
    assert poisson_quantile(10.0, 0.05) == 5
    assert poisson_quantile(1.0, 0.99) == 4
    assert poisson_quantile(0.5, 0.9) == 1
    assert poisson_quantile(1000.0, 0.5) == 1000


def test_poisson_quantile_against_scipy_sweep():
    for mu in (0.1, 1.0, 4.0, 10.0, 123.0, 5000.0):
        for p in (0.01, 0.05, 0.5, 0.95, 0.999):
            assert poisson_quantile(mu, p) == int(sps.poisson.ppf(p, mu))


@given(
    mu=st.floats(min_value=0.01, max_value=500.0),
    prob=st.floats(min_value=0.001, max_value=0.999),
)
@settings(max_examples=60, deadline=None)
def test_poisson_quantile_is_the_minimal_k(mu, prob):
    k = poisson_quantile(mu, prob)
    assert regularized_gamma_q(k + 1.0, mu) >= prob
    if k > 0:
        assert regularized_gamma_q(float(k), mu) < prob


# --- fixed-sample test ---------------------------------------------------------


def _samples(durations, mode="pow"):
    return [
        TimingSample(index=i, mode=mode, duration=d, valid=True)
        for i, d in enumerate(durations)
    ]


def test_fixed_sample_threshold_value():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, n=20)
    # chi2(40, 0.95) / 2 = 27.879...
    expected_tau = 55.75847927888702 / 2.0
    d = fixed_sample_test(_samples([1.0] * 20), cfg)
    assert d.threshold == pytest.approx(expected_tau, rel=1e-9)
    assert d.alpha == 0.05
    assert d.verdict is Verdict.ACCEPT  # S = 20 <= 27.88
    d2 = fixed_sample_test(_samples([1.5] * 20), cfg)
    assert d2.verdict is Verdict.REJECT  # S = 30 > 27.88


def test_fixed_sample_t0_moves_threshold_not_samples():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, n=20, t0_ns=500_000_000)
    d = fixed_sample_test(_samples([1.0] * 20), cfg)
    assert d.threshold == pytest.approx(55.75847927888702 / 2.0 + 20 * 0.5, rel=1e-9)
    assert d.statistic == pytest.approx(20.0)


def test_fixed_sample_n_mismatch_raises():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, n=5)
    with pytest.raises(ValueError):
        fixed_sample_test(_samples([1.0] * 4), cfg)
    with pytest.raises(ValueError):
        fixed_sample_test([], cfg)
    # n = 0 means "use what you got"
    loose = TestConfig(lambda_min=1.0, alpha=0.05)
    assert fixed_sample_test(_samples([0.1] * 7), loose).samples_used == 7


def test_fixed_sample_calibration_monte_carlo():
    """At lambda = lambda_min the rejection rate must sit near alpha.

    2000 sessions here as a fast guard; the acceptance suite runs 10^4.
    """
    cfg = TestConfig(lambda_min=2.0, alpha=0.05, n=20)
    rng = random.Random("calibration-small")
    rejects = 0
    for _ in range(2000):
        durations = [rng.expovariate(2.0) for _ in range(20)]
        if fixed_sample_test(_samples(durations), cfg).verdict is Verdict.REJECT:
            rejects += 1
    assert 0.03 <= rejects / 2000 <= 0.075


def test_fixed_sample_power_against_slow_worker():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, n=20)
    rng = random.Random("power-small")
    accepts = 0
    for _ in range(500):
        durations = [rng.expovariate(0.25) for _ in range(20)]  # 4x too slow
        if fixed_sample_test(_samples(durations), cfg).verdict is Verdict.ACCEPT:
            accepts += 1
    assert accepts == 0


# --- fixed-time test -----------------------------------------------------------


def test_fixed_time_critical_count():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, t_window_s=10.0)
    d = fixed_time_test(5, cfg)
    assert d.threshold == 5.0  # poisson_quantile(10, 0.05)
    assert d.alpha == 0.05
    assert d.verdict is Verdict.ACCEPT
    assert fixed_time_test(4, cfg).verdict is Verdict.REJECT


def test_fixed_time_calibration_monte_carlo():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, t_window_s=10.0)
    rng = random.Random("fixed-time-small")
    rejects = 0
    trials = 4000
    for _ in range(trials):
        # exact Poisson draw via exponential gaps
        t, k = 0.0, 0
        while True:
            t += rng.expovariate(1.0)
            if t > 10.0:
                break
            k += 1
        if fixed_time_test(k, cfg).verdict is Verdict.REJECT:
            rejects += 1
    # P(K <= 4 | mu = 10) = 0.0293
    assert 0.018 <= rejects / trials <= 0.043


def test_fixed_time_needs_window():
    cfg = TestConfig(lambda_min=1.0, alpha=0.05, n=20)
    with pytest.raises(ValueError):
        fixed_time_test(3, cfg)
    with pytest.raises(ValueError):
        fixed_time_test(-1, TestConfig(lambda_min=1.0, alpha=0.05, t_window_s=1.0))


# --- continuous measurement -----------------------------------------------------


class ScriptedWorker:
    """Session stub replaying (duration, valid) pairs on a virtual clock."""

    def __init__(self, script):
        self.script = list(script)
        self.session_id = b"\xaa" * 32
        self.t = 0.0

    def now(self):
        return self.t

    def sleep_until(self, deadline):
        self.t = max(self.t, deadline)

    def run_round(self, index, kind):
        duration, valid = self.script[index]
        self.t += duration
        return duration, valid


def _gamma_threshold(n, lambda_min=1.0):
    return chi_square_quantile(2 * n, 1.0 - SESSION_ALPHA) / (2.0 * lambda_min)


def test_continuous_measurement_accept_and_reject():
    fast = ScriptedWorker([(0.4, True)] * 10)
    d = continuous_measurement(fast, n=10, lambda_min=1.0)
    assert d.verdict is Verdict.ACCEPT
    assert d.statistic == pytest.approx(4.0)  # the sum of all ten rounds
    assert d.threshold == pytest.approx(_gamma_threshold(10), rel=1e-12)  # 15.705
    assert (d.alpha, d.samples_used, d.invalid_count) == (SESSION_ALPHA, 10, 0)
    # rounds of 1.5 / lambda_min are slower than 1 / lambda_min, but ten
    # of them (15 s) are still under the level-alpha threshold; ten of
    # 1.6 (16 s) are over it
    assert continuous_measurement(ScriptedWorker([(1.5, True)] * 10), n=10, lambda_min=1.0).accepted
    slow = ScriptedWorker([(1.6, True)] * 10)
    assert continuous_measurement(slow, n=10, lambda_min=1.0).verdict is Verdict.REJECT


def test_continuous_measurement_boundary_calibration():
    """A worker at exactly lambda_min is rejected at rate alpha (4 sigma band)."""
    rng = random.Random("session-boundary")
    sessions, rounds = 2000, 40
    rejects = 0
    for _ in range(sessions):
        worker = ScriptedWorker([(rng.expovariate(2.0), True) for _ in range(rounds)])
        rejects += not continuous_measurement(worker, n=rounds, lambda_min=2.0).accepted
    assert 0.0305 <= rejects / sessions <= 0.0695, rejects


def test_continuous_measurement_rejects_the_selective_aborter():
    """A worker at a quarter of lambda_min that answers garbage whenever its
    draw exceeds 0.3 s, so that only its fast rounds come back valid."""
    rng = random.Random("session-aborter")
    sessions, rounds, t_cut = 200, 40, 0.3
    accepts = 0
    for _ in range(sessions):
        script = []
        for _ in range(rounds):
            draw = rng.expovariate(0.25)
            script.append((draw, True) if draw <= t_cut else (t_cut, False))
        accepts += continuous_measurement(ScriptedWorker(script), n=rounds, lambda_min=1.0).accepted
    assert accepts <= 2, accepts


def test_continuous_measurement_any_invalid_round_rejects():
    script = [(0.1, True), (0.1, False), (0.1, True), (0.1, True)]
    rows = []
    d = continuous_measurement(ScriptedWorker(script), n=4, lambda_min=1.0, sink=rows.append)
    assert d.verdict is Verdict.REJECT
    assert d.statistic == pytest.approx(0.4)  # far under the threshold
    assert d.threshold == pytest.approx(_gamma_threshold(4), rel=1e-12)
    assert (d.samples_used, d.invalid_count) == (4, 1)
    assert [r["valid"] for r in rows] == [True, False, True, True]
    assert [r["total_ns"] for r in rows] == [100_000_000] * 4


def test_continuous_measurement_all_invalid_is_reject():
    d = continuous_measurement(ScriptedWorker([(1.0, False)] * 3), n=3, lambda_min=1.0)
    assert d.verdict is Verdict.REJECT
    assert d.statistic == pytest.approx(3.0)
    assert (d.samples_used, d.invalid_count, d.alpha) == (3, 3, SESSION_ALPHA)


def test_continuous_measurement_t0_adjustment():
    """t0 moves the threshold by n * t0 and leaves the samples raw."""
    script = [(1.2, True)] * 5
    bare = continuous_measurement(ScriptedWorker(script), n=5, lambda_min=1.0)
    floored = continuous_measurement(ScriptedWorker(script), n=5, lambda_min=1.0, t0_s=0.5)
    assert bare.statistic == floored.statistic == pytest.approx(6.0)
    assert floored.threshold == pytest.approx(bare.threshold + 5 * 0.5, rel=1e-12)
    # 25 s of rounds: rejected at t0 = 0, accepted once a 4 s floor is allowed
    slow = [(5.0, True)] * 5
    assert not continuous_measurement(ScriptedWorker(slow), n=5, lambda_min=1.0).accepted
    assert continuous_measurement(ScriptedWorker(slow), n=5, lambda_min=1.0, t0_s=4.0).accepted


def test_continuous_measurement_alpha_reaches_the_report(tmp_path):
    d = continuous_measurement(ScriptedWorker([(0.2, True)] * 4), n=4, lambda_min=1.0)
    report = netcli.SessionReport("ab", "pow", decision=d)
    assert f"alpha={SESSION_ALPHA}," in report.verdict_line()
    out = tmp_path / "r.csv"
    netcli.write_report(report, str(out))
    summary = json.loads((tmp_path / "r.csv.json").read_text())
    assert summary["decision"]["alpha"] == SESSION_ALPHA
    assert summary["decision"]["threshold"] == pytest.approx(_gamma_threshold(4), rel=1e-12)


# --- utilization proxy ------------------------------------------------------------


def test_utilization_proxy_saturation_shape():
    # flat batch time below capacity, linear growth beyond
    times = {1: 1.0, 2: 1.0, 4: 1.0, 8: 2.0, 16: 4.0}
    util = utilization_proxy(times)
    assert util[4] == pytest.approx(1.0)
    assert util[8] == pytest.approx(1.0)
    assert util[16] == pytest.approx(1.0)
    assert util[1] == pytest.approx(0.25)
    assert util[2] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        utilization_proxy({})
    with pytest.raises(ValueError):
        utilization_proxy({1: 0.0})


def test_decision_accepted_property():
    d = Decision(Verdict.ACCEPT, 1.0, 2.0, samples_used=3)
    assert d.accepted
    assert not Decision(Verdict.REJECT, 3.0, 2.0, samples_used=3).accepted
