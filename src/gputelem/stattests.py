"""Decision procedures over solve-time observations.

Solve times for the nonce-search puzzles are modeled as exponential
with rate lambda = r * p (the whole worker's attempt rate, every thread
of it together, times the per-attempt success probability), so sums of
round times are Gamma and counts in a window are Poisson.  The two
hypothesis tests here are the duals of each other: fix the sample count
and test the elapsed time, or fix the window and test the count.
Quantiles are computed locally by inverting the regularized incomplete
gamma function; no statistics library is involved, which keeps the
challenger's accept/reject rule bit-for-bit reproducible everywhere.

A pow, vdf or gemm session runs the one session loop,
``protocol.run_session``, and decides with ``session_test``, the
fixed-sample test at level ``SESSION_ALPHA``: the statistic is the
challenger-clock time of all its rounds.  The loop then rejects a
session with any invalid round, whatever its mode, so a worker cannot
drop the rounds it finds slow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from .core import TimingSample


# Level of every pow, vdf and gemm session's decision.  At 40 rounds a
# worker at half of lambda_min passes with probability 0.47%, inside the
# 1% that the end-to-end fleets allow; a smaller level gives that up.
SESSION_ALPHA = 0.05


class Verdict(str, Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


@dataclass(frozen=True)
class TestConfig:
    """Parameters shared by the hypothesis tests.

    Exactly one of ``n`` (fixed-sample) or ``t_window_s`` (fixed-time)
    governs, depending on which test the config is handed to.  ``t0_ns``
    is the per-round latency floor (network plus scheduling overhead)
    that honest workers pay on top of the exponential solve time.
    """

    __test__ = False  # not a test class despite the name

    lambda_min: float
    alpha: float
    n: int = 0
    t_window_s: float = 0.0
    t0_ns: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.lambda_min < math.inf:
            raise ValueError("lambda_min must be positive and finite")
        if not all(0 <= x < math.inf for x in (self.n, self.t_window_s, self.t0_ns)):
            raise ValueError("n, t_window_s and t0_ns must be non-negative and finite")

    @property
    def t0_s(self) -> float:
        return self.t0_ns * 1e-9


@dataclass(frozen=True)
class Decision:
    """Outcome of one test: the statistic, its threshold, and the verdict.

    ``alpha`` is the test's level; None for a rule without one, such as
    residency's zero-tolerance rule.
    """

    verdict: Verdict
    statistic: float
    threshold: float
    samples_used: int
    invalid_count: int = 0
    alpha: float | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


# --- regularized incomplete gamma ------------------------------------------
#
# P(s, x) converges fast as a power series for x < s + 1, Q(s, x) as a
# continued fraction for x >= s + 1; each complement is 1 minus the
# convergent branch, so neither ever suffers catastrophic cancellation
# in the tail it is asked for.

_EPS = 1e-16
_TINY = 1e-300


def _gamma_series(s: float, x: float) -> float:
    """Lower regularized P(s, x) by power series; requires x < s + 1."""
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(10_000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))

def _gamma_contfrac(s: float, x: float) -> float:
    """Upper regularized Q(s, x) by Lentz continued fraction; x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def regularized_gamma_p(s: float, x: float) -> float:
    """Lower regularized incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)."""
    if s <= 0:
        raise ValueError("shape must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_contfrac(s, x)


def regularized_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) = 1 - P(s, x)."""
    if s <= 0:
        raise ValueError("shape must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_contfrac(s, x)


@functools.lru_cache(maxsize=256)
def chi_square_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square distribution with ``dof`` degrees of freedom.

    Inverts CDF(q) = P(dof/2, q/2) by bisection to relative width 1e-12,
    comfortably inside the 1e-9 tolerance the decision thresholds need.
    dof = 2 reduces to the exponential closed form and is a handy
    cross-check: chi_square_quantile(2, p) == -2 ln(1 - p).  A pure
    function of its arguments, memoized: every session of a given round
    count and level asks for the same quantile, which costs about 43
    bisection steps (0.27 ms at dof 12, 0.62 ms at dof 128).
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    s = dof / 2.0

    def cdf(q: float) -> float:
        return regularized_gamma_p(s, q / 2.0)

    hi = float(max(dof, 1))
    for _ in range(200):
        if cdf(hi) >= prob:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def poisson_quantile(mu: float, prob: float) -> int:
    """Smallest k >= 0 with Poisson(mu) CDF(k) >= prob.

    Uses the gamma-function identity CDF(k; mu) = Q(k + 1, mu), which
    stays accurate for large mu where direct term summation underflows.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")

    def cdf(k: int) -> float:
        return regularized_gamma_q(k + 1.0, mu)

    if cdf(0) >= prob:
        return 0
    hi = max(1, int(mu + 10.0 * math.sqrt(mu) + 10.0))
    for _ in range(200):
        if cdf(hi) >= prob:
            break
        hi *= 2
    lo = 0  # cdf(lo) < prob invariant
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf(mid) >= prob:
            hi = mid
        else:
            lo = mid
    return hi


# --- hypothesis tests -------------------------------------------------------


def fixed_sample_test(samples: Sequence[TimingSample], cfg: TestConfig) -> Decision:
    """Level-alpha test on the total time to collect a fixed sample count.

    With n exponential rounds at rate lambda, 2*lambda*S is chi-square
    with 2n degrees of freedom, so the honest-worker acceptance region
    is S <= chi2(2n, 1 - alpha) / (2 * lambda_min) plus n * t0 to absorb
    the deterministic per-round overhead.  The overhead enters the
    threshold, not the samples: observed times stay raw.
    """
    if not samples:
        raise ValueError("fixed_sample_test needs at least one sample")
    n = cfg.n if cfg.n else len(samples)
    if n != len(samples):
        raise ValueError(f"cfg.n = {cfg.n} but {len(samples)} samples supplied")
    total = sum(s.duration for s in samples)
    threshold = chi_square_quantile(2 * n, 1.0 - cfg.alpha) / (2.0 * cfg.lambda_min)
    threshold += n * cfg.t0_s
    verdict = Verdict.ACCEPT if total <= threshold else Verdict.REJECT
    return Decision(verdict, total, threshold, samples_used=n, alpha=cfg.alpha)


def fixed_time_test(solution_count: int, cfg: TestConfig) -> Decision:
    """Level-alpha test on the solution count inside a fixed window.

    At rate lambda_min the count is Poisson(lambda_min * t); accept when
    the observed count reaches the alpha-quantile of that law, so an
    honest worker at exactly lambda_min is rejected with probability
    below alpha.
    """
    if solution_count < 0:
        raise ValueError("solution count cannot be negative")
    if cfg.t_window_s <= 0:
        raise ValueError("fixed_time_test needs a positive window")
    mu = cfg.lambda_min * cfg.t_window_s
    k_crit = poisson_quantile(mu, cfg.alpha)
    verdict = Verdict.ACCEPT if solution_count >= k_crit else Verdict.REJECT
    return Decision(
        verdict,
        float(solution_count),
        float(k_crit),
        samples_used=solution_count,
        alpha=cfg.alpha,
    )


def session_test(
    n: int, lambda_min: float, t0_ns: int = 0
) -> Callable[[Sequence[TimingSample]], Decision]:
    """The decision rule of a pow, vdf or gemm session of n rounds.

    ``fixed_sample_test`` at level ``SESSION_ALPHA`` on the raw times of
    all n rounds, with the latency floor t0 added to the threshold once
    per round.  A bad ``lambda_min`` or ``t0_ns`` raises here, before
    any round runs.
    """
    cfg = TestConfig(lambda_min, SESSION_ALPHA, n=n, t0_ns=t0_ns)
    return lambda samples: fixed_sample_test(samples, cfg)


def continuous_measurement(
    worker,
    n: int,
    lambda_min: float,
    t0_s: float = 0.0,
    kind: str = "pow",
    sink: Callable[[dict], None] | None = None,
) -> Decision:
    """Run n back-to-back rounds of a pow, vdf or gemm session and decide.

    ``worker`` is any handle ``protocol.run_session`` drives, and
    ``sink`` gets each round's row.  The decision is ``session_test``'s;
    then any invalid round rejects the session.  Only the decision is
    returned: a caller that keeps the rows and the report runs a
    session by ``protocol.run_opened``, as ``netcli`` does.
    """
    from .protocol import run_session  # protocol imports this module

    decide = session_test(n, lambda_min, round(t0_s * 1e9))
    return run_session(worker, n, kind, decide, sink=sink).decision


def utilization_proxy(batch_times: Mapping[int, float]) -> dict[int, float]:
    """Normalized throughput across batch sizes.

    For each batch size M with measured batch time t(M), throughput is
    M / t(M); every value is divided by the maximum so the best point
    sits at exactly 1.0.  Flat times across M therefore read as linear
    utilization growth, and saturated times as a plateau.
    """
    if not batch_times:
        raise ValueError("batch_times is empty")
    if any(t <= 0 for t in batch_times.values()):
        raise ValueError("batch times must be positive")
    throughput = {m: m / t for m, t in batch_times.items()}
    peak = max(throughput.values())
    return {m: v / peak for m, v in throughput.items()}

