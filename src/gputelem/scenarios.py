"""Named distribution experiments with histogram-ready CSV output.

Each scenario drives the worker timing laws at a fixed seed, writes one
CSV of raw observations, and reduces them to a couple of summary flags
(shape checks, separations, ratios).  The flags make the qualitative
claims testable without eyeballing plots: exponential solve times, mean
doubling per difficulty bit, throughput saturation past the parallel
capacity, and the hot/cold latency split.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from collections.abc import Callable

from .core import _coerce, _refuse_unknown
from .netcli import _csv_cell, load_config, rows_to_csv
from .residency import BandwidthModel
from .stattests import utilization_proxy
from .worksim import (
    WorkerProfile,
    simulate_pow_time,
    simulate_residency_time,
    simulate_vdf_time,
)


class ScenarioError(ValueError):
    """Unknown scenario name or unusable scenario file."""


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv([dict(zip(header, row)) for row in rows], header))


def ks_exponential(samples: list[float]) -> tuple[float, float]:
    """One-sample KS distance against an exponential fitted by its mean.

    Returns (statistic, critical value at the 5% level).  Fitting the
    rate from the data makes the standard critical value conservative,
    which is the right direction for a shape flag: genuinely
    exponential data clears it with a wide margin, constant or bimodal
    data does not.
    """
    n = len(samples)
    if n < 8:
        raise ValueError("need at least 8 samples")
    mean = sum(samples) / n
    if mean <= 0:
        raise ValueError("samples must be positive")
    d_stat = 0.0
    for i, x in enumerate(sorted(samples)):
        cdf = 1.0 - math.exp(-x / mean)
        d_stat = max(d_stat, abs(cdf - i / n), abs((i + 1) / n - cdf))
    return d_stat, 1.358 / math.sqrt(n)


def _scenario_pow_solve_hist(out_dir: str, seed: int) -> dict:
    """Solve-time histogram at one difficulty; flags exponential shape."""
    profile = WorkerProfile(hash_rate_r=1024.0, jitter_rel=0.0)
    rng = random.Random(f"pow-solve-hist:{seed}")
    difficulty = 8
    times = [simulate_pow_time(profile, difficulty, rng) for _ in range(2000)]
    _write_csv(
        os.path.join(out_dir, "pow-solve-hist.csv"),
        ("round", "difficulty", "solve_time_s"),
        [(i, difficulty, t) for i, t in enumerate(times)],
    )
    d_stat, d_crit = ks_exponential(times)
    return {
        "scenario": "pow-solve-hist",
        "rows": len(times),
        "mean_s": sum(times) / len(times),
        "ks_stat": d_stat,
        "ks_crit": d_crit,
        "flag_exponential_shape": d_stat < d_crit,
    }


def _scenario_pow_difficulty_shift(out_dir: str, seed: int) -> dict:
    """Same worker at d and d+1; flags the doubling of the mean."""
    profile = WorkerProfile(hash_rate_r=1024.0, jitter_rel=0.0)
    rng = random.Random(f"pow-difficulty-shift:{seed}")
    rows: list[tuple] = []
    means = {}
    for difficulty in (8, 9):
        times = [simulate_pow_time(profile, difficulty, rng) for _ in range(2000)]
        rows.extend((difficulty, i, t) for i, t in enumerate(times))
        means[difficulty] = sum(times) / len(times)
    _write_csv(
        os.path.join(out_dir, "pow-difficulty-shift.csv"),
        ("difficulty", "round", "solve_time_s"),
        rows,
    )
    ratio = means[9] / means[8]
    return {
        "scenario": "pow-difficulty-shift",
        "rows": len(rows),
        "mean_d8_s": means[8],
        "mean_d9_s": means[9],
        "mean_ratio": ratio,
        "flag_ratio_doubles": 0.9 <= ratio / 2.0 <= 1.1,
    }


def _scenario_vdf_saturation(out_dir: str, seed: int) -> dict:
    """Throughput across instance counts; flags the knee at capacity."""
    capacity = 16
    profile = WorkerProfile(
        squaring_rate=1e6, vdf_capacity=capacity, jitter_rel=0.0
    )
    rng = random.Random(f"vdf-saturation:{seed}")
    delay_t = 1 << 12
    grid = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64)
    batch_times = {
        c: simulate_vdf_time(profile, delay_t, c, rng) for c in grid
    }
    util = utilization_proxy(batch_times)
    _write_csv(
        os.path.join(out_dir, "vdf-saturation.csv"),
        ("c_instances", "batch_time_s", "utilization"),
        [(c, batch_times[c], util[c]) for c in grid],
    )
    beyond = [util[c] for c in grid if c >= capacity]
    below = [util[c] for c in grid if c < capacity]
    flat = min(beyond) >= 0.95
    rising = max(below) < 0.95 and below == sorted(below)
    return {
        "scenario": "vdf-saturation",
        "rows": len(grid),
        "capacity": capacity,
        "min_util_beyond_capacity": min(beyond),
        "flag_saturation_knee": flat and rising,
    }


def _scenario_residency_hot_cold(out_dir: str, seed: int) -> dict:
    """Probe-time clusters for resident vs transferred data; flags the split."""
    model = BandwidthModel()
    rng = random.Random(f"residency-hot-cold:{seed}")
    touched = 64 << 20
    rows: list[tuple] = []
    clusters: dict[str, list[float]] = {"hot": [], "cold": []}
    for kind, state in (("hot", "hot"), ("cold", "cold")):
        profile = WorkerProfile(residency_state=state, jitter_rel=0.02)
        for i in range(300):
            t = simulate_residency_time(
                profile, touched, model, rng, hot=(kind == "hot")
            )
            clusters[kind].append(t)
            rows.append((kind, i, t))
    _write_csv(
        os.path.join(out_dir, "residency-hot-cold.csv"),
        ("kind", "round", "probe_time_s"),
        rows,
    )
    hot, cold = clusters["hot"], clusters["cold"]
    gap = min(cold) - max(hot)
    # within-cluster spread; pooling across clusters would count the
    # gap itself and make the criterion unsatisfiable
    within_sd = math.sqrt(
        (statistics.pvariance(hot) + statistics.pvariance(cold)) / 2.0
    ) or 1e-12
    mean_gap = statistics.mean(cold) - statistics.mean(hot)
    return {
        "scenario": "residency-hot-cold",
        "rows": len(rows),
        "hot_mean_s": statistics.mean(hot),
        "cold_mean_s": statistics.mean(cold),
        "worst_case_gap_s": gap,
        "flag_bimodal_clusters": gap > 0 and mean_gap > 4.0 * within_sd,
    }


SCENARIOS: dict[str, Callable[[str, int], dict]] = {
    "pow-solve-hist": _scenario_pow_solve_hist,
    "pow-difficulty-shift": _scenario_pow_difficulty_shift,
    "vdf-saturation": _scenario_vdf_saturation,
    "residency-hot-cold": _scenario_residency_hot_cold,
}

SUMMARY_HEADER = ("scenario", "rows", "flags_ok", "detail")


def run_scenarios(names: list[str], out_dir: str, seed: int = 0) -> list[dict]:
    """Run the named scenarios; write per-scenario CSVs plus a summary.

    Raises ScenarioError on an unknown name, listing what exists.  An
    empty name list still writes a (zero-row) summary.
    """
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        available = ", ".join(sorted(SCENARIOS))
        raise ScenarioError(
            f"unknown scenario(s) {unknown}; available: {available}"
        )
    os.makedirs(out_dir, exist_ok=True)
    summaries = [SCENARIOS[name](out_dir, seed) for name in names]
    _write_summary(out_dir, summaries)
    return summaries


def _write_summary(out_dir: str, summaries: list[dict]) -> None:
    rows = []
    for s in summaries:
        flags = {k: v for k, v in s.items() if k.startswith("flag_")}
        detail = ";".join(f"{k}={_csv_cell(v)}" for k, v in sorted(flags.items()))
        rows.append((s["scenario"], s["rows"], all(flags.values()), detail))
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, rows)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summaries, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_scenario_file(path: str, out_dir: str, seed: int | None = None) -> list[dict]:
    """Scenario-file entry point: YAML with ``scenarios`` and ``seed`` keys.

    ``scenarios`` is a list of names or ``all``; ``seed`` is a whole
    number, default 0, which a ``seed`` argument overrides.  Any other
    key, or a seed that is not a whole number, is refused (ScenarioError)
    before a scenario runs.
    """
    try:
        doc = load_config(path)
        _refuse_unknown(doc, ("scenarios", "seed"), "scenario file")
        file_seed = _coerce("seed", int, doc.get("seed", 0))
    except ValueError as exc:  # unparsable, not a key-value document, or a bad key
        raise ScenarioError(str(exc)) from exc
    names = doc.get("scenarios", [])
    if names == "all":
        names = sorted(SCENARIOS)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ScenarioError("'scenarios' must be a list of names (or 'all')")
    return run_scenarios(names, out_dir, seed=file_seed if seed is None else seed)
