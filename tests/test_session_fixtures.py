"""Seeded local sessions against their checked-in reports.

Each session below runs on a virtual clock, so its CSV and JSON summary
are byte-deterministic; the expected bytes live in ``tests/fixtures/``.
A change to the round pipeline that moves a draw, a timing or a verdict
shows up here as a byte difference.

Run as a script (``PYTHONPATH=src python3 tests/test_session_fixtures.py``)
it rewrites ``tests/fixtures/`` from ``SESSIONS``; do that only when a
report is meant to change, and say what changed.
"""

import json
from pathlib import Path

import pytest

from gputelem import netcli
from gputelem.worksim import WorkerProfile

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# 128-bit modulus: vdf.setup_group(128, random.Random(1)).modulus_N
MODULUS_N = 0xA83F7B1F0A6E7073B59999D6A360EA01

_RESIDENCY = {
    "rounds": 5,
    "t_max_s": 1.0,
    "dataset_mib": 1,
    "block_kib": 256,
}

SESSIONS = {
    "pow": (
        "pow",
        WorkerProfile(hash_rate_r=64.0),
        {
            "rounds": 12,
            "lambda_min": 2.0,
            "pow": {
                "difficulty": 2,
                "argon_passes": 1,
                "argon_lanes": 1,
                "argon_memory_kib": 8,
            },
        },
        11,
    ),
    "gemm": (
        "gemm",
        WorkerProfile(hash_rate_r=64.0),
        {
            "rounds": 4,
            "lambda_min": 2.0,
            "gemm": {"dimension_n": 8, "difficulty_d": 1, "freivalds_k": 3},
        },
        12,
    ),
    "vdf": (
        "vdf",
        WorkerProfile(squaring_rate=1e5),
        {
            "rounds": 4,
            "lambda_min": 2.0,
            "vdf": {
                "modulus_n": MODULUS_N,
                "t_min": 16,
                "t_max": 32,
                "instances": 2,
            },
        },
        13,
    ),
    "residency-hot": (
        "residency",
        WorkerProfile(),
        {"residency": dict(_RESIDENCY)},
        14,
    ),
    "residency-evict": (
        "residency",
        WorkerProfile(residency_state="evict_after", evict_after_round=2),
        {"residency": dict(_RESIDENCY)},
        15,
    ),
}


def write_session(name: str, out_dir: Path) -> Path:
    """Run session ``name`` and write its report; returns the CSV path."""
    kind, profile, config, seed = SESSIONS[name]
    report = netcli.run_local_session(kind, profile, config, seed=seed)
    out = out_dir / f"{name}.csv"
    netcli.write_report(report, str(out))
    return out


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_seeded_session_report_matches_fixture(name, tmp_path):
    out = write_session(name, tmp_path)
    assert out.read_bytes() == (FIXTURES / f"{name}.csv").read_bytes()
    summary = Path(str(out) + ".json")
    assert summary.read_bytes() == (FIXTURES / f"{name}.csv.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_replays_from_its_own_sidecar_config(name, tmp_path):
    kind, profile, _, _ = SESSIONS[name]
    config = json.loads((FIXTURES / f"{name}.csv.json").read_text())["config"]
    report = netcli.run_local_session(kind, profile, config, seed=config["seed"])
    out = tmp_path / "replay.csv"
    netcli.write_report(report, str(out))
    assert out.read_bytes() == (FIXTURES / f"{name}.csv").read_bytes()
    assert report.config == config


if __name__ == "__main__":
    for name in sorted(SESSIONS):
        print(write_session(name, FIXTURES))
