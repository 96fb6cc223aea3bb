"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gputelem import protocol  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> dict:
    sizes = copy.deepcopy(workloads.SIZES[name])
    sizes.update(modulus_bits=128, setup_repeats=1)
    sizes["rounds"] = {"pow": 40, "vdf": 2, "gemm": 2, "residency": 1}
    sizes["pow"]["argon_memory_kib"] = 8
    sizes["vdf"] = {"t_min": 16, "t_max": 32, "instances": 1}
    sizes["gemm"]["dimension_n"] = 4
    sizes["residency"].update(dataset_mib=1, argon_memory_kib=8)
    return sizes


def _names_and_units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, lines = run.run_workload(name, seed=3, seconds=0.0, trace=False, sizes=tiny(name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _names_and_units(result) == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    json.loads(json.dumps(result))


def test_traced_run_reports_every_per_layer_metric():
    result, lines = run.run_workload("local-mix", seed=3, seconds=0.0, trace=True, sizes=tiny("local-mix"))
    assert result["correct"] is True, "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _names_and_units(result) == expected
    assert any(line.startswith("tracing overhead") for line in lines)


def test_accepted_tampered_response_counts_as_failure(monkeypatch):
    # a verifier that accepts everything lets the first cycle's tampered
    # pow response through; the gate must count it
    monkeypatch.setattr(protocol, "validate_response", lambda challenge, response: True)
    result, _ = run.run_workload("verify-only", seed=3, seconds=0.0, trace=False, sizes=tiny("verify-only"))
    assert result["correct"] is False
    assert result["failed"] == 1


def test_work_counts_repeat_for_one_seed():
    sizes = tiny("local-mix")
    modulus = 0xC5F8B5A5F3F0A7C6EB1A1C3A4E1F7B2D  # any odd modulus serves the counts
    first = layers.SampleInputs(sizes, modulus, 5).work_counts()
    assert layers.SampleInputs(sizes, modulus, 5).work_counts() == first
