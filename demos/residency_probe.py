"""Timing probes that tell resident data from data parked across the bus.

Runs three simulated sessions over a 4 MiB dataset: one that keeps it
hot, one that serves it cold, and one that silently evicts after round
4.  Every probe digest is checked by the session driver from the
dataset's seed alone, by 32 private spot checks of its column sketch,
so a worker cannot fake the scan either.
"""

import random

from gputelem.residency import (
    BandwidthModel,
    default_threshold_ns,
    expected_gap,
    run_residency_session,
)
from gputelem.worksim import SimWorker, WorkerProfile

DATASET = 4 << 20
BLOCK = 512 << 10


def run(profile: WorkerProfile, label: str, model: BandwidthModel) -> None:
    worker = SimWorker(profile, seed=11, model=model)
    report = run_residency_session(
        worker,
        rounds=8,
        t_max_s=0.5,
        dataset_bytes=DATASET,
        block_size_bytes=BLOCK,
        model=model,
        rng=random.Random(f"residency-demo:{label}"),
    )
    verdicts = " ".join(
        f"{row['verdict']:<4}" + ("" if row["valid"] else "!") for row in report.rows
    )
    outcome = "pass" if report.overall_pass else "FAIL"
    print(f"  {label:<18} {verdicts}  -> {outcome}")


def main() -> None:
    model = BandwidthModel()
    print(f"Dataset {DATASET >> 20} MiB, fast path 100 GB/s, slow bus 10 GB/s")
    print(
        f"  expected hot/cold gap {expected_gap(DATASET, model) * 1e6:.0f}us, "
        f"threshold {default_threshold_ns(DATASET, model) / 1e3:.0f}us"
    )
    print()
    print("Eight probes at random times, verdict per round:")
    run(WorkerProfile(), "always hot", model)
    run(WorkerProfile(residency_state="cold"), "always cold", model)
    run(
        WorkerProfile(residency_state="evict_after", evict_after_round=4),
        "evicts after 4",
        model,
    )
    print()
    print("A single Cold round fails the session; eviction shows up on schedule.")
    deploy = BandwidthModel(hbm_bw=3000e9, pci_bw=64e9)
    print(
        "At deployment scale (60 GB over a 64 GB/s bus) the gap is "
        f"{expected_gap(60 * 10 ** 9, deploy):.2f}s, far above timing noise."
    )


if __name__ == "__main__":
    main()
