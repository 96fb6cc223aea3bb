"""Benchmark of gputelem: whole sessions, challenger-side verification, TCP rounds.

Run from the repository root:

    python3 perfbench/run.py --workload local-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every operation twice, untraced and then traced on the
same inputs, prints the per-layer table, the self times along each kind
of operation and the tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
session round or one verified response; it fails when an honest answer
is invalid or raises, on a transport error, or when a tampered response
is accepted.  A session whose verdict differs from the expected one also
counts as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# One compute thread per process, numpy's BLAS pool included, so the
# benchmark and its worker child never hold more than two busy threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The seed a change is developed against, and the one its claim must
# also hold on without having been looked at while writing it.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7

E2E_UNITS = {
    "setup_s": "s",
    "pow_ms": "ms",
    "vdf_ms": "ms",
    "gemm_ms": "ms",
    "residency_ms": "ms",
    "rounds_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cryptography": metadata.version("cryptography"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else _median(values)


def end_to_end(ops, setup_times, scaled: bool = True) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) from one run's operations.

    With ``scaled`` every time is rescaled to the nominal host speed by the
    factor measured when it ran (see workloads.HostSpeed); without, the
    raw wall times are used.
    """
    from layers import MODES

    def factor(speed: float) -> float:
        return speed if scaled else 1.0

    timed = [op for op in ops if op.timed]
    setup = [wall * factor(speed) for wall, speed in setup_times]
    metrics = {"setup_s": (statistics.median(setup), len(setup))}
    for mode in MODES:
        values = [op.seconds * 1e3 * factor(op.speed) for op in timed if op.mode == mode]
        metrics[f"{mode}_ms"] = (_median(values), len(values))
    rounds = sum(op.rounds for op in timed)
    busy = sum(op.seconds * factor(op.speed) for op in timed)
    metrics["rounds_per_s"] = (rounds / busy if busy else 0.0, rounds)
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return metrics


def check_work_counts(name: str, seed: int, sizes: dict, counts: dict) -> tuple[bool, str]:
    """Compare the seed's work counts with those an earlier run of the same
    program and sizes recorded; the first run for a seed records them."""
    source = hashlib.sha256(json.dumps(sizes, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "gputelem").glob("*.py")):
        source.update(path.read_bytes())
    record = OUT / "workcounts" / f"{name}-{seed}-{source.hexdigest()[:16]}.json"
    if record.exists():
        previous = json.loads(record.read_text(encoding="utf-8"))
        if previous == counts:
            return True, "identical to the earlier run with this seed"
        return False, f"DIFFER from the earlier run with this seed: {previous}"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return True, "first run with this seed; recorded"


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns the result object and
    the human-readable lines that precede it."""
    import workloads
    from layers import LAYER_METRICS, SampleInputs, Tracer, layer_metrics

    sizes = sizes or workloads.SIZES[name]
    work_dir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"env: {json.dumps(environment(), sort_keys=True)}",
             f"workload: {name}  seed: {seed} (default {DEFAULT_SEED}, holdout {HOLDOUT_SEED})  "
             f"seconds: {seconds}  trace: {int(trace)}"]
    tracer = Tracer() if trace else None
    host = workloads.HostSpeed()
    state = layer_daemon = None
    try:
        state, setup_times = workloads.timed_set_up(name, sizes, seed, ROOT, work_dir, host)
        ops = workloads.measure(state, seed, seconds, tracer, host)
        if trace:
            if state.daemon is None:
                layer_daemon = workloads.WorkerProcess(ROOT, work_dir, seed)
            address = (state.daemon or layer_daemon).address
            layers, counts, failures = layer_metrics(sizes, state.modulus_n, seed, tracer, address)
        else:
            counts, failures = SampleInputs(sizes, state.modulus_n, seed).work_counts(), []
    finally:
        for owner in (state, layer_daemon):
            if owner is not None:
                owner.close()
        for leftover in work_dir.iterdir():
            leftover.unlink()
        work_dir.rmdir()

    counts_ok, note = check_work_counts(name, seed, sizes, counts)
    lines.append(f"work counts: {json.dumps(counts, sort_keys=True)} ({note})")
    attempted = sum(op.rounds for op in ops)
    failed_ops = sum(op.failed for op in ops) + len(failures)
    lines.extend(f"FAILED: {failure}" for failure in failures)
    verdict_errors = sum(op.verdict_error for op in ops)
    lines.append(f"fail_share: {failed_ops / attempted:.6f} (failed {failed_ops} of {attempted} operations)")
    if name != "verify-only":  # there every operation is a session
        lines.append(f"verdict_error_share: {verdict_errors / len(ops):.6f} "
                     f"({verdict_errors} of {len(ops)} sessions)")
    round_ms = [ms for op in ops for ms in op.round_ms]
    if round_ms:
        lines.append(
            "round_ms (challenger wall clock): "
            + " ".join(f"p{q}={_percentile(round_ms, q):.4f}" for q in (50, 90, 99))
            + f" n={len(round_ms)}"
        )

    e2e = end_to_end(ops, setup_times)
    wall = end_to_end(ops, setup_times, scaled=False)
    missing = [m for m, (_, n) in e2e.items() if n == 0]
    correct = failed_ops == 0 and verdict_errors == 0 and counts_ok and not missing
    if trace:
        lines.extend(_trace_report(name, seed, tracer, ops, layers))
        metrics = {m: {"value": v, "unit": LAYER_METRICS[m][0]} for m, (v, _) in sorted(layers.items())}
    else:
        lines.append("end-to-end metrics (rescaled to the nominal host speed; raw wall value after it):")
        for metric, (value, count) in e2e.items():
            lines.append(f"  {metric:<16} {value:>14.6f} {E2E_UNITS[metric]:<4} n={count:<6} wall {wall[metric][0]:.6f}")
        speed = [op.speed for op in ops]
        lines.append(f"host speed factor (nominal/measured reference mix): median {statistics.median(speed):.4f} "
                     f"min {min(speed):.4f} max {max(speed):.4f}")
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, (v, _) in e2e.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops + verdict_errors,
        "metrics": metrics,
    }
    return result, lines


def _trace_report(name, seed, tracer, ops, layers) -> list[str]:
    from layers import LAYER_METRICS, MODES, VERIFY_METRIC, self_time_table

    lines = ["per-layer metrics (medians over the seeded samples):"]
    for metric, (unit, moves) in LAYER_METRICS.items():
        value, count = layers[metric]
        lines.append(f"  {metric:<34} {value:>14.6f} {unit:<6} n={count:<3} moves: {moves}")
    for mode, verify in VERIFY_METRIC.items():
        prove = layers[f"worksim.answer_ms.{mode}"][0]
        lines.append(f"  {mode} verify/prove = {layers[verify][0]:.4f} ms / {prove:.4f} ms "
                     f"= {layers[f'{mode}.verify_prove_ratio'][0]:.4f}")

    lines.append("tracing overhead (traced minus untraced, same inputs):")
    for mode in MODES:
        pairs = [(op.seconds, op.traced_seconds) for op in ops
                 if op.timed and op.mode == mode and op.traced_seconds is not None]
        if pairs:
            untraced = statistics.median(p[0] for p in pairs) * 1e3
            traced = statistics.median(p[1] for p in pairs) * 1e3
            lines.append(f"  {mode}_ms untraced {untraced:.4f} traced {traced:.4f} "
                         f"overhead {traced - untraced:+.4f} ms ({(traced / untraced - 1) * 100:+.2f}%) n={len(pairs)}")

    lines.append("self time along each operation's blocking steps (mean ms per operation):")
    untraced_by_label: dict[str, list[float]] = {}
    for op in ops:
        untraced_by_label.setdefault(op.label, []).append(op.seconds * 1e3)
    for label, entry in self_time_table(tracer).items():
        count = len(entry["total_ns"])
        traced = sum(entry["total_ns"]) / count / 1e6
        lines.append(f"  [{label}] n={count}")
        for span, values in sorted(entry["self_ns"].items(), key=lambda kv: -sum(kv[1])):
            lines.append(f"    {span:<40} {sum(values) / count / 1e6:>12.4f}")
        self_sum = sum(sum(v) for v in entry["self_ns"].values()) / count / 1e6
        op_label = label.split(":")[0]
        untraced = untraced_by_label.get(op_label)
        tail = ""
        if untraced:
            mean_untraced = statistics.fmean(untraced)
            tail = (f" untraced {mean_untraced:.4f} + overhead {traced - mean_untraced:+.4f}")
        lines.append(f"    sum of self times {self_sum:.4f} = traced {traced:.4f};{tail}")

    trace_path = OUT / f"trace-{name}-{seed}.json"
    trace_path.write_text(json.dumps({
        "env": environment(),
        "workload": name,
        "seed": seed,
        "spans": tracer.spans,
        "per_layer": {m: v for m, (v, _) in layers.items()},
    }), encoding="utf-8")
    lines.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through finally, which stops the worker child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("local-mix", "tcp-mix", "verify-only"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gputelem.netcli  # the package and its dependencies
    except ImportError as exc:
        print(f"error: cannot import gputelem from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(gputelem.netcli.__file__).resolve().is_relative_to(ROOT / "src"):
        # an installed copy elsewhere would be measured instead of this checkout
        print(f"error: gputelem was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the benchmark and the worker child, which inherits it:
    # the reference mix then runs where the work it rescales runs, and the
    # strict request/response rounds hand over without cross-CPU wake-ups.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(f"wall: {time.perf_counter() - started:.2f} s")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
