"""Full challenger/worker exchange over TCP, honest then deviant.

Starts two background worker daemons with different real hash rates,
drives a measurement session against each, and prints the verdict lines
and exit codes a supervisor would consume.  Reports land in a temp dir.
"""

import random
import tempfile
from pathlib import Path

from gputelem.netcli import run_challenger, run_local_session, serve_worker_background
from gputelem.worksim import WorkerProfile

LAMBDA_MIN = 10.0


def session(label: str, hash_rate: float, out_dir: Path) -> None:
    daemon = serve_worker_background(
        {"profile": {"hash_rate_r": hash_rate}, "listen": "127.0.0.1:0", "seed": 3}
    )
    try:
        host, port = daemon.address
        config = {
            "worker": f"{host}:{port}",
            "kind": "pow",
            "rounds": 12,
            "lambda_min": LAMBDA_MIN,
            "seed": 17,
            "pow": {"difficulty": 6, "argon_memory_kib": 8},
        }
        report = run_challenger(config, str(out_dir / f"{label}.csv"))
        rate = hash_rate * 2.0**-6
        print(f"  {label} worker ({rate:.0f} solutions/s vs floor {LAMBDA_MIN:.0f}):")
        print(f"    {report.verdict_line()}")
        print(f"    exit code {report.exit_code}, report {out_dir / f'{label}.csv'}")
    finally:
        daemon.close()


def main() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="telem-demo-"))
    print("TCP sessions, 12 rounds each (wall time is the measurement):")
    session("honest", 1280.0, out_dir)
    session("deviant", 320.0, out_dir)

    print()
    print("Virtual-clock fleet, 50 sessions per profile (no sockets, no waiting):")
    cfg = {
        "rounds": 40,
        "lambda_min": 1.0,
        "pow": {"difficulty": 6, "argon_memory_kib": 8},
    }
    for label, rate in (("honest", 128.0), ("deviant", 32.0)):
        accepted = sum(
            run_local_session(
                "pow", WorkerProfile(hash_rate_r=rate), cfg, seed=s
            ).exit_code
            == 0
            for s in range(50)
        )
        print(f"  {label:<8} accepted {accepted}/50 sessions")
    print("Exit code 0 means Accept, 1 Reject, 2 an error; scripts key off it.")


if __name__ == "__main__":
    main()
