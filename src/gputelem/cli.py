"""Command-line entry points: challenger, worker, scenario.

Exit codes follow the measurement semantics rather than Unix habit:
0 = Accept, 1 = Reject, 2 = an error that prevented the session or its
report (an unreadable config, a bad value, no worker, a lost connection,
an unwritable ``--out``).  Every session that runs to its end is an
Accept or a Reject.
"""

from __future__ import annotations

import argparse
import sys

from .netcli import (
    DEFAULT_ADDRESS,
    TransportError,
    load_config,
    run_challenger,
    with_flags,
    worker_server,
)
from .protocol import MODES, ProtocolError
from .scenarios import ScenarioError, run_scenario_file

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def challenger_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="challenger",
        description="Issue challenges to a worker and judge the timing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="drive one measurement session")
    run_p.add_argument("--mode", choices=MODES, required=True)
    run_p.add_argument("--config", required=True, help="session config (YAML)")
    run_p.add_argument("--out", required=True, help="CSV report path")
    run_p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = with_flags(load_config(args.config), kind=args.mode, seed=args.seed)
    except (OSError, ValueError) as exc:
        return _fail(f"config: {exc}")
    try:
        report = run_challenger(config, out_path=args.out)
    except (OSError, TransportError, ProtocolError, ValueError) as exc:
        return _fail(str(exc))
    print(report.verdict_line())
    return report.exit_code


def worker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="worker",
        description="Serve challenge responses, latency-shaped by a profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    serve_p = sub.add_parser("serve", help="listen for challenger sessions")
    serve_p.add_argument(
        "--listen", default=None, help=f"host:port, overriding the config (default {DEFAULT_ADDRESS})"
    )
    serve_p.add_argument("--profile", required=True, help="worker config (YAML)")
    serve_p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    args = parser.parse_args(argv)

    try:
        config = with_flags(load_config(args.profile), listen=args.listen, seed=args.seed)
        daemon = worker_server(config)
    except (OSError, ValueError) as exc:
        return _fail(f"profile: {exc}")
    host, port = daemon.address
    print(f"worker: serving on {host}:{port}", file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        return 0
    finally:
        daemon.close()
    return 0


def scenario_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scenario",
        description="Run named distribution experiments to CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("--file", required=True, help="scenario list (YAML)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        summaries = run_scenario_file(args.file, args.out, seed=args.seed)
    except (OSError, ScenarioError, ValueError) as exc:
        return _fail(str(exc))
    for s in summaries:
        flags = {k: v for k, v in s.items() if k.startswith("flag_")}
        status = "ok" if all(flags.values()) else "FLAG-FAIL"
        print(f"{s['scenario']}: rows={s['rows']} {status}")
    print(f"summary: {args.out}/summary.csv")
    return 0


_DISPATCH = {
    "challenger": challenger_main,
    "worker": worker_main,
    "scenario": scenario_main,
}


def main(argv: list[str] | None = None) -> int:
    """Single-module dispatcher: ``python -m gputelem.cli <tool> ...``."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _DISPATCH:
        names = ", ".join(_DISPATCH)
        print(f"usage: gputelem.cli {{{names}}} ...", file=sys.stderr)
        return EXIT_ERROR
    return _DISPATCH[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
