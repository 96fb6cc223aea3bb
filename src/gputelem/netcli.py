"""Daemons, transport, session reports: the operational shell.

A challenger session of any mode is opened by its ``protocol._MODES``
opener and run by ``protocol.run_opened``, so ``_run_session`` names no
mode.  Over TCP it is a strict request/response sequence on one
connection: a pre-challenge announcing the session (and any dataset to
plant), then one challenge per round, each answered before the next is
sent; a transport failure ends the session with ``TransportError``.
``RemoteWorker`` has the worker interface of the in-process
``SimWorker``, and the daemon hands each message to a ``SimWorker`` on
a ``WallClock`` (``pre_challenge`` or ``answer``), so it actually
computes every answer and replies once the profile's modeled latency
has passed on the wall clock: a challenger cannot tell (and should not
care) whether it is talking to a simulation.  The daemon itself only
moves frames; it reads no time.  There is one daemon, ``WorkerDaemon``,
built only from a config: ``worker_server`` returns it bound,
``serve_worker_background`` serving on its own thread, and ``worker
serve`` serves the first.

Every mode reports a ``protocol.SessionReport``, written as CSV rows
(one layout for all modes) plus a JSON summary; with seeded configs
and virtual clocks both are byte-deterministic.  The summary's
``config`` is the settings that ran, in config form, so a virtual-clock
session replays from it; a fresh vdf group replays by its ``modulus_n``
there, since no seed redraws it.

A config is parsed in one place, ``_session_plan``, once per session
or daemon: each block is read by the dataclass it configures
(``core._parse_fields``), whose field defaults are the only defaults:
the top-level keys by ``SessionSettings``, ``profile`` by
``worksim.WorkerProfile``, ``bandwidth`` by ``residency.BandwidthModel``,
the ``pow``, ``vdf`` and ``gemm`` blocks by their challenge params
class (``protocol.params_for``), the ``vdf`` block also by
``vdf.VdfSettings`` and the ``residency`` block by
``residency.ResidencySettings``.  The ``worker``/``listen`` addresses
are read by ``_parse_address``, default ``DEFAULT_ADDRESS``.  A key
that nothing reads is refused, and every block the config holds is
parsed, whichever mode runs.  ``challenger run`` and ``worker serve``
read the same config shape; each takes what it needs from the plan.
Their flags replace top-level keys through ``with_flags``, which
parses the file's own value of each replaced key first.
"""

from __future__ import annotations

import json
import math
import os
import random
import socket
import socketserver
import threading
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import yaml

from .core import Response, _parse_fields, _split_block
from .protocol import (
    _MODES,
    MODES,
    ProtocolError,
    SessionReport,
    TransportError,
    challenge_record,
    new_session_id,
    params_for,
    parse_challenge,
    parse_response,
    response_record,
    run_opened,
)
from .residency import BandwidthModel, ResidencySettings
from .vdf import VdfParams, VdfSettings, setup_group
from .wire import (
    HEADER_LEN,
    MSG_CHALLENGE_BATCH,
    MSG_ERROR,
    MSG_PRE_CHALLENGE,
    MSG_PRE_RESPONSE,
    MSG_RESPONSE_BATCH,
    WireDecodeError,
    WireMessage,
    decode_header,
    decode_record,
    encode_header,
    encode_record,
)
from .worksim import SimWorker, WallClock, WorkerProfile

# seconds the challenger waits to connect to a worker, and then for each
# reply, before the connection counts as failed (a TransportError)
READ_TIMEOUT_S = 120.0

# --- framed socket I/O ------------------------------------------------------


def send_frame(sock: socket.socket, msg: WireMessage) -> None:
    """Send the header and the payload from where they lie, with no joined copy.

    One ``sendmsg`` sends a small frame, so Nagle's algorithm cannot hold
    its payload behind its header; ``sendall`` sends what a partial send left.
    """
    header = encode_header(msg)
    try:
        sent = sock.sendmsg([header, msg.payload]) - len(header)
        if sent < 0:
            sock.sendall(header[sent:])  # the unsent end of the header
            sent = 0
        if sent < len(msg.payload):
            sock.sendall(memoryview(msg.payload)[sent:])
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


# the most a frame header reserves before its payload arrives
_RECV_RESERVE = 1 << 20


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    """The next ``nbytes`` bytes of ``sock``, received straight into one buffer.

    The buffer starts at ``nbytes / 2^k`` rounded up, the first such size
    of at most ``_RECV_RESERVE``, and doubles whenever it is full, so a
    peer's announced length reserves memory only as its bytes arrive.
    Doubling a bytearray reallocates it in place where the allocator can
    (glibc remaps a large block), and the last doubling overshoots
    ``nbytes`` by less than ``2^k`` bytes, which are cut off unread.
    """
    size = nbytes
    while size > _RECV_RESERVE:
        size = (size + 1) // 2
    buffer = bytearray(size)
    received = 0
    while received < nbytes:
        if received == len(buffer):
            buffer *= 2  # no view of the buffer is open here, so it may move
        with memoryview(buffer)[received:nbytes] as view:
            try:
                count = sock.recv_into(view)
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
        if not count:
            raise TransportError("connection closed mid-frame")
        received += count
    if len(buffer) > nbytes:
        del buffer[nbytes:]
    return buffer


def recv_frame(sock: socket.socket) -> WireMessage:
    """Read one frame, refusing a bad header before reading its payload."""
    try:
        msg_type, length = decode_header(_recv_exact(sock, HEADER_LEN))
    except WireDecodeError as exc:
        raise TransportError(f"undecodable frame: {exc}") from exc
    payload = _recv_exact(sock, length) if length else b""
    return WireMessage(msg_type=msg_type, payload=payload)


def _error_message(detail: str, code: str = "protocol") -> WireMessage:
    return WireMessage(
        MSG_ERROR, encode_record({"code": code, "detail": detail[:500]})
    )


# --- worker daemon -----------------------------------------------------------


class WorkerDaemon(socketserver.ThreadingTCPServer):
    """The worker daemon of one parsed config, bound to its ``listen`` address.

    Built by ``worker_server`` (bound) or ``serve_worker_background``
    (serving on a thread of its own, which ``close()`` stops).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, plan: SessionPlan) -> None:
        self.plan = plan
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        super().__init__(plan.listen, _WorkerHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def next_seed(self) -> int:
        with self._counter_lock:
            self._session_counter += 1
            return self.plan.session.seed + self._session_counter

    def close(self) -> None:
        # shutdown() waits for serve_forever to stop, so only a daemon
        # serving on its own thread is shut down: on any other it waits forever
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5)
        self.server_close()


class _WorkerHandler(socketserver.BaseRequestHandler):
    """One connection = one session; malformed input answers Error and
    keeps the connection alive, since a challenger must be able to log a
    bad round and continue measuring."""

    def handle(self) -> None:
        plan = self.server.plan
        worker = SimWorker(
            plan.profile, seed=self.server.next_seed(), model=plan.model, clock=WallClock()
        )
        sock = self.request
        while True:
            try:
                msg = recv_frame(sock)
            except TransportError:
                return
            try:
                reply = self._dispatch(worker, msg)
            except (WireDecodeError, ProtocolError, ValueError, KeyError) as exc:
                reply = _error_message(str(exc))
            except Exception as exc:  # no crash on any challenge content
                reply = _error_message(f"internal: {exc}", code="internal")
            try:
                send_frame(sock, reply)
            except TransportError:
                return

    def _dispatch(self, worker: SimWorker, msg: WireMessage) -> WireMessage:
        if msg.msg_type == MSG_PRE_CHALLENGE:
            ack = worker.pre_challenge(decode_record(msg.payload))
            return WireMessage(MSG_PRE_RESPONSE, encode_record(ack))
        if msg.msg_type == MSG_CHALLENGE_BATCH:
            response = worker.answer(parse_challenge(decode_record(msg.payload)))
            return WireMessage(
                MSG_RESPONSE_BATCH, encode_record(response_record(response))
            )
        return _error_message(f"unexpected message type {msg.msg_type}")


def worker_server(config: dict) -> WorkerDaemon:
    """The ``worker serve`` daemon of ``config``, bound but not yet serving.

    ``config`` is a session config, parsed by ``_session_plan`` as
    ``challenger run`` parses it, so a bad key or value raises
    ValueError before the port is bound.  The daemon listens on the
    plan's ``listen`` address (default ``DEFAULT_ADDRESS``; port 0 binds
    a free one, named by ``address``) and simulates its ``profile`` and
    ``bandwidth``, its sessions seeded from the plan's ``seed``.  It
    answers whatever group a vdf challenge names, so it draws none.
    """
    return WorkerDaemon(_session_plan(config, draw_group=False))


def serve_worker_background(config: dict) -> WorkerDaemon:
    """``worker_server(config)``, serving on a thread of its own until ``close()``."""
    daemon = worker_server(config)
    daemon._thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    daemon._thread.start()
    return daemon


# --- challenger-side client --------------------------------------------------


class RemoteWorker:
    """Client handle over TCP with the worker interface of ``SimWorker``.

    Its ``clock`` is the challenger's wall clock, on which
    ``SessionDriver.run_round`` times each round trip.
    """

    def __init__(self, address: tuple[str, int]) -> None:
        try:
            self._sock = socket.create_connection(address, timeout=READ_TIMEOUT_S)
        except OSError as exc:
            raise TransportError(f"cannot reach worker at {address}: {exc}") from exc
        self.clock = WallClock()
        self.session_id = b""

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def _round_trip(self, msg: WireMessage) -> WireMessage:
        send_frame(self._sock, msg)
        reply = recv_frame(self._sock)
        if reply.msg_type == MSG_ERROR:
            detail = decode_record(reply.payload)
            raise ProtocolError(f"worker error: {detail.get('detail', '?')}")
        return reply

    def pre_challenge(self, record: dict) -> dict:
        reply = self._round_trip(
            WireMessage(MSG_PRE_CHALLENGE, encode_record(record))
        )
        if reply.msg_type != MSG_PRE_RESPONSE:
            raise ProtocolError("expected a pre-response")
        return decode_record(reply.payload)

    def answer(self, challenge) -> Response:
        reply = self._round_trip(
            WireMessage(MSG_CHALLENGE_BATCH, encode_record(challenge_record(challenge)))
        )
        if reply.msg_type != MSG_RESPONSE_BATCH:
            raise ProtocolError("expected a response batch")
        return parse_response(decode_record(reply.payload))


# --- session reports ---------------------------------------------------------

def rows_to_csv(rows: list[dict], header: tuple[str, ...]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_csv_cell(row.get(col, "")) for col in header))
    return "\n".join(out) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_report(report: SessionReport, out_path: str) -> None:
    """CSV of per-round rows next to a JSON summary at ``out_path``.

    out_path names the CSV; the summary, the ``SessionReport`` without
    its rows plus their count as ``rounds``, lands at out_path + ".json".
    The CSV columns are the keys of the first row, in order: a session
    of any mode runs at least one round, and every mode writes the
    columns of ``protocol.run_session``.
    """
    header = tuple(report.rows[0]) if report.rows else ()
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(report.rows, header))
    summary = {**asdict(replace(report, rows=[])), "rounds": len(report.rows)}
    del summary["rows"]
    with open(out_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- challenger --------------------------------------------------------------


class SessionPlan(NamedTuple):
    """A config, parsed once, with every default filled in.

    ``block`` is the running mode's part, as its ``_MODES`` opener takes
    it: a pow, vdf or gemm session's challenge params, as the dict it
    sends, or a residency session's ``ResidencySettings``.
    """

    session: SessionSettings
    profile: WorkerProfile
    model: BandwidthModel
    block: dict | ResidencySettings
    worker: tuple[str, int]
    listen: tuple[str, int]


def _session_plan(config: dict, draw_group: bool = True) -> SessionPlan:
    """The one parse of a config: each key read once, or refused.

    The top-level keys, ``profile``, ``bandwidth``, every mode block the
    config holds (whichever mode runs) and the ``worker`` and ``listen``
    addresses are each parsed once, so a bad key or value raises
    ValueError here, before any file is written, worker contacted or
    port bound.  A daemon's plan (``draw_group`` False) draws no vdf group.
    """
    (keys,) = _split_block(config, (SessionSettings,), "top-level", _TOP_LEVEL_KEYS)
    session = _parse_fields(SessionSettings, keys)
    profile = _parse_fields(WorkerProfile, config.get("profile"), block="profile")
    model = _parse_fields(BandwidthModel, config.get("bandwidth"), block="bandwidth")
    blocks = {
        m: _block_plan(m, session, config, draw_group)
        for m in MODES
        if m in config or m == session.kind
    }
    worker, listen = (_parse_address(config.get(k, DEFAULT_ADDRESS), k) for k in ("worker", "listen"))
    return SessionPlan(session, profile, model, blocks[session.kind], worker, listen)


def _block_plan(mode: str, session: SessionSettings, config: dict, draw_group: bool):
    """The ``mode`` block, parsed by the classes that read it.

    A vdf block names ``modulus_n`` or ``modulus_bits``, not both.  One
    without ``modulus_n`` gets a fresh group of ``modulus_bits``, drawn
    from the system's randomness: every sidecar records the session seed,
    and whoever redraws the group learns its factors.  A vdf block that
    does not run, or that a daemon reads, draws none; 15 stands in.
    A residency block may still name ``argon_memory_kib``, which is
    accepted and ignored: a probe has no memory-hard phase.
    """
    section = config.get(mode)
    if mode == "residency":
        (settings,) = _split_block(section, (ResidencySettings,), mode, ("argon_memory_kib",))
        if "rounds" in config:  # a session-wide round count, unless overridden
            settings.setdefault("rounds", session.rounds)
        return _parse_fields(ResidencySettings, settings)
    if mode == "vdf":
        settings, section = _split_block(section, (VdfSettings, VdfParams), mode)
        bits = _parse_fields(VdfSettings, settings).modulus_bits
        if settings and "modulus_n" in section:
            raise ValueError("a vdf block names modulus_n or modulus_bits, not both")
        if session.kind != "vdf" or not draw_group:
            section.setdefault("modulus_n", 15)
        elif "modulus_n" not in section:
            section["modulus_n"] = setup_group(bits, random.SystemRandom()).modulus_N
    return asdict(params_for(mode, section))


def with_flags(config: dict, **flags) -> dict:
    """``config`` with each flag that is not None in place of its top-level key.

    The config's own value of each key a flag replaces is parsed first,
    by the rule ``_session_plan`` reads it with, so a flag never hides a
    bad value in the file: ``seed: 2.7`` is refused with ``--seed 3`` too.
    """
    given = {key: value for key, value in flags.items() if value is not None}
    for key in given.keys() & config.keys():
        if key in ("worker", "listen"):
            _parse_address(config[key], key)
        else:
            _parse_fields(SessionSettings, {key: config[key]}, block="top-level")
    return {**config, **given}


def _parse_address(text: str, key: str) -> tuple[str, int]:
    """``host:port`` as a socket address; the host defaults to loopback."""
    host, _, port = str(text).rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"bad {key} address {text!r}: expected host:port, port in [0, 65535]")
    return (host or "127.0.0.1", int(port))


def run_challenger(config: dict, out_path: str | None = None) -> SessionReport:
    """Drive one measurement session against a (remote) worker.

    Every session ends in Accept or Reject, in the returned report.
    A bad session setting raises ValueError, and an ``out_path`` that
    cannot be written OSError, before any worker is contacted;
    TransportError means no worker answered or the connection failed
    mid-session.  All three map to exit code 2 at the CLI.  A call that
    fails removes the report files it created, and no others.
    """
    plan = _session_plan(config)
    created = []  # report files this call made, removed again if it fails
    try:
        if out_path:  # an unwritable report path fails here, before any round is spent
            for path in (out_path, out_path + ".json"):
                fresh = not os.path.exists(path)
                open(path, "a", encoding="utf-8").close()
                if fresh:
                    created.append(path)
        rng = random.Random(plan.session.seed)
        remote = RemoteWorker(plan.worker)
        try:
            report = _run_session(remote, plan, rng)
        finally:
            remote.close()
        if out_path:
            write_report(report, out_path)
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    return report


def _run_session(worker, plan: SessionPlan, rng: random.Random) -> SessionReport:
    session, kind = plan.session, plan.session.kind
    worker.session_id = new_session_id(rng)
    opening = _MODES[kind][2](kind, plan.block, session, plan.model, rng)
    report = run_opened(worker, kind, opening, rng)
    ran = {**asdict(replace(session, rounds=opening.rounds)), **opening.config}
    return replace(report, config=ran)


def run_local_session(
    kind: str, profile: WorkerProfile, config: dict, seed: int = 0
) -> SessionReport:
    """Virtual-clock session against an in-process worker.

    Same decision path as the TCP flow, minus sockets: thousands of
    sessions per minute, identical verdict semantics.  The worker
    simulates the config's ``bandwidth`` block, the bus the challenger
    judges residency against.  The session runs on ``seed`` and
    simulates ``profile``; a config ``kind``, ``seed`` or ``profile``
    block that differs from them is refused, so a config never names a
    mode, a seed or a worker that did not run.
    """
    plan = _session_plan({"seed": seed, "kind": kind, **config})
    if plan.session.kind != kind:
        raise ValueError(f"config kind {plan.session.kind!r} differs from the session kind {kind!r}")
    if plan.session.seed != seed:
        raise ValueError(f"config seed {plan.session.seed} differs from the session seed {seed}")
    if "profile" in config and plan.profile != profile:
        raise ValueError(f"config profile {plan.profile} differs from the session profile {profile}")
    rng = random.Random(seed)
    worker = SimWorker(profile, seed=rng.randrange(1 << 62), model=plan.model)
    return _run_session(worker, plan, rng)


# --- config plumbing ---------------------------------------------------------


def load_config(path: str) -> dict:
    """The YAML document at ``path``; one that does not parse is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            loaded = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ValueError(f"{path} is not a key-value document")
    return loaded


@dataclass(frozen=True)
class SessionSettings:
    """Top-level session keys.  A residency session takes ``rounds`` only
    when the config sets it; ``t0_ns`` is the latency floor of a round."""

    kind: str = "pow"
    seed: int = 0
    rounds: int = 20
    lambda_min: float = 1.0
    t0_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODES:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 1 <= self.rounds < math.inf:
            raise ValueError(f"rounds must be at least 1 and finite, got {self.rounds}")
        if not 0 < self.lambda_min < math.inf:
            raise ValueError(f"lambda_min must be positive and finite, got {self.lambda_min}")
        if not 0 <= self.t0_ns < math.inf:
            raise ValueError(f"t0_ns must be non-negative and finite, got {self.t0_ns}")


# the top level holds, besides the session keys, the blocks and addresses
_TOP_LEVEL_KEYS = ("worker", "listen", "profile", "bandwidth", *MODES)

# where a challenger looks for its worker, and a worker listens, by default
DEFAULT_ADDRESS = "127.0.0.1:9333"
