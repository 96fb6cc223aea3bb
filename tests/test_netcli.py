"""Transport, daemon, and report tests.

TCP tests run against a daemon on a loopback ephemeral port with
latency shaping mostly off, so the suite exercises real sockets without
real waiting. Byte-determinism of reports is checked on virtual-clock
sessions, the only place it is promised.
"""

import collections
import dataclasses
import inspect
import json
import math
import socket
import threading
import time
import tracemalloc

import pytest
import yaml

from gputelem import cli, netcli, vdf
from gputelem.protocol import (
    ProtocolError,
    SessionDriver,
    SessionReport,
    build_challenge,
    challenge_record,
    parse_response,
    validate_response,
)
from gputelem.pow import PowParams
from gputelem.residency import (
    BandwidthModel,
    ResidencySettings,
    default_threshold_ns,
    run_residency_session,
)
from gputelem.stattests import Decision, TestConfig, Verdict
from gputelem.wire import (
    MAX_PAYLOAD,
    MSG_CHALLENGE_BATCH,
    MSG_ERROR,
    MSG_PRE_CHALLENGE,
    MSG_PRE_RESPONSE,
    MSG_RESPONSE_BATCH,
    VERSION,
    WireDecodeError,
    WireMessage,
    decode_record,
    encode_message,
    encode_record,
)
from gputelem.worksim import SimWorker, WorkerProfile

import random


# --- framed socket I/O -----------------------------------------------------------


def test_send_recv_frame_over_socketpair():
    a, b = socket.socketpair()
    try:
        msg = WireMessage(MSG_PRE_CHALLENGE, encode_record({"kind": "pow"}))
        netcli.send_frame(a, msg)
        assert netcli.recv_frame(b) == msg
    finally:
        a.close()
        b.close()


def test_recv_frame_connection_closed():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(netcli.TransportError):
            netcli.recv_frame(b)
    finally:
        b.close()


def test_recv_frame_truncated_payload():
    a, b = socket.socketpair()
    try:
        # header promises 100 bytes; send 3 and hang up
        a.sendall(bytes((VERSION, MSG_CHALLENGE_BATCH)) + b"\x00\x00\x00\x64abc")
        a.close()
        with pytest.raises(netcli.TransportError):
            netcli.recv_frame(b)
    finally:
        b.close()


def test_recv_frame_oversize_announcement():
    a, b = socket.socketpair()
    try:
        a.sendall(bytes((VERSION, MSG_CHALLENGE_BATCH)) + ((256 << 20) + 1).to_bytes(4, "big"))
        with pytest.raises(netcli.TransportError):
            netcli.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_recv_frame_wraps_decode_errors():
    for retired in (b"\x01", b"\x02", b"\x03", b"\x04"):  # retired versions 1-4, valid shape
        a, b = socket.socketpair()
        try:
            a.sendall(retired + b"\x01\x00\x00\x00\x00")
            with pytest.raises(netcli.TransportError):
                netcli.recv_frame(b)
        finally:
            a.close()
            b.close()


def test_recv_frame_refuses_bad_header_before_the_payload():
    a, b = socket.socketpair()
    try:
        b.settimeout(5.0)
        # retired version 1 announcing 100 bytes, then only 3 of them
        a.sendall(b"\x01\x01\x00\x00\x00\x64abc")
        started = time.monotonic()
        with pytest.raises(netcli.TransportError):
            netcli.recv_frame(b)
        assert time.monotonic() - started < 1.0
    finally:
        a.close()
        b.close()


def test_recv_frame_holds_one_copy_of_a_large_payload():
    """An n = 1024 gemm product's 8 MiB, received into one buffer and decoded leaf by leaf."""
    message = WireMessage(MSG_RESPONSE_BATCH, encode_record({"product": bytes(range(256)) * (1 << 15)}))
    frame = encode_message(message)
    size = len(message.payload)
    a, b = socket.socketpair()
    sender = threading.Thread(target=a.sendall, args=(frame,), daemon=True)
    tracemalloc.start()  # the sender's frame is encoded before tracing starts
    try:
        sender.start()
        received = netcli.recv_frame(b)
        _, receive_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        record = decode_record(received.payload)
        _, decode_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sender.join(timeout=10)
        a.close()
        b.close()
    assert received == message
    assert record["product"] == bytes(range(256)) * (1 << 15)
    assert receive_peak < 1.1 * size, f"receiving peaked at {receive_peak / size:.2f}x the payload"
    # the payload and the one byte string cut from it
    assert decode_peak < 2.1 * size, f"decoding peaked at {decode_peak / size:.2f}x the payload"



def test_send_frame_holds_no_copy_of_a_large_payload():
    """An 8 MiB frame goes out from its payload, drained into a buffer made before tracing."""
    message = WireMessage(MSG_RESPONSE_BATCH, bytes(range(256)) * (1 << 15))
    frame = encode_message(message)
    a, b = socket.socketpair()
    drained = bytearray(len(frame))

    def drain():
        with memoryview(drained) as view:
            received = 0
            while received < len(drained) and (count := b.recv_into(view[received:])):
                received += count

    reader = threading.Thread(target=drain, daemon=True)
    tracemalloc.start()
    try:
        reader.start()
        netcli.send_frame(a, message)
        reader.join(timeout=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        a.close()
        b.close()
    assert not reader.is_alive()
    assert drained == frame
    assert peak < 1 << 20, f"sending peaked at {peak / 2**20:.2f} MiB"


def test_send_frame_goes_on_after_a_partial_send():
    class Trickle:
        """A socket whose every send takes at most 4 bytes: the first stops inside the header."""

        def __init__(self):
            self.sent = bytearray()

        def sendmsg(self, buffers):
            joined = b"".join(bytes(view) for view in buffers)[:4]
            self.sent += joined
            return len(joined)

        def sendall(self, data):
            data = memoryview(data)
            while data:
                data = data[self.sendmsg([data]) :]

    message = WireMessage(MSG_PRE_CHALLENGE, encode_record({"kind": "pow"}))
    sock = Trickle()
    netcli.send_frame(sock, message)
    assert sock.sent == encode_message(message)


def test_send_frame_sends_a_small_frame_in_one_call():
    """Header and payload leave in one system call, so no delayed ACK holds the payload."""

    class Counted:
        def __init__(self, sock):
            self.sock, self.calls = sock, 0

        def sendmsg(self, buffers):
            self.calls += 1
            return self.sock.sendmsg(buffers)

    a, b = socket.socketpair()
    try:
        message = WireMessage(MSG_PRE_CHALLENGE, encode_record({"kind": "pow"}))
        counted = Counted(a)
        netcli.send_frame(counted, message)
        assert netcli.recv_frame(b) == message
    finally:
        a.close()
        b.close()
    assert counted.calls == 1


def test_recv_frame_reserves_little_for_a_header_alone():
    """A header announcing the 256 MiB cap, and no payload, holds at most one reserve."""
    a, b = socket.socketpair()
    tracemalloc.start()
    try:
        a.sendall(bytes((VERSION, MSG_RESPONSE_BATCH)) + MAX_PAYLOAD.to_bytes(4, "big") + b"abc")
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(netcli.TransportError, match="closed mid-frame"):
            netcli.recv_frame(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        a.close()
        b.close()
    assert peak < 1.1 * netcli._RECV_RESERVE, f"a bare header reserved {peak} bytes"


@pytest.mark.parametrize("size", [1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 7])
def test_recv_exact_grows_to_the_exact_length(size):
    payload = bytes(range(251)) * (size // 251) + bytes(size % 251)
    a, b = socket.socketpair()
    sender = threading.Thread(target=a.sendall, args=(payload + b"next",), daemon=True)
    try:
        sender.start()
        received = netcli._recv_exact(b, size)
        assert len(received) == size and received == payload
        assert netcli._recv_exact(b, 4) == b"next"  # nothing of the next frame was read
    finally:
        sender.join(timeout=10)
        a.close()
        b.close()

# --- reports -----------------------------------------------------------------------


def test_csv_cell_formatting():
    assert netcli._csv_cell(True) == "1"
    assert netcli._csv_cell(False) == "0"
    assert netcli._csv_cell(0.123456789123) == "0.123456789"
    assert netcli._csv_cell(7) == "7"
    assert netcli._csv_cell("x") == "x"


def test_rows_to_csv_follows_header_order():
    rows = [{"b": 2, "a": 1}, {"a": 3}]
    got = netcli.rows_to_csv(rows, ("a", "b"))
    assert got == "a,b\n1,2\n3,\n"


def test_session_report_exit_codes():
    accept = Decision(Verdict.ACCEPT, 0.1, 0.5, 10, 0, alpha=0.05)
    reject = Decision(Verdict.REJECT, 0.9, 0.5, 10, 10)
    assert netcli.SessionReport("s", "pow", decision=accept).exit_code == 0
    assert netcli.SessionReport("s", "pow", decision=reject).exit_code == 1
    line = netcli.SessionReport("s", "pow", decision=accept).verdict_line()
    assert line == "pow: Accept (statistic=0.1, threshold=0.5, alpha=0.05, rounds=10, invalid=0)"
    line = netcli.SessionReport("s", "residency", decision=reject).verdict_line()
    assert "Reject" in line and "alpha=None" in line and "invalid=10" in line
    # the one report of every mode, read the same way
    assert netcli.SessionReport is SessionReport
    report = SessionReport("s", "residency", decision=reject)
    assert (report.overall_pass, report.invalid_count) == (False, 10)


def test_write_report_emits_csv_and_json(tmp_path):
    report = netcli.SessionReport(
        session_id="abcd",
        kind="pow",
        rows=[
            {
                "session_id": "abcd",
                "round": 0,
                "kind": "pow",
                "total_time_ns": 1200,
                "valid": True,
            }
        ],
        decision=Decision(Verdict.ACCEPT, 0.1, 0.5, 1, 0, alpha=0.05),
        config={"rounds": 1},
    )
    out = tmp_path / "session.csv"
    netcli.write_report(report, str(out))
    csv_text = out.read_text()
    assert csv_text.splitlines()[0] == "session_id,round,kind,total_time_ns,valid"
    assert csv_text.splitlines()[1] == "abcd,0,pow,1200,1"
    summary = json.loads((tmp_path / "session.csv.json").read_text())
    assert summary["decision"] == {
        "verdict": "Accept",
        "statistic": 0.1,
        "threshold": 0.5,
        "alpha": 0.05,
        "samples_used": 1,
        "invalid_count": 0,
    }
    assert summary["rounds"] == 1
    assert summary["config"] == {"rounds": 1}


# --- config plumbing -----------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("kind: pow\nrounds: 5\npow:\n  difficulty: 3\n")
    config = netcli.load_config(str(path))
    assert config == {"kind": "pow", "rounds": 5, "pow": {"difficulty": 3}}
    (tmp_path / "empty.yaml").write_text("")
    assert netcli.load_config(str(tmp_path / "empty.yaml")) == {}
    (tmp_path / "list.yaml").write_text("- 1\n- 2\n")
    with pytest.raises(ValueError):
        netcli.load_config(str(tmp_path / "list.yaml"))


def _profile(raw):
    return netcli._session_plan({"profile": raw}).profile


def _bandwidth(raw):
    return netcli._session_plan({"bandwidth": raw}).model


def test_profile_from_dict_rejects_unknown_fields():
    profile = _profile({"hash_rate_r": 99.0, "network_t0_ns": 5})
    assert profile.hash_rate_r == 99.0 and profile.network_t0_ns == 5
    assert _profile({}) == WorkerProfile()
    with pytest.raises(ValueError):
        _profile({"hash_rate": 99.0})  # typo must not pass silently
    with pytest.raises(ValueError, match="behavior"):
        _profile({"behavior": "honest"})
    with pytest.raises(ValueError, match="threads_M"):
        _profile({"threads_M": 2})  # hash_rate_r is the whole worker's rate


def test_profile_from_dict_coerces_yaml_number_strings():
    # YAML 1.1 floats need a signed exponent: safe_load("2.0e6") gives
    # the string "2.0e6", which must still land as a float.
    loaded = yaml.safe_load("squaring_rate: 2.0e6\nvdf_capacity: '4'\n")
    assert loaded["squaring_rate"] == "2.0e6"
    profile = _profile(loaded)
    assert profile.squaring_rate == 2_000_000.0
    assert profile.vdf_capacity == 4
    assert _profile({"evict_after_round": None}) == WorkerProfile()


def test_profile_from_dict_rejects_garbage_values():
    with pytest.raises(ValueError, match="jitter_rel"):
        _profile({"jitter_rel": "fast"})
    with pytest.raises(ValueError, match="vdf_capacity"):
        _profile({"vdf_capacity": 2.5})  # counts must be whole
    with pytest.raises(ValueError, match="hash_rate_r"):
        _profile({"hash_rate_r": True})


def test_bandwidth_model_from_dict():
    assert _bandwidth({}).hbm_bw == 100e9
    model = _bandwidth({"pci_bw": 5e9, "base_latency_ns": 100})
    assert model.pci_bw == 5e9 and model.base_latency_ns == 100
    wart = _bandwidth({"hbm_bw": "100e9", "base_latency_ns": "5e4"})
    assert wart.hbm_bw == 100e9 and wart.base_latency_ns == 50_000
    with pytest.raises(ValueError, match="pci_bw"):
        _bandwidth({"pci_bw": "wide"})
    with pytest.raises(ValueError, match="bandwidth"):
        _bandwidth({"pci_bandwidth": 5e9})  # typo for pci_bw


@pytest.mark.parametrize(
    "cls, block", [(WorkerProfile, "profile"), (BandwidthModel, "bandwidth")]
)
def test_config_block_fields_round_trip_from_yaml_number_strings(cls, block):
    expected, lines = {}, []
    # every field set: evict_after_round only with the state that reads it
    sample = cls(residency_state="evict_after", evict_after_round=1) if cls is WorkerProfile else cls()
    for f in dataclasses.fields(cls):
        value = getattr(sample, f.name)
        expected[f.name] = value
        # a number with an unsigned exponent is a string to YAML 1.1
        text = value if isinstance(value, str) else f"{value!r}e0"
        lines.append(f"{f.name}: {text}")
    loaded = yaml.safe_load("\n".join(lines))
    assert all(isinstance(v, str) for v in loaded.values())
    parsed = netcli._parse_fields(cls, loaded, block=block)
    assert parsed == cls(**expected)
    assert {k: type(v) for k, v in dataclasses.asdict(parsed).items()} == {
        k: type(v) for k, v in expected.items()
    }


class _Recording(SimWorker):
    """Keeps every pre-challenge it is sent."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent = []

    def pre_challenge(self, record):
        self.sent.append(record)
        return super().pre_challenge(record)


def test_residency_config_without_session_keys_keeps_its_defaults():
    configs = [
        {},
        {"residency": {"argon_memory_kib": 8}},
        {"rounds": 7},
        {"rounds": 7, "residency": {"rounds": 3, "t_max_s": "5e-1", "threshold_ns": "1e6"}},
    ]
    planted, ran = [], []
    for config in configs:
        plan = netcli._session_plan({"kind": "residency", "seed": 1, **config})
        worker = _Recording(WorkerProfile(), seed=1, model=plan.model)
        report = netcli._run_session(worker, plan, random.Random(1))
        (record,) = worker.sent
        planted.append((record["residency"]["size_bytes"], record["residency"]["block_size_bytes"]))
        assert report.config["rounds"] == report.config["residency"]["rounds"] == len(report.rows)
        assert report.config["bandwidth"] == dataclasses.asdict(BandwidthModel())
        ran.append({k: report.config["residency"][k] for k in ("rounds", "t_max_s", "threshold_ns")})
    assert planted == [(64 << 20, 1 << 20)] * len(configs)
    defaults = {
        "rounds": 10,
        "t_max_s": 1.0,
        # worked out before the session, so the sidecar records it
        "threshold_ns": default_threshold_ns(64 << 20, BandwidthModel()),
    }
    assert ran == [
        defaults,
        defaults,  # argon_memory_kib is accepted and ignored
        {**defaults, "rounds": 7},
        {**defaults, "rounds": 3, "t_max_s": 0.5, "threshold_ns": 1_000_000},
    ]
    # the library entry point defaults to the same desk-scale dataset
    signature = inspect.signature(run_residency_session)
    assert signature.parameters["dataset_bytes"].default == 64 << 20


# small puzzles, so a session that is not refused still ends quickly
_SMALL_BLOCKS = {
    "pow": {"difficulty": 1, "argon_memory_kib": 8},
    # vdf.setup_group(128, random.Random(1)).modulus_N
    "vdf": {"modulus_n": 0xA83F7B1F0A6E7073B59999D6A360EA01, "t_min": 16, "t_max": 32},
}


@pytest.mark.parametrize("kind", sorted(_SMALL_BLOCKS))
@pytest.mark.parametrize(
    "key, value",
    [("rounds", 2.5), ("rounds", True), ("lambda_min", True), ("seed", 1.5), ("t0_ns", 0.5)],
)
def test_session_keys_refuse_what_the_parser_refuses(kind, key, value):
    config = {"rounds": 2, kind: _SMALL_BLOCKS[kind]}
    config[key] = value
    with pytest.raises(ValueError, match=key):
        netcli.run_local_session(kind, WorkerProfile(), config, seed=1)


def test_vdf_modulus_bits_goes_through_the_parser():
    config = {"rounds": 2, "vdf": {"modulus_bits": True, "t_min": 16, "t_max": 32}}
    with pytest.raises(ValueError, match="modulus_bits"):
        netcli.run_local_session("vdf", WorkerProfile(), config, seed=1)


@pytest.mark.parametrize("bits", [32, 64, 127, 256, 4096])
def test_a_fresh_vdf_group_is_a_production_size(bits):
    # setup_group takes 12-127 bits as fixture sizes; a session must not
    config = {"rounds": 2, "vdf": {"modulus_bits": bits, "t_min": 16, "t_max": 32}}
    with pytest.raises(ValueError, match="modulus_bits"):
        netcli.run_local_session("vdf", WorkerProfile(), config, seed=1)


def test_session_keys_accept_yaml_number_strings():
    config = {"rounds": "2e1", "lambda_min": "1e-3", "pow": _SMALL_BLOCKS["pow"]}
    report = netcli.run_local_session("pow", WorkerProfile(), config, seed=1)
    assert len(report.rows) == 20
    assert report.decision.samples_used == 20
    # the report records the values that ran, typed, with the defaults
    assert report.config == {
        "kind": "pow",
        "seed": 1,
        "rounds": 20,
        "lambda_min": 1e-3,
        "t0_ns": 0,
        "pow": {"difficulty": 1, "argon_passes": 1, "argon_lanes": 1, "argon_memory_kib": 8},
    }


def test_report_config_records_a_fresh_vdf_group():
    config = {"rounds": 1, "vdf": {"modulus_bits": 128, "t_min": 16, "t_max": 32}}
    report = netcli.run_local_session("vdf", WorkerProfile(), config, seed=1)
    modulus_n = report.config["vdf"]["modulus_n"]
    assert isinstance(modulus_n, int) and modulus_n.bit_length() == 128
    assert report.config["vdf"]["instances"] == 4


def test_two_sessions_on_one_seed_draw_different_vdf_groups():
    """The group is not drawn from the seed, which every sidecar records:
    whoever could redraw it would hold its factors and skip the delay."""
    config = {"rounds": 1, "vdf": {"modulus_bits": 128, "t_min": 16, "t_max": 32}}
    moduli = {
        netcli.run_local_session("vdf", WorkerProfile(), config, seed=0).config["vdf"]["modulus_n"]
        for _ in range(2)
    }
    assert len(moduli) == 2
    assert vdf.setup_group(128, random.Random("vdf-group-0")).modulus_N not in moduli


def test_a_vdf_block_names_modulus_n_or_modulus_bits_not_both():
    block = {**_SMALL_BLOCKS["vdf"], "modulus_bits": 2048}
    with pytest.raises(ValueError, match="modulus_bits"):
        netcli.run_local_session("vdf", WorkerProfile(), {"rounds": 1, "vdf": block}, seed=1)
    with pytest.raises(ValueError, match="modulus_bits"):
        netcli.worker_server({"vdf": block, "listen": "127.0.0.1:0"})


def test_a_fresh_vdf_group_session_replays_from_its_own_sidecar(tmp_path):
    config = {"rounds": 2, "vdf": {"modulus_bits": 128, "t_min": 16, "t_max": 32}}
    report = netcli.run_local_session("vdf", WorkerProfile(), config, seed=1)
    replay = netcli.run_local_session("vdf", WorkerProfile(), report.config, seed=1)
    assert replay.config == report.config
    netcli.write_report(report, str(tmp_path / "first.csv"))
    netcli.write_report(replay, str(tmp_path / "replay.csv"))
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "replay.csv").read_bytes()


def test_a_vdf_daemon_draws_no_group(monkeypatch):
    """A worker answers the group each challenge names; only a session draws one."""

    def draw(*args, **kwargs):
        pytest.fail("the daemon drew a vdf group it never reads")

    monkeypatch.setattr(netcli, "setup_group", draw)
    daemon = netcli.worker_server({"kind": "vdf", "vdf": {"modulus_bits": 2048}, "listen": "127.0.0.1:0"})
    daemon.close()
    assert daemon.plan.session.kind == "vdf"


def test_run_local_session_refuses_a_config_seed_it_would_not_run():
    config = {"rounds": 2, "seed": 5, "pow": _SMALL_BLOCKS["pow"]}
    with pytest.raises(ValueError, match="seed"):
        netcli.run_local_session("pow", WorkerProfile(), config, seed=0)
    report = netcli.run_local_session("pow", WorkerProfile(), config, seed=5)
    assert report.config["seed"] == 5
    # a config without a seed runs on the argument
    del config["seed"]
    assert len(netcli.run_local_session("pow", WorkerProfile(), config, seed=0).rows) == 2


@pytest.mark.parametrize(
    "config",
    [{"lambda_min": float("nan")}, {"profile": {"hash_rate_r": float("inf")}}, {"pow": {"difficulty": "nan"}}],
    ids=["nan-lambda_min", "inf-hash_rate_r", "nan-difficulty"],
)
def test_a_number_that_is_not_finite_is_refused_before_a_verdict(config):
    # a NaN threshold used to reach a Reject, and its sidecar held NaN, not JSON
    base = {"rounds": 3, "pow": {"difficulty": 0, "argon_memory_kib": 8}}
    with pytest.raises(ValueError, match="expected"):
        netcli.run_local_session("pow", WorkerProfile(), {**base, **config}, seed=1)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (WorkerProfile, {"hash_rate_r": math.inf}),
        (WorkerProfile, {"squaring_rate": math.nan}),
        (WorkerProfile, {"contention_factor": math.inf}),
        (WorkerProfile, {"tensor_contention": math.nan}),
        (WorkerProfile, {"memory_contention": math.inf}),
        (WorkerProfile, {"network_t0_ns": math.nan}),
        (WorkerProfile, {"vdf_capacity": math.inf}),
        (WorkerProfile, {"residency_state": "evict_after", "evict_after_round": math.nan}),
        (netcli.SessionSettings, {"lambda_min": math.nan}),
        (netcli.SessionSettings, {"lambda_min": math.inf}),
        (netcli.SessionSettings, {"rounds": math.nan}),
        (netcli.SessionSettings, {"t0_ns": math.inf}),
        (ResidencySettings, {"rounds": math.nan}),
        (ResidencySettings, {"dataset_mib": math.inf}),
        (ResidencySettings, {"block_kib": math.nan}),
        (ResidencySettings, {"threshold_ns": math.nan}),
        (PowParams, {"argon_passes": math.nan}),
        (PowParams, {"argon_lanes": math.nan}),
        (PowParams, {"argon_memory_kib": math.nan}),
        (BandwidthModel, {"hbm_bw": math.inf}),
        (BandwidthModel, {"base_latency_ns": math.nan}),
        (TestConfig, {"lambda_min": math.nan, "alpha": 0.05}),
        (TestConfig, {"lambda_min": 1.0, "alpha": 0.05, "t_window_s": math.inf}),
        (TestConfig, {"lambda_min": 1.0, "alpha": 0.05, "t_window_s": math.nan}),
    ],
)
def test_library_constructors_refuse_a_number_that_is_not_finite(cls, kwargs):
    # built in Python, not through a config: the range check alone refuses it
    with pytest.raises(ValueError, match="finite"):
        cls(**kwargs)


@pytest.mark.parametrize("kind", ["vdf", "bogus", 7])
def test_run_local_session_refuses_a_config_kind_it_would_not_run(kind):
    config = {"rounds": 2, "pow": {"difficulty": 0, "argon_memory_kib": 8}, "kind": kind}
    with pytest.raises(ValueError, match="kind"):
        netcli.run_local_session("pow", WorkerProfile(), config, seed=1)
    report = netcli.run_local_session("pow", WorkerProfile(), {**config, "kind": "pow"}, seed=1)
    assert report.kind == report.config["kind"] == "pow"


def test_a_quoted_seed_runs_the_session_it_names(tmp_path):
    seed = (1 << 53) + 1  # through a float it would read as 2^53
    config = {"rounds": 2, "seed": str(seed), "pow": _SMALL_BLOCKS["pow"]}
    report = netcli.run_local_session("pow", WorkerProfile(), config, seed=seed)
    unquoted = netcli.run_local_session("pow", WorkerProfile(), {**config, "seed": seed}, seed=seed)
    assert report.session_id == unquoted.session_id
    netcli.write_report(report, str(tmp_path / "r.csv"))
    assert json.loads((tmp_path / "r.csv.json").read_text())["config"]["seed"] == seed


@pytest.mark.parametrize("kind", ["pow", "vdf", "gemm", "residency"])
def test_a_puzzle_pre_challenge_holds_only_the_session_and_kind(kind):
    """Each round's params travel in its own challenge, so the
    pre-challenge of a pow, vdf or gemm session names none; a residency
    one adds only the seed and shape of the dataset to plant."""
    blocks = {
        **_SMALL_BLOCKS,
        "gemm": {"dimension_n": 8, "difficulty_d": 1},
        "residency": {"dataset_mib": 1, "block_kib": 256},
    }
    plan = netcli._session_plan({"kind": kind, "rounds": 1, kind: blocks[kind]})
    worker = _Recording(WorkerProfile(), seed=1)
    report = netcli._run_session(worker, plan, random.Random(1))
    assert len(report.rows) == 1 and report.rows[0]["valid"]
    expected = {"session_id": bytes.fromhex(report.session_id), "kind": kind}
    if kind == "residency":
        seed = worker.sent[0]["residency"]["seed"]
        assert isinstance(seed, bytes) and len(seed) == 32
        expected["residency"] = {"seed": seed, "size_bytes": 1 << 20, "block_size_bytes": 256 << 10}
    assert worker.sent == [expected]


def test_run_local_session_refuses_a_config_profile_it_would_not_run():
    """A slow worker named in the config, not the fast argument that would be accepted."""
    config = {
        "rounds": 20,
        "lambda_min": 10.0,
        "pow": {"difficulty": 4, "argon_memory_kib": 8},
        "profile": {"hash_rate_r": 1.0},
    }
    with pytest.raises(ValueError, match="profile"):
        netcli.run_local_session("pow", WorkerProfile(hash_rate_r=4096.0), config, seed=0)
    report = netcli.run_local_session("pow", WorkerProfile(hash_rate_r=1.0), config, seed=0)
    assert report.decision.verdict is Verdict.REJECT
    # the block is parsed before it is compared, so a misspelt key is named
    with pytest.raises(ValueError, match="hash_rate_rr"):
        netcli.run_local_session("pow", WorkerProfile(), {"profile": {"hash_rate_rr": 1.0}}, seed=0)


def test_a_null_mode_block_takes_the_defaults():
    # YAML reads a block key with no value ("gemm:") as None
    report = netcli.run_local_session("gemm", WorkerProfile(), {"rounds": 2, "gemm": None}, seed=1)
    assert len(report.rows) == 2


def test_parse_address():
    assert netcli._parse_address("10.0.0.1:9000", "worker") == ("10.0.0.1", 9000)
    assert netcli._parse_address(":8000", "listen") == ("127.0.0.1", 8000)
    assert netcli._parse_address("h:65535", "worker") == ("h", 65535)
    with pytest.raises(ValueError):
        netcli._parse_address("no-port", "worker")
    # bind() and connect() raise OverflowError on it, which no caller maps to exit 2
    for key in ("worker", "listen"):
        with pytest.raises(ValueError, match=f"bad {key} address"):
            netcli._session_plan({key: "127.0.0.1:70000"})


# --- daemon over TCP ------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    handle = netcli.serve_worker_background(
        {"profile": {"hash_rate_r": 4096.0, "squaring_rate": 1e6}, "seed": 70, "listen": "127.0.0.1:0"}
    )
    yield handle
    handle.close()


def test_both_daemon_builders_hold_the_plan_of_one_config():
    config = {
        "seed": 12,
        "listen": "127.0.0.1:0",
        "profile": {"hash_rate_r": 64.0, "network_t0_ns": 5},
        "bandwidth": {"pci_bw": 5e9},
    }
    bound = netcli.worker_server(config)
    serving = netcli.serve_worker_background(config)
    try:
        assert bound.plan == serving.plan == netcli._session_plan(config)
        assert bound.address[1] not in (0, serving.address[1])
    finally:
        serving.close()
        # a daemon that never served closes without waiting for serve_forever
        closer = threading.Thread(target=bound.close, daemon=True)
        closer.start()
        closer.join(timeout=5)
    assert not closer.is_alive()


def test_serve_worker_background_refuses_a_bad_key_before_binding(monkeypatch):
    def bind(self, plan):
        pytest.fail("the daemon was built from a config it should have refused")

    monkeypatch.setattr(netcli.WorkerDaemon, "__init__", bind)
    with pytest.raises(ValueError, match="hash_rate"):
        netcli.serve_worker_background({"profile": {"hash_rate": 64.0}, "listen": "127.0.0.1:0"})


def test_remote_worker_pow_round_trip(daemon):
    remote = netcli.RemoteWorker(daemon.address)
    try:
        ack = remote.pre_challenge({"session_id": b"\x11" * 32, "kind": "pow"})
        assert ack["status"] == "ok"
        challenge = build_challenge(
            b"\x11" * 32,
            0,
            "pow",
            random.Random(1),
            remote.clock.now(),
            {"difficulty": 2, "argon_memory_kib": 8},
        )
        response = remote.answer(challenge)
        assert response.matches(challenge)
        assert "nonce" in response.payload
    finally:
        remote.close()


def test_daemon_error_reply_keeps_connection_alive(daemon):
    sock = socket.create_connection(daemon.address, timeout=10)
    try:
        # structurally valid frame, nonsense record: daemon must answer
        # an Error frame and keep serving on the same connection
        netcli.send_frame(
            sock, WireMessage(MSG_PRE_CHALLENGE, encode_record({"kind": "quantum"}))
        )
        reply = netcli.recv_frame(sock)
        assert reply.msg_type == MSG_ERROR
        assert "quantum" in decode_record(reply.payload)["detail"]
        # missing fields: also an error, also non-fatal
        netcli.send_frame(sock, WireMessage(MSG_CHALLENGE_BATCH, encode_record({})))
        assert netcli.recv_frame(sock).msg_type == MSG_ERROR
        # and the session still works afterwards
        netcli.send_frame(
            sock,
            WireMessage(
                MSG_PRE_CHALLENGE,
                encode_record({"session_id": b"\x22" * 32, "kind": "pow"}),
            ),
        )
        assert netcli.recv_frame(sock).msg_type == MSG_PRE_RESPONSE
    finally:
        sock.close()


def test_remote_gemm_round_on_the_default_dimension_is_valid(daemon):
    """n comes from the params as the worker parses them, so a challenge
    without ``dimension_n`` is judged as it is in process."""
    remote = netcli.RemoteWorker(daemon.address)
    try:
        driver = SessionDriver(
            worker=remote, mode="gemm", params={"difficulty_d": 0}, rng=random.Random(5),
            session_id=b"\x05" * 32,
        )
        assert driver.run_round(0).valid
    finally:
        remote.close()


@pytest.mark.parametrize(
    "bad",
    [{"t_max": 1 << 40}, {"instances": 10**8}, {"modulus_n": (1 << 14279) | 1}],
    ids=["t_max", "instances", "modulus_n"],
)
def test_daemon_refuses_an_unbounded_vdf_challenge_then_answers_a_good_one(daemon, bad):
    # a 2^40 delay, 10^8 instances or a 14280-bit modulus would hold a
    # serving thread for good; the worker parses the params, answers an Error frame and keeps serving
    params = {"modulus_n": 0xA83F7B1F0A6E7073B59999D6A360EA01, "t_min": 16, "t_max": 32}
    sock = socket.create_connection(daemon.address, timeout=10)

    def round_trip(index, round_params):
        challenge = build_challenge(
            b"\x55" * 32, index, "vdf", random.Random(index), 0.0, round_params
        )
        record = encode_record(challenge_record(challenge))
        netcli.send_frame(sock, WireMessage(MSG_CHALLENGE_BATCH, record))
        return challenge, netcli.recv_frame(sock)

    try:
        _, refused = round_trip(0, dict(params, **bad))
        assert refused.msg_type == MSG_ERROR
        (key,) = bad
        assert key in decode_record(refused.payload)["detail"]
        challenge, reply = round_trip(1, params)
        assert reply.msg_type == MSG_RESPONSE_BATCH
        assert validate_response(challenge, parse_response(decode_record(reply.payload)))
    finally:
        sock.close()


def test_daemon_residency_challenge_before_pre_challenge_is_an_error(daemon):
    sock = socket.create_connection(daemon.address, timeout=10)
    try:
        challenge = build_challenge(
            b"\x44" * 32, 0, "residency", random.Random(2), 0.0, {}
        )
        netcli.send_frame(
            sock,
            WireMessage(
                MSG_CHALLENGE_BATCH, encode_record(challenge_record(challenge))
            ),
        )
        assert netcli.recv_frame(sock).msg_type == MSG_ERROR
        netcli.send_frame(
            sock,
            WireMessage(
                MSG_PRE_CHALLENGE,
                encode_record({"session_id": b"\x44" * 32, "kind": "pow"}),
            ),
        )
        assert netcli.recv_frame(sock).msg_type == MSG_PRE_RESPONSE
    finally:
        sock.close()


def test_daemon_closes_connection_on_undecodable_stream(daemon):
    sock = socket.create_connection(daemon.address, timeout=10)
    try:
        sock.sendall(b"\x01\x01\x00\x00\x00\x00")  # retired version 1: stream is untrusted
        assert sock.recv(1) == b""  # server hangs up
    finally:
        sock.close()


def test_daemon_refuses_a_tebibyte_dataset_before_allocating(daemon):
    remote = netcli.RemoteWorker(daemon.address)
    planted = {"seed": b"seed", "size_bytes": 1 << 40, "block_size_bytes": 1 << 20}
    tracemalloc.start()  # the daemon serves on a thread of this process
    try:
        with pytest.raises(ProtocolError, match="dataset size"):
            remote.pre_challenge(
                {"session_id": b"\x55" * 32, "kind": "residency", "residency": planted}
            )
        _, peak = tracemalloc.get_traced_memory()
        # the connection still serves
        ack = remote.pre_challenge({"session_id": b"\x55" * 32, "kind": "pow"})
    finally:
        tracemalloc.stop()
        remote.close()
    assert ack["status"] == "ok"
    assert peak < 1 << 20, f"refusing peaked at {peak} bytes"


def test_remote_worker_error_reply_raises_protocol_error(daemon):
    remote = netcli.RemoteWorker(daemon.address)
    try:
        with pytest.raises(ProtocolError):
            remote.pre_challenge({"session_id": b"\x33" * 32, "kind": "quantum"})
    finally:
        remote.close()


def test_worker_error_frame_of_list_indices_is_an_error_not_a_crash(tmp_path, capsys):
    """An error frame whose record is top-level list indices is a decode
    error, which ``challenger run`` reports with exit 2, not a traceback."""
    listener = socket.create_server(("127.0.0.1", 0))
    bad = WireMessage(MSG_ERROR, b"0=i:1\n\n")

    def fake_worker():
        for _ in range(2):  # run_challenger, then the CLI
            conn, _ = listener.accept()
            with conn:
                netcli.recv_frame(conn)  # the pre-challenge
                netcli.send_frame(conn, bad)
                conn.recv(1)  # until the challenger hangs up

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    try:
        worker = "127.0.0.1:%d" % listener.getsockname()[1]
        with pytest.raises(WireDecodeError):
            netcli.run_challenger({"kind": "pow", "worker": worker, "rounds": 2})
        config = tmp_path / "c.yaml"
        config.write_text(f"worker: {worker}\nrounds: 2\n")
        code = cli.challenger_main(
            ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
        )
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert code == cli.EXIT_ERROR
    assert "list indices" in capsys.readouterr().err


def test_run_challenger_pow_accepts_over_tcp(daemon, tmp_path):
    config = {
        "kind": "pow",
        "seed": 5,
        "worker": "%s:%d" % daemon.address,
        "rounds": 6,
        "lambda_min": 5.0,
        "pow": {"difficulty": 2, "argon_memory_kib": 8},
    }
    out = tmp_path / "pow.csv"
    report = netcli.run_challenger(config, out_path=str(out))
    assert report.decision.verdict is Verdict.ACCEPT
    assert report.exit_code == 0
    assert len(report.rows) == 6
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + 6 rounds
    summary = json.loads((tmp_path / "pow.csv.json").read_text())
    assert summary["decision"]["verdict"] == "Accept"


def test_run_challenger_gemm_over_tcp(daemon):
    config = {
        "kind": "gemm",
        "seed": 6,
        "worker": "%s:%d" % daemon.address,
        "rounds": 4,
        "lambda_min": 5.0,
        "gemm": {"dimension_n": 8, "difficulty_d": 2, "freivalds_k": 3},
    }
    report = netcli.run_challenger(config)
    assert report.decision.verdict is Verdict.ACCEPT
    assert all(row["valid"] for row in report.rows)


def test_run_challenger_residency_over_tcp(daemon):
    config = {
        "kind": "residency",
        "seed": 7,
        "worker": "%s:%d" % daemon.address,
        "residency": {
            "rounds": 3,
            "t_max_s": 0.01,
            "dataset_mib": 1,
            "block_kib": 256,
            # unshaped replies arrive in microseconds; classify against
            # a generous bound so the round validity is what is tested
            "threshold_ns": 2_000_000_000,
        },
    }
    report = netcli.run_challenger(config)
    assert report.decision.verdict is Verdict.ACCEPT
    assert all(row["valid"] for row in report.rows)
    assert len(report.rows) == 3


@pytest.mark.parametrize("over_tcp", [False, True], ids=["in-process", "tcp"])
@pytest.mark.parametrize("kernel_time_ns", ["abc", [1, 2], -1], ids=["str", "list", "negative"])
def test_a_malformed_kernel_time_makes_the_round_invalid(monkeypatch, kernel_time_ns, over_tcp):
    """A reported kernel time is recorded, never trusted; one the report
    cannot carry fails its round instead of ending the session in an error."""

    class Misreporting(netcli.SimWorker):
        def answer(self, challenge):
            response = super().answer(challenge)
            payload = {**response.payload, "kernel_time_ns": kernel_time_ns}
            return dataclasses.replace(response, payload=payload)

    monkeypatch.setattr(netcli, "SimWorker", Misreporting)
    block = {
        "rounds": 2,
        "t_max_s": 0.01,
        "dataset_mib": 1,
        "block_kib": 256,
        "threshold_ns": 2_000_000_000,
    }
    if over_tcp:
        handle = netcli.serve_worker_background({"seed": 72, "listen": "127.0.0.1:0"})
        try:
            worker = "%s:%d" % handle.address
            report = netcli.run_challenger({"kind": "residency", "worker": worker, "residency": block})
        finally:
            handle.close()
    else:
        report = netcli.run_local_session("residency", WorkerProfile(), {"residency": block}, seed=4)
    assert report.decision.verdict is Verdict.REJECT and report.exit_code == 1
    assert report.decision.invalid_count == 2
    assert [(row["valid"], row["kernel_ns"]) for row in report.rows] == [(False, 0)] * 2


@pytest.mark.parametrize("entry", ["run_challenger", "run_local_session", "worker_server"])
def test_each_entry_point_parses_each_block_once(monkeypatch, daemon, entry):
    counts = collections.Counter()
    parse = netcli._parse_fields

    def counting_parse(cls, raw, block=""):
        counts[cls.__name__] += 1
        return parse(cls, raw, block)

    monkeypatch.setattr(netcli, "_parse_fields", counting_parse)
    config = {
        "kind": "pow",
        "rounds": 1,
        "pow": {"difficulty": 1, "argon_memory_kib": 8},
        "profile": {"hash_rate_r": 4096.0},
        "bandwidth": {"pci_bw": 5e9},
    }
    if entry == "run_challenger":
        netcli.run_challenger({**config, "worker": "%s:%d" % daemon.address})
    elif entry == "run_local_session":
        netcli.run_local_session("pow", WorkerProfile(hash_rate_r=4096.0), config, seed=1)
    else:
        netcli.worker_server({**config, "listen": "127.0.0.1:0"}).server_close()
    blocks = ("SessionSettings", "WorkerProfile", "BandwidthModel")
    assert {name: counts[name] for name in blocks} == dict.fromkeys(blocks, 1)


@pytest.mark.parametrize("report", [None, "new", "existing"])
def test_run_challenger_no_worker_raises_transport_error(tmp_path, report):
    """A failed session removes the report files its write check made,
    and leaves a report that was already there as it was."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    config = {"kind": "pow", "worker": f"127.0.0.1:{dead_port}", "rounds": 1}
    out_path = str(tmp_path / "r.csv") if report else None
    if report == "existing":
        (tmp_path / "r.csv").write_text("round\n")
        (tmp_path / "r.csv.json").write_text("{}")
    with pytest.raises(netcli.TransportError):
        netcli.run_challenger(config, out_path)
    left = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert left == ({"r.csv": "round\n", "r.csv.json": "{}"} if report == "existing" else {})


def test_run_challenger_rejects_unknown_kind():
    with pytest.raises(ValueError):
        netcli.run_challenger({"kind": "quantum"})


def test_shaped_latency_reject_over_tcp(tmp_path):
    """A slow worker waits out its modeled latency on the wall clock and
    earns a Reject verdict; every round the challenger times includes
    the profile's 50 ms network offset."""
    handle = netcli.serve_worker_background(
        {
            "profile": {"hash_rate_r": 32.0, "network_t0_ns": 50_000_000},
            "seed": 71,
            "listen": "127.0.0.1:0",
        }
    )
    try:
        config = {
            "kind": "pow",
            "seed": 9,
            "worker": "%s:%d" % handle.address,
            "rounds": 6,
            "lambda_min": 40.0,
            "pow": {"difficulty": 2, "argon_memory_kib": 8},
        }
        report = netcli.run_challenger(config)
        assert report.decision.verdict is Verdict.REJECT
        assert report.exit_code == 1
        assert len(report.rows) == 6
        assert all(row["total_ns"] >= 50_000_000 for row in report.rows)
    finally:
        handle.close()


# --- local sessions --------------------------------------------------------------------


def test_run_local_session_accept_and_reject():
    config = {
        "rounds": 12,
        "lambda_min": 2.0,
        "pow": {"difficulty": 4, "argon_memory_kib": 8},
    }
    fast = netcli.run_local_session(
        "pow", WorkerProfile(hash_rate_r=128.0), config, seed=1
    )
    slow = netcli.run_local_session(
        "pow", WorkerProfile(hash_rate_r=8.0), config, seed=1
    )
    assert fast.decision.verdict is Verdict.ACCEPT
    assert slow.decision.verdict is Verdict.REJECT
    assert fast.rows[0]["kind"] == "pow"


def test_every_mode_writes_one_row_layout():
    configs = {
        "pow": {"pow": {"difficulty": 1, "argon_memory_kib": 8}},
        "gemm": {"gemm": {"dimension_n": 8, "difficulty_d": 0}},
        "vdf": {"vdf": {"modulus_n": _SMALL_BLOCKS["vdf"]["modulus_n"], "t_min": 16, "t_max": 32}},
        "residency": {"residency": {"dataset_mib": 1, "block_kib": 256}},
    }
    reports = {
        kind: netcli.run_local_session(kind, WorkerProfile(), {"rounds": 2, **config}, seed=3)
        for kind, config in configs.items()
    }
    assert {tuple(report.rows[0]) for report in reports.values()} == {
        ("session_id", "round", "kind", "salt_digest", "total_ns", "kernel_ns", "verdict", "valid")
    }
    for kind, report in reports.items():
        assert [row["kind"] for row in report.rows] == [kind, kind]
        assert all(row["session_id"] == report.session_id for row in report.rows)
        # only residency labels its rounds; every mode keeps the kernel time
        labels = {row["verdict"] for row in report.rows}
        assert labels <= ({"Hot", "Cold"} if kind == "residency" else {""})
        assert all(row["kernel_ns"] > 0 for row in report.rows)


def test_run_local_session_residency_report_shape():
    config = {
        "residency": {
            "rounds": 4,
            "t_max_s": 1.0,
            "dataset_mib": 1,
            "block_kib": 256,
        }
    }
    report = netcli.run_local_session("residency", WorkerProfile(), config, seed=2)
    assert report.kind == "residency"
    assert report.decision.verdict is Verdict.ACCEPT
    assert report.decision.statistic == 0.0
    assert report.decision.alpha is None
    # the effective round count and threshold, and the model that ran
    assert report.config["rounds"] == report.config["residency"]["rounds"] == 4
    assert report.config["residency"]["threshold_ns"] == default_threshold_ns(1 << 20, BandwidthModel())
    assert report.config["bandwidth"] == dataclasses.asdict(BandwidthModel())
    assert len(report.rows) == 4


def test_run_local_session_residency_flags_eviction():
    config = {
        "residency": {
            "rounds": 6,
            "t_max_s": 1.0,
            "dataset_mib": 1,
            "block_kib": 256,
        }
    }
    profile = WorkerProfile(residency_state="evict_after", evict_after_round=3)
    report = netcli.run_local_session("residency", profile, config, seed=3)
    assert report.decision.verdict is Verdict.REJECT
    verdicts = [row["verdict"] for row in report.rows]
    assert verdicts == ["Hot"] * 3 + ["Cold"] * 3


@pytest.mark.parametrize("state, verdict", [("hot", Verdict.ACCEPT), ("cold", Verdict.REJECT)])
def test_run_local_session_worker_simulates_the_configured_bus(state, verdict):
    """The worker's cold probes pay the config's slow bus, the one the
    threshold was worked out from, not the default ten times faster one."""
    config = {"residency": {"rounds": 3, "dataset_mib": 4}, "bandwidth": {"pci_bw": 1e9}}
    report = netcli.run_local_session("residency", WorkerProfile(residency_state=state), config, seed=1)
    assert report.config["bandwidth"]["pci_bw"] == 1e9
    assert report.decision.verdict is verdict
    assert [row["verdict"] for row in report.rows] == [state.capitalize()] * 3


def test_local_session_reports_are_byte_deterministic(tmp_path):
    config = {
        "rounds": 8,
        "lambda_min": 2.0,
        "seed": 4,
        "pow": {"difficulty": 4, "argon_memory_kib": 8},
    }
    outs = []
    for name in ("a", "b"):
        report = netcli.run_local_session(
            "pow", WorkerProfile(hash_rate_r=128.0), config, seed=4
        )
        out = tmp_path / f"{name}.csv"
        netcli.write_report(report, str(out))
        outs.append(
            (out.read_bytes(), (tmp_path / f"{name}.csv.json").read_bytes())
        )
    assert outs[0] == outs[1]
