"""Command-line entry point tests.

These call the mains directly with argv lists; criterion 8 of the
acceptance suite runs them as subprocesses through ``python -m
gputelem.cli``, and CI runs the installed console scripts on a
malformed config. Exit-code semantics: 0 Accept, 1 Reject, 2 an error.
"""

import json
import socket
import threading

import pytest

from gputelem import cli, gemm, netcli, residency, wire
from gputelem.worksim import WorkerProfile

# vdf.setup_group(128, random.Random(1)).modulus_N
_MODULUS_128 = 0xA83F7B1F0A6E7073B59999D6A360EA01


@pytest.fixture(scope="module")
def daemon():
    handle = netcli.serve_worker_background(
        {"profile": {"hash_rate_r": 4096.0}, "seed": 80, "listen": "127.0.0.1:0"}
    )
    yield handle
    handle.close()


def _no_connection(*args, **kwargs):
    pytest.fail("the challenger connected before refusing the config")


def _config_file(tmp_path, daemon, **extra):
    body = {
        "worker": "%s:%d" % daemon.address,
        "rounds": 5,
        "lambda_min": 5.0,
        "pow": {"difficulty": 2, "argon_memory_kib": 8},
    }
    body.update(extra)
    lines = []
    for key, value in body.items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        else:
            lines.append(f"{key}: {value}")
    path = tmp_path / "config.yaml"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_challenger_accept_path(tmp_path, daemon, capsys):
    config = _config_file(tmp_path, daemon)
    out = tmp_path / "report.csv"
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(out), "--seed", "3"]
    )
    assert code == cli.EXIT_ACCEPT
    printed = capsys.readouterr().out
    assert printed.startswith("pow: Accept")
    assert out.exists() and (tmp_path / "report.csv.json").exists()


def test_challenger_reject_path(tmp_path, capsys):
    slow = netcli.serve_worker_background(
        {"profile": {"hash_rate_r": 32.0}, "seed": 81, "listen": "127.0.0.1:0"}
    )
    try:
        config = _config_file(tmp_path, slow, lambda_min=40.0)
        out = tmp_path / "slow.csv"
        code = cli.challenger_main(
            ["run", "--mode", "pow", "--config", str(config), "--out", str(out)]
        )
        assert code == cli.EXIT_REJECT
        assert capsys.readouterr().out.startswith("pow: Reject")
    finally:
        slow.close()


def test_challenger_missing_config(tmp_path, capsys):
    code = cli.challenger_main(
        [
            "run",
            "--mode", "pow",
            "--config", str(tmp_path / "absent.yaml"),
            "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


MALFORMED_YAML = "rounds: [1\n"  # an unclosed flow sequence


def test_challenger_malformed_config_is_an_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(MALFORMED_YAML)
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "cannot parse" in capsys.readouterr().err


def test_challenger_unwritable_report_is_an_error_not_a_verdict(
    tmp_path, daemon, monkeypatch, capsys
):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    config = _config_file(tmp_path, daemon)
    out = tmp_path / "missing-dir" / "r.csv"
    code = cli.challenger_main(["run", "--mode", "pow", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_ERROR
    assert "missing-dir" in capsys.readouterr().err


def test_challenger_refuses_a_fractional_round_count(tmp_path, daemon, capsys):
    config = _config_file(tmp_path, daemon, rounds=2.5)
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "rounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("rounds", 0), ("lambda_min", 0.0), ("lambda_min", -1.0), ("t0_ns", -1)],
)
def test_challenger_refuses_bad_session_values_before_connecting(
    tmp_path, daemon, monkeypatch, capsys, key, value
):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    config = _config_file(tmp_path, daemon, **{key: value})
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_challenger_refuses_an_unusable_gemm_size_before_connecting(
    tmp_path, daemon, monkeypatch, capsys
):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    config = _config_file(tmp_path, daemon, gemm={"dimension_n": gemm._MAX_DIM + 1})
    code = cli.challenger_main(
        ["run", "--mode", "gemm", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "dimension" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_max_s", 0),
        ("dataset_mib", 0),
        ("dataset_mib", (residency.MAX_DATASET_BYTES >> 20) + 1),
        ("block_kib", 0),
        ("threshold_ns", -5),
        ("rounds", 0),
    ],
)
def test_challenger_refuses_bad_residency_values_before_connecting(
    tmp_path, daemon, monkeypatch, capsys, key, value
):
    _assert_refused_before_connecting(
        tmp_path, daemon, monkeypatch, capsys, "residency", {"residency": {key: value}}, key
    )


@pytest.mark.parametrize(
    "block, key",
    [
        ({"instances": 0}, "instances"),
        ({"instances": -1}, "instances"),
        ({"t_min": 0}, "t_min"),
        ({"t_min": 10, "t_max": 5}, "t_max"),
        ({"modulus_n": 1080}, "modulus_n"),
        ({"modulus_bits": 32}, "modulus_bits"),
        # a fresh group's size beside a named modulus: one of them would be ignored
        ({"modulus_n": _MODULUS_128, "modulus_bits": 2048}, "modulus_bits"),
        ({"instances": 10**8}, "instances"),
        ({"t_max": 2**40}, "t_max"),
        ({"modulus_n": (1 << 14279) | 1}, "modulus_n"),
        # each in range, but 4096 chains of 2^24 squarings for one serving thread
        ({"instances": 4096, "t_max": 1 << 24}, "t_max must be at most"),
    ],
)
def test_challenger_refuses_bad_vdf_values_before_connecting(
    tmp_path, daemon, monkeypatch, capsys, block, key
):
    _assert_refused_before_connecting(
        tmp_path, daemon, monkeypatch, capsys, "vdf", {"vdf": block}, key
    )


@pytest.mark.parametrize(
    "mode, config, key",
    [
        ("pow", {"lamda_min": 50.0}, "lamda_min"),
        ("pow", {"pow": {"difficuly": 20, "argon_memory_kib": 8}}, "difficuly"),
        ("vdf", {"vdf": {"modulus_bitz": 1024}}, "modulus_bitz"),
        ("gemm", {"gemm": {"dimension": 8}}, "dimension"),
        ("residency", {"residency": {"dataset_mb": 1}}, "dataset_mb"),
        ("pow", {"pow": 5}, "pow must be a key-value block"),
        ("pow", {"interval_s": -0.5}, "interval_s"),
        # a block the session does not read is parsed all the same
        ("pow", {"vdf": {"modulus_bitz": 1}}, "modulus_bitz"),
        ("pow", {"bandwidth": {"hbm_bww": 1}}, "hbm_bww"),
        ("pow", {"gemm": {"dimension": 8}}, "dimension"),
        ("gemm", {"residency": {"dataset_mb": 1}}, "dataset_mb"),
        ("pow", {"profile": {"hash_rate": 1}}, "hash_rate"),
        ("pow", {"vdf": {"t_min": 0}}, "t_min"),
        ("pow", {"residency": {"dataset_mib": 0}}, "dataset_mib"),
    ],
    ids=[
        "top-level",
        "pow",
        "vdf",
        "gemm",
        "residency",
        "pow-not-a-block",
        "interval_s",
        "unread-vdf",
        "unread-bandwidth",
        "unread-gemm",
        "unread-residency",
        "unread-profile",
        "unread-vdf-value",
        "unread-residency-value",
    ],
)
def test_challenger_refuses_a_key_nothing_reads(
    tmp_path, daemon, monkeypatch, capsys, mode, config, key
):
    # a misspelt key would leave its field at the default, lambda_min a
    # 50 times laxer acceptance floor, say
    _assert_refused_before_connecting(tmp_path, daemon, monkeypatch, capsys, mode, config, key)


def _assert_refused_before_connecting(tmp_path, daemon, monkeypatch, capsys, mode, config, key):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    path = _config_file(tmp_path, daemon, **config)
    code = cli.challenger_main(
        ["run", "--mode", mode, "--config", str(path), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    # the in-process path refuses it too, rather than rejecting the worker
    with pytest.raises(ValueError, match=key):
        netcli.run_local_session(mode, WorkerProfile(), config, seed=1)


def test_challenger_unreachable_worker(tmp_path, capsys):
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = tmp_path / "c.yaml"
    config.write_text(f"worker: 127.0.0.1:{port}\nrounds: 2\n")
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_challenger_dead_connection_is_an_error_not_a_verdict(
    tmp_path, daemon, monkeypatch, capsys
):
    # the challenger's socket dies after three answered rounds; the
    # session must end in a transport error (exit 2), not in a verdict
    # over rounds that were never answered
    answer = netcli.RemoteWorker.answer
    answered = []

    def answer_then_die(self, challenge):
        if len(answered) == 3:
            self._sock.close()
        answered.append(challenge.index)
        return answer(self, challenge)

    monkeypatch.setattr(netcli.RemoteWorker, "answer", answer_then_die)
    config = _config_file(tmp_path, daemon, rounds=20)
    with pytest.raises(netcli.TransportError):
        netcli.run_challenger(netcli.load_config(str(config)) | {"kind": "pow"})
    answered.clear()
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert answered == [0, 1, 2, 3]


def test_challenger_exits_2_on_a_record_nested_past_the_depth_cap(tmp_path, capsys):
    """A worker's 600-component record path is a decode error (exit 2),
    refused before nesting that deep could overrun the recursion limit."""
    listener = socket.create_server(("127.0.0.1", 0))
    deep = wire.WireMessage(wire.MSG_PRE_RESPONSE, ("a." * 599 + "a=i:1\n\n").encode())

    def fake_worker():
        conn, _ = listener.accept()
        with conn:
            netcli.recv_frame(conn)  # the pre-challenge
            netcli.send_frame(conn, deep)
            conn.recv(1)  # until the challenger hangs up

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    try:
        config = tmp_path / "c.yaml"
        config.write_text("worker: 127.0.0.1:%d\nrounds: 2\n" % listener.getsockname()[1])
        code = cli.challenger_main(
            ["run", "--mode", "pow", "--config", str(config), "--out", str(tmp_path / "r.csv")]
        )
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert code == cli.EXIT_ERROR
    assert "600 components" in capsys.readouterr().err


def test_challenger_seed_flag_overrides_config(tmp_path, daemon):
    config = _config_file(tmp_path, daemon, seed=1)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(out_a), "--seed", "9"]
    )
    cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(out_b), "--seed", "9"]
    )
    # same seed, same session identity (timings differ over real TCP)
    sid_a = out_a.read_text().splitlines()[1].split(",")[0]
    sid_b = out_b.read_text().splitlines()[1].split(",")[0]
    assert sid_a == sid_b


def test_challenger_seed_flag_does_not_hide_a_bad_file_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    config = tmp_path / "config.yaml"
    out = tmp_path / "r.csv"
    for body, key in (("seed: 2.7\n", "seed"), ("kind: nope\n", "kind")):
        config.write_text(body + "pow:\n  difficulty: 2\n")
        code = cli.challenger_main(
            ["run", "--mode", "pow", "--config", str(config), "--out", str(out), "--seed", "3"]
        )
        assert code == cli.EXIT_ERROR
        assert key in capsys.readouterr().err
    assert not out.exists()


def test_challenger_runs_a_well_formed_file_on_its_flags(tmp_path, daemon):
    config = _config_file(tmp_path, daemon, seed=1, kind="vdf")
    out = tmp_path / "r.csv"
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(config), "--out", str(out), "--seed", "3"]
    )
    assert code in (cli.EXIT_ACCEPT, cli.EXIT_REJECT)
    ran = json.loads((tmp_path / "r.csv.json").read_text())["config"]
    assert (ran["kind"], ran["seed"]) == ("pow", 3)


def test_worker_missing_profile(tmp_path, capsys):
    code = cli.worker_main(
        ["serve", "--profile", str(tmp_path / "absent.yaml"), "--listen", "127.0.0.1:0"]
    )
    assert code == cli.EXIT_ERROR
    assert "profile" in capsys.readouterr().err


def test_worker_malformed_profile_is_an_error(tmp_path, capsys):
    bad = tmp_path / "profile.yaml"
    bad.write_text(MALFORMED_YAML)
    code = cli.worker_main(["serve", "--profile", str(bad), "--listen", "127.0.0.1:0"])
    assert code == cli.EXIT_ERROR
    assert "cannot parse" in capsys.readouterr().err


def test_worker_invalid_profile_field(tmp_path, capsys):
    bad = tmp_path / "profile.yaml"
    bad.write_text("profile:\n  hash_rate: 10\n")  # typo for hash_rate_r
    code = cli.worker_main(["serve", "--profile", str(bad), "--listen", "127.0.0.1:0"])
    assert code == cli.EXIT_ERROR
    assert "unknown profile fields" in capsys.readouterr().err


def test_worker_invalid_profile_value_fails_before_serving(tmp_path, capsys):
    bad = tmp_path / "profile.yaml"
    bad.write_text("profile:\n  squaring_rate: fast\n")
    code = cli.worker_main(["serve", "--profile", str(bad), "--listen", "127.0.0.1:0"])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "squaring_rate" in err
    assert "serving" not in err


@pytest.mark.parametrize(
    "blocks, key",
    [
        ({"vdf": {"modulus_bitz": 1}, "pow": {"difficuly": 3}}, "difficuly"),
        ({"vdf": {"modulus_bitz": 1}}, "modulus_bitz"),
        ({"vdf": {"modulus_n": _MODULUS_128, "modulus_bits": 2048}}, "modulus_bits"),
        ({"residency": {"dataset_mib": 0}}, "dataset_mib"),
        ({"gemm": {"dimension_n": gemm._MAX_DIM + 1}}, "dimension"),
        ({"bandwidth": {"hbm_bww": 1}}, "hbm_bww"),
        ({"lamda_min": 5.0}, "lamda_min"),
    ],
    ids=["pow", "vdf", "vdf-modulus-twice", "residency", "gemm", "bandwidth", "top-level"],
)
def test_worker_refuses_a_bad_block_before_serving(tmp_path, monkeypatch, capsys, blocks, key):
    """``worker serve`` parses every block of its file, as ``challenger run`` does."""

    def serve_forever(self, *args):
        pytest.fail("the worker served a config it should have refused")

    monkeypatch.setattr(netcli.WorkerDaemon, "serve_forever", serve_forever)
    lines = ["profile:", "  hash_rate_r: 64.0"]
    for name, value in blocks.items():
        if isinstance(value, dict):
            lines.append(f"{name}:")
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        else:
            lines.append(f"{name}: {value}")
    bad = tmp_path / "profile.yaml"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.worker_main(["serve", "--profile", str(bad), "--listen", "127.0.0.1:0"])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert key in err
    assert "serving" not in err


def _record_serving(monkeypatch) -> list:
    served = []

    def serve_forever(self, *args):
        served.append(self)

    monkeypatch.setattr(netcli.WorkerDaemon, "serve_forever", serve_forever)
    return served


def test_worker_serves_a_config_of_only_a_bandwidth_block(tmp_path, monkeypatch, capsys):
    # a worker file is a config: its blocks sit under their names
    served = _record_serving(monkeypatch)
    path = tmp_path / "worker.yaml"
    path.write_text("bandwidth:\n  pci_bw: 5.0e+9\n")
    code = cli.worker_main(["serve", "--profile", str(path), "--listen", "127.0.0.1:0"])
    assert code == 0
    assert "serving on" in capsys.readouterr().err
    assert [server.plan.model.pci_bw for server in served] == [5e9]


def test_worker_reads_listen_and_seed_from_its_config(tmp_path, monkeypatch, capsys):
    served = _record_serving(monkeypatch)
    path = tmp_path / "worker.yaml"
    path.write_text("listen: 127.0.0.1:0\nseed: 5\n")
    assert cli.worker_main(["serve", "--profile", str(path)]) == 0
    host, port = served[0].server_address[:2]
    assert port != 9333 and served[0].plan.session.seed == 5
    # the bound address, so port 0 names the port it was given
    assert f"serving on {host}:{port}" in capsys.readouterr().err
    # a flag overrides the file only when given
    assert cli.worker_main(["serve", "--profile", str(path), "--seed", "9"]) == 0
    assert served[1].plan.session.seed == 9


@pytest.mark.parametrize(
    "body, flags, key",
    [
        ("seed: 2.7\n", ["--seed", "3"], "seed"),
        ("seed: true\n", ["--seed", "3", "--listen", "127.0.0.1:0"], "seed"),
        ("listen: 127.0.0.1:70000\n", ["--listen", "127.0.0.1:0"], "listen"),
    ],
    ids=["fractional-seed", "boolean-seed", "bad-listen"],
)
def test_worker_flag_does_not_hide_a_bad_file_value(tmp_path, monkeypatch, capsys, body, flags, key):
    served = _record_serving(monkeypatch)
    path = tmp_path / "worker.yaml"
    path.write_text(body)
    assert cli.worker_main(["serve", "--profile", str(path), *flags]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert key in err and "serving" not in err
    assert served == []


def test_worker_serves_a_well_formed_file_on_its_flags(tmp_path, monkeypatch, capsys):
    served = _record_serving(monkeypatch)
    path = tmp_path / "worker.yaml"
    path.write_text("listen: 127.0.0.1:9\nseed: 5\n")
    flags = ["--seed", "3", "--listen", "127.0.0.1:0"]
    assert cli.worker_main(["serve", "--profile", str(path), *flags]) == 0
    assert served[0].plan.session.seed == 3
    assert served[0].server_address[1] not in (0, 9)


@pytest.mark.parametrize(
    "body, key",
    [("lambda_min: .nan\n", "lambda_min"), ("profile:\n  hash_rate_r: .inf\n", "hash_rate_r")],
    ids=["nan", "inf"],
)
def test_both_mains_exit_2_on_a_number_that_is_not_finite(tmp_path, monkeypatch, capsys, body, key):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    served = _record_serving(monkeypatch)
    path = tmp_path / "config.yaml"
    path.write_text(body)
    out = tmp_path / "r.csv"
    run = ["run", "--mode", "pow", "--config", str(path), "--out", str(out)]
    assert cli.challenger_main(run) == cli.EXIT_ERROR
    assert cli.worker_main(["serve", "--profile", str(path), "--listen", "127.0.0.1:0"]) == cli.EXIT_ERROR
    assert served == [] and not out.exists()
    assert capsys.readouterr().err.count(f"{key}: expected float") == 2


def test_challenger_runs_and_records_a_quoted_seed_exactly(tmp_path, daemon):
    seed = (1 << 53) + 1  # through a float it would read as 2^53
    config = _config_file(tmp_path, daemon, seed=f'"{seed}"')
    quoted, flagged = tmp_path / "quoted.csv", tmp_path / "flagged.csv"
    for out, flags in ((quoted, []), (flagged, ["--seed", str(seed)])):
        run = ["run", "--mode", "pow", "--config", str(config), "--out", str(out), *flags]
        assert cli.challenger_main(run) == cli.EXIT_ACCEPT
    summary = json.loads((tmp_path / "quoted.csv.json").read_text())
    assert summary["config"]["seed"] == seed
    # the same seed draws the same session identity
    assert quoted.read_text().splitlines()[1][:64] == flagged.read_text().splitlines()[1][:64]


def test_worker_refuses_a_port_above_65535(tmp_path, capsys):
    path = tmp_path / "worker.yaml"
    path.write_text("")
    code = cli.worker_main(["serve", "--profile", str(path), "--listen", "127.0.0.1:70000"])
    assert code == cli.EXIT_ERROR
    assert "70000" in capsys.readouterr().err


def test_challenger_refuses_a_bad_worker_address_before_writing_its_report(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(netcli, "RemoteWorker", _no_connection)
    path = tmp_path / "config.yaml"
    path.write_text("worker: nohost\nrounds: 2\n")
    code = cli.challenger_main(
        ["run", "--mode", "pow", "--config", str(path), "--out", str(tmp_path / "r.csv")]
    )
    assert code == cli.EXIT_ERROR
    assert "nohost" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_scenario_run(tmp_path, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text("scenarios: [vdf-saturation]\n")
    out_dir = tmp_path / "scen"
    code = cli.scenario_main(["run", "--file", str(plan), "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "vdf-saturation: rows=10 ok" in printed
    assert (out_dir / "summary.csv").exists()


def test_scenario_unknown_name(tmp_path, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text("scenarios: [banana]\n")
    code = cli.scenario_main(["run", "--file", str(plan), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ERROR
    assert "available" in capsys.readouterr().err


def test_scenario_missing_file(tmp_path, capsys):
    code = cli.scenario_main(
        ["run", "--file", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_ERROR


def test_scenario_malformed_file_is_an_error(tmp_path, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text(MALFORMED_YAML)
    code = cli.scenario_main(["run", "--file", str(plan), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ERROR
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, key",
    [
        ("scenario: all\n", "scenario"),
        ("scenarios: [vdf-saturation]\nseed: 2.7\n", "seed"),
        ("scenarios: [vdf-saturation]\nseed: true\n", "seed"),
    ],
    ids=["misspelt-key", "fractional-seed", "boolean-seed"],
)
def test_scenario_file_refuses_a_key_or_seed_nothing_reads(tmp_path, capsys, body, key):
    plan = tmp_path / "plan.yaml"
    plan.write_text(body)
    out_dir = tmp_path / "o"
    code = cli.scenario_main(["run", "--file", str(plan), "--out", str(out_dir)])
    assert code == cli.EXIT_ERROR
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


def test_main_dispatcher(tmp_path, capsys):
    assert cli.main([]) == cli.EXIT_ERROR
    assert cli.main(["teleport"]) == cli.EXIT_ERROR
    assert "usage" in capsys.readouterr().err
    plan = tmp_path / "plan.yaml"
    plan.write_text("scenarios: []\n")
    assert cli.main(["scenario", "run", "--file", str(plan), "--out", str(tmp_path / "o")]) == 0
