"""Spans, proxies and per-layer figures for the benchmark.

Spans are kept in memory and written out when a traced run ends.  They
come from two places, both on the benchmark's side of the package
boundary:

* proxies around the worker handle and the session driver that a
  session hands to the library, so every round shows the time spent in
  the worker, in the driver (challenge building and validation) and in
  the decision loop;
* direct calls to each layer's public functions on inputs drawn from
  the workload's own seed and sizes ("primitive spans"), which give the
  per-layer metrics.

Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager

from gputelem import core, gemm, netcli, pow as pow_mod, protocol, residency, vdf, wire
from gputelem.core import Challenge, Response
from gputelem.stattests import continuous_measurement
from gputelem.worksim import SimWorker, WorkerProfile

MODES = ("pow", "vdf", "gemm", "residency")

# A worker whose modeled latencies are negligible: inputs are produced
# for their bytes, not for their timing.
FAST_PROFILE = WorkerProfile(hash_rate_r=1e12, squaring_rate=1e12)

# How many seeded challenges per mode the per-layer pass and the work
# counts use.  Fixed, so the counts depend on the seed alone.
SAMPLES = {"pow": 8, "vdf": 3, "gemm": 3, "residency": 2}

_TCP = "tcp-mix"

# The challenger's cost per round of each mode; the prover's is
# worksim.answer_ms.<mode>.
VERIFY_METRIC = {
    "pow": "protocol.validate_ms.pow",
    "vdf": "protocol.validate_ms.vdf",
    "gemm": "protocol.validate_ms.gemm",
    "residency": "residency.probe_ms",
}

# name -> (unit, the end-to-end metric it should move and on which
# workloads).  This is the prediction a layer change is held to.
LAYER_METRICS = {
    "pow.attempt_ms": ("ms", "pow_ms on local-mix"),
    "pow.attempts_per_solution": ("count", "pow_ms on local-mix"),
    "pow.verify_ms": ("ms", "pow_ms on verify-only"),
    "pow.verify_prove_ratio": ("ratio", "none; verify/prove cost of pow"),
    "vdf.eval_ms": ("ms", "vdf_ms on local-mix only"),
    "vdf.prove_batch_ms": ("ms", "vdf_ms on local-mix only"),
    "vdf.squarings_per_round": ("count", "vdf_ms on local-mix only"),
    "vdf.hash_to_prime_ms": ("ms", "vdf_ms on verify-only most, local-mix less"),
    "vdf.batch_verify_ms": ("ms", "vdf_ms on verify-only most, local-mix less"),
    "vdf.verify_prove_ratio": ("ratio", "none; verify/prove cost of vdf"),
    "gemm.derive_matrices_ms": ("ms", "gemm_ms on local-mix and verify-only"),
    "gemm.field_matmul_ms": ("ms", "gemm_ms on local-mix"),
    "gemm.freivalds_ms": ("ms", "gemm_ms on local-mix and verify-only"),
    "gemm.products_per_solution": ("count", "gemm_ms on local-mix"),
    "gemm.verify_prove_ratio": ("ratio", "none; verify/prove cost of gemm"),
    "core.keyed_stream_ms_per_mib": ("ms/MiB", "residency_ms on local-mix and verify-only"),
    "residency.mask_block_ms_per_mib": ("ms/MiB", "residency_ms on local-mix and verify-only"),
    "residency.init_chal_ms": ("ms", "residency_ms on local-mix; setup_s on verify-only"),
    "residency.probe_ms": ("ms", "residency_ms on local-mix and verify-only"),
    "residency.verify_prove_ratio": ("ratio", "none; verify/prove cost of residency"),
    **{
        f"worksim.answer_ms.{m}": ("ms", f"{m}_ms on local-mix")
        for m in MODES
    },
    **{
        f"protocol.validate_ms.{m}": ("ms", f"{m}_ms on local-mix and verify-only")
        for m in MODES[:3]
    },
    **{
        f"wire.{kind}.{m}": (unit, f"{m}_ms and rounds_per_s on {_TCP}")
        for m in MODES
        for kind, unit in (
            ("encode_us", "us"),
            ("decode_us", "us"),
            ("bytes_per_round", "count"),
        )
    },
    "netcli.connect_ms": ("ms", f"every *_ms on {_TCP}"),
    "netcli.roundtrip_ms": ("ms", f"pow_ms and rounds_per_s on {_TCP}"),
    "netcli.worker_side_ms": ("ms", f"pow_ms and rounds_per_s on {_TCP}"),
    "stattests.decide_ms": ("ms", f"pow_ms on {_TCP}; negligible elsewhere"),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.session: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, round_index: int | None = None):
        record = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "session": self.session,
            "round": round_index,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Self time of every span: duration minus its children's durations."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def roots(self) -> list[int]:
        """Index of the outermost span each span belongs to."""
        root: list[int] = []
        for i, s in enumerate(self.spans):
            root.append(i if s["parent"] is None else root[s["parent"]])
        return root


class TracedWorker:
    """Worker-handle proxy: one span around each call a session makes into it.

    Span names are ``<module>.<Class>.<method>`` of the wrapped handle, so
    the same proxy reads ``worksim.SimWorker.answer`` in process and
    ``netcli.RemoteWorker.answer`` over TCP.  Attribute writes (the
    session id the library sets) go to the wrapped handle.
    """

    _CALLS = ("answer", "probe", "init_dataset", "pre_challenge")

    def __init__(self, inner, tracer: Tracer) -> None:
        prefix = f"{type(inner).__module__.rsplit('.', 1)[-1]}.{type(inner).__name__}"
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_probes", 0)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self._CALLS:
            return attr

        def call(*args, **kwargs):
            round_index = None
            if name == "answer":
                round_index = args[0].index
            elif name == "probe":
                round_index = self._probes
                object.__setattr__(self, "_probes", round_index + 1)
            with self._tracer.span(f"{self._prefix}.{name}", round_index):
                return attr(*args, **kwargs)

        return call

    def __setattr__(self, name, value) -> None:
        setattr(self._inner, name, value)


class TracedDriver:
    """Session-driver proxy: one span per round handed to the decision loop."""

    def __init__(self, inner: protocol.SessionDriver, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def session_id(self) -> bytes:
        return self._inner.session_id

    def now(self) -> float:
        return self._inner.now()

    def sleep_until(self, deadline: float) -> None:
        self._inner.sleep_until(deadline)

    def run_round(self, index: int, kind: str | None = None) -> tuple[float, bool]:
        with self._tracer.span("protocol.SessionDriver.run_round", index):
            return self._inner.run_round(index, kind)


def self_time_table(tracer: Tracer) -> dict[str, dict]:
    """Per operation label: each operation's traced duration, and its self
    time per span name.

    Root spans carry the label in ``session`` as ``<label>:<n>``; the
    self times of one root's spans add up to that root's duration.
    """
    own = tracer.self_ns()
    root_of = tracer.roots()
    per_root: dict[int, dict[str, int]] = {}
    for i, s in enumerate(tracer.spans):
        names = per_root.setdefault(root_of[i], {})
        names[s["name"]] = names.get(s["name"], 0) + own[i]
    table: dict[str, dict] = {}
    for root, names in per_root.items():
        span = tracer.spans[root]
        label = (span["session"] or span["name"]).rsplit(":", 1)[0]
        entry = table.setdefault(label, {"total_ns": [], "self_ns": {}})
        entry["total_ns"].append(span["end_ns"] - span["start_ns"])
        for name, ns in names.items():
            entry["self_ns"].setdefault(name, []).append(ns)
    return table


# --- seeded inputs and the work counts they imply ---------------------------


def challenge_params(sizes: dict, mode: str, modulus_n: int) -> dict:
    """The challenge params a session of ``mode`` carries on this workload."""
    if mode == "vdf":
        return dict(sizes["vdf"], modulus_n=modulus_n)
    return dict(sizes[mode])


class SampleInputs:
    """Challenges, honest responses and a residency dataset drawn from one seed.

    Everything here is a function of (sizes, modulus, seed), so the work
    counts derived from it repeat exactly from run to run.
    """

    def __init__(self, sizes: dict, modulus_n: int, seed: int, timings: dict | None = None) -> None:
        rng = random.Random(f"inputs:{seed}")
        self.sizes = sizes
        self.modulus_n = modulus_n
        worker = SimWorker(FAST_PROFILE, seed=rng.randrange(1 << 62))
        session_id = protocol.new_session_id(rng)
        self.pairs: dict[str, list[tuple[Challenge, Response]]] = {}
        for mode in MODES[:3]:
            params = challenge_params(sizes, mode, modulus_n)
            pairs = []
            for i in range(SAMPLES[mode]):
                challenge = protocol.build_challenge(session_id, i, mode, rng, float(i), params)
                started = time.perf_counter()
                response = worker.answer(challenge)
                _add(timings, f"worksim.answer_ms.{mode}", started)
                pairs.append((challenge, response))
            self.pairs[mode] = pairs
        res = sizes["residency"]
        size, block = res["dataset_mib"] << 20, res["block_kib"] << 10
        self.argon_kib = res["argon_memory_kib"]
        dataset_seed = core.generate_salt(rng)
        started = time.perf_counter()
        self.dataset = residency.init_chal(size, dataset_seed, block)
        _add(timings, "residency.init_chal_ms", started)
        worker.init_dataset(dataset_seed, size, block)
        self.probes: list[tuple[Challenge, Response]] = []
        for i in range(SAMPLES["residency"]):
            nonce = core.generate_salt(rng)
            started = time.perf_counter()
            result = worker.probe(nonce, argon_memory_kib=self.argon_kib)
            _add(timings, "worksim.answer_ms.residency", started)
            # the challenge and response a probe travels as over TCP
            # (see netcli.RemoteWorker.probe and the worker daemon)
            challenge = Challenge(
                session_id, i, "residency", nonce, 0.0, {"argon_memory_kib": self.argon_kib}
            )
            response = Response(
                session_id, i, "residency",
                {
                    "response_digest": result.response_digest,
                    "kernel_time_ns": int(result.kernel_time_s * 1e9),
                },
                result.timing.duration,
            )
            self.probes.append((challenge, response))

    def all_pairs(self, mode: str) -> list[tuple[Challenge, Response]]:
        return self.probes if mode == "residency" else self.pairs[mode]

    def work_counts(self) -> dict[str, float]:
        """Counts of work per solution or round; identical for one seed."""
        vdf_params = challenge_params(self.sizes, "vdf", self.modulus_n)
        squarings = [
            sum(
                vdf.derive_delay(c.salt, i, vdf_params["t_min"], vdf_params["t_max"])
                for i in range(vdf_params["instances"])
            )
            for c, _ in self.pairs["vdf"]
        ]
        counts = {
            "pow.attempts_per_solution": statistics.fmean(
                r.payload["attempts"] for _, r in self.pairs["pow"]
            ),
            "gemm.products_per_solution": statistics.fmean(
                r.payload["index_jstar"] + 1 for _, r in self.pairs["gemm"]
            ),
            "vdf.squarings_per_round": statistics.fmean(squarings),
        }
        for mode in MODES:
            counts[f"wire.bytes_per_round.{mode}"] = statistics.fmean(
                len(_challenge_frame(c)) + len(_response_frame(r))
                for c, r in self.all_pairs(mode)
            )
        return counts


def _challenge_frame(challenge: Challenge) -> bytes:
    return wire.encode_message(
        wire.WireMessage(
            wire.MSG_CHALLENGE_BATCH,
            wire.encode_record(protocol.challenge_record(challenge)),
        )
    )


def _response_frame(response: Response) -> bytes:
    return wire.encode_message(
        wire.WireMessage(
            wire.MSG_RESPONSE_BATCH,
            wire.encode_record(protocol.response_record(response)),
        )
    )


# --- per-layer timings ------------------------------------------------------


def _add(timings: dict | None, name: str, started: float, scale: float = 1e3) -> float:
    elapsed = (time.perf_counter() - started) * scale
    if timings is not None:
        timings.setdefault(name, []).append(elapsed)
    return elapsed


def _traced(tracer: Tracer, timings: dict, metric: str, span: str, fn, *args, scale=1e3, **kwargs):
    """Call one public function under a span and record its time under ``metric``."""
    with tracer.span(span):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        _add(timings, metric, started, scale)
    return value


class _ReplayRounds:
    """Session handle that replays recorded round outcomes to the decision loop."""

    session_id = b""

    def __init__(self, outcomes: list[tuple[float, bool]]) -> None:
        self._outcomes = outcomes

    def now(self) -> float:
        return 0.0

    def sleep_until(self, deadline: float) -> None:
        pass

    def run_round(self, index: int, kind: str | None = None) -> tuple[float, bool]:
        return self._outcomes[index % len(self._outcomes)]


def layer_metrics(
    sizes: dict, modulus_n: int, seed: int, tracer: Tracer, address: tuple[str, int]
) -> tuple[dict[str, tuple[float, int]], dict[str, float], list[str]]:
    """Time each layer's public functions on the workload's seeded inputs.

    Returns (metric -> (value, sample count)), the work counts, and the
    honest inputs that failed verification (there should be none).
    ``address`` is a running ``worker serve`` daemon for the netcli layer.
    """
    timings: dict[str, list[float]] = {}
    tracer.session = "primitives:0"
    with tracer.span("bench.primitives"):
        inputs = SampleInputs(sizes, modulus_n, seed, timings)
        _pow_layer(inputs, tracer, timings)
        _vdf_layer(inputs, tracer, timings)
        _gemm_layer(inputs, tracer, timings)
        _residency_layer(inputs, tracer, timings)
        _wire_layer(inputs, tracer, timings)
        _netcli_layer(inputs, tracer, timings, address)
        _decide_layer(inputs, tracer, timings)
    tracer.session = None
    failures = timings.pop("failures", [])
    values = {
        name: (statistics.median(samples), len(samples))
        for name, samples in timings.items()
    }
    for mode, verify in VERIFY_METRIC.items():
        prove = values[f"worksim.answer_ms.{mode}"][0]
        values[f"{mode}.verify_prove_ratio"] = (values[verify][0] / prove, 1)
    counts = inputs.work_counts()
    for name, value in counts.items():
        mode = name.rsplit(".", 1)[-1] if name.startswith("wire.") else name.split(".")[0]
        values[name] = (value, SAMPLES[mode])
    return values, counts, failures


def _validate(tracer, timings, mode, challenge, response) -> None:
    ok = _traced(
        tracer, timings, f"protocol.validate_ms.{mode}",
        "protocol.validate_response", protocol.validate_response, challenge, response,
    )
    if not ok:
        timings.setdefault("failures", []).append(f"honest {mode} response {challenge.index} invalid")


def _pow_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    for challenge, response in inputs.pairs["pow"]:
        params = pow_mod.PowParams(**challenge.params)
        _traced(
            tracer, timings, "pow.attempt_ms", "pow.pow_hash", pow_mod.pow_hash,
            challenge.salt, challenge.session_id, challenge.issued_at,
            response.payload["nonce"], params,
        )
        solution = pow_mod.PowSolution(
            nonce=response.payload["nonce"],
            digest=response.payload["digest"],
            attempts=response.payload["attempts"],
        )
        _traced(tracer, timings, "pow.verify_ms", "pow.verify_pow",
                pow_mod.verify_pow, challenge, solution, params)
        _validate(tracer, timings, "pow", challenge, response)


def _vdf_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    for challenge, response in inputs.pairs["vdf"]:
        p = challenge.params
        n = p["modulus_n"]
        instances = [
            vdf.derive_instance(challenge.salt, i, n, p["t_min"], p["t_max"])
            for i in range(p["instances"])
        ]
        with tracer.span("vdf.eval"):
            started = time.perf_counter()
            outputs = [vdf.eval(inst.generator_g, inst.delay_T, n) for inst in instances]
            _add(timings, "vdf.eval_ms", started)
        proofs = _traced(tracer, timings, "vdf.prove_batch_ms", "vdf.prove_batch",
                         vdf.prove_batch, instances, outputs, n, challenge.salt)
        _traced(tracer, timings, "vdf.hash_to_prime_ms", "vdf.hash_to_prime",
                vdf.hash_to_prime,
                vdf.batch_transcript(n, instances, outputs, challenge.salt))
        _traced(tracer, timings, "vdf.batch_verify_ms", "vdf.batch_verify",
                vdf.batch_verify, instances, proofs, n, challenge.salt)
        _validate(tracer, timings, "vdf", challenge, response)


def _gemm_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    for challenge, response in inputs.pairs["gemm"]:
        n = challenge.params["dimension_n"]
        a, b = _traced(tracer, timings, "gemm.derive_matrices_ms", "gemm.derive_matrices",
                       gemm.derive_matrices, response.payload["chain_state_sigma"], n)
        c = _traced(tracer, timings, "gemm.field_matmul_ms", "gemm.field_matmul",
                    gemm.field_matmul, a, b)
        _traced(tracer, timings, "gemm.freivalds_ms", "gemm.freivalds_check",
                gemm.freivalds_check, a, b, c, challenge.params["freivalds_k"],
                random.Random(challenge.index))
        _validate(tracer, timings, "gemm", challenge, response)


def _residency_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    block = inputs.dataset.blocks[0]
    per_mib = 1e3 * (1 << 20) / len(block)
    for challenge, response in inputs.probes:
        nonce = challenge.salt
        _traced(tracer, timings, "core.keyed_stream_ms_per_mib", "core.keyed_stream",
                core.keyed_stream, nonce, len(block), scale=per_mib)
        _traced(tracer, timings, "residency.mask_block_ms_per_mib", "residency.mask_block",
                residency.mask_block, nonce, 0, block, scale=per_mib)
        expected = _traced(tracer, timings, "residency.probe_ms", "residency.residency_probe",
                           residency.residency_probe, inputs.dataset, nonce,
                           argon_memory_kib=inputs.argon_kib)
        if expected.response_digest != response.payload["response_digest"]:
            timings.setdefault("failures", []).append(f"honest residency probe {challenge.index} invalid")


def _wire_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    for mode in MODES:
        for _, response in inputs.all_pairs(mode):
            record = protocol.response_record(response)
            blob = _traced(tracer, timings, f"wire.encode_us.{mode}", "wire.encode_record",
                           wire.encode_record, record, scale=1e6)
            _traced(tracer, timings, f"wire.decode_us.{mode}", "wire.decode_record",
                    wire.decode_record, blob, scale=1e6)


def _netcli_layer(inputs: SampleInputs, tracer: Tracer, timings: dict, address) -> None:
    """Round trips of the seeded pow challenges to a ``worker serve`` daemon.

    The worker side is the round trip minus the client's own encode,
    decode and parse of the same records.
    """
    remote = _traced(tracer, timings, "netcli.connect_ms", "netcli.RemoteWorker",
                     netcli.RemoteWorker, address)
    try:
        for challenge, _ in inputs.pairs["pow"]:
            with tracer.span("netcli.RemoteWorker.answer"):
                started = time.perf_counter()
                response = remote.answer(challenge)
                roundtrip = _add(timings, "netcli.roundtrip_ms", started)
            started = time.perf_counter()
            wire.encode_record(protocol.challenge_record(challenge))
            record = wire.decode_record(wire.encode_record(protocol.response_record(response)))
            protocol.parse_response(record)
            client = (time.perf_counter() - started) * 1e3
            timings.setdefault("netcli.worker_side_ms", []).append(roundtrip - client)
    finally:
        remote.close()


def _decide_layer(inputs: SampleInputs, tracer: Tracer, timings: dict) -> None:
    outcomes = [(r.solve_time, True) for _, r in inputs.pairs["pow"]]
    replay = _ReplayRounds(outcomes)
    for _ in range(5):
        rows: list[dict] = []
        _traced(tracer, timings, "stattests.decide_ms", "stattests.continuous_measurement",
                continuous_measurement, replay, n=inputs.sizes["rounds"]["pow"],
                lambda_min=inputs.sizes["lambda_min"], kind="pow", sink=rows.append)
