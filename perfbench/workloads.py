"""The benchmark's workloads: set-up, measured windows and output checks.

All three run closed loop with one caller: each control update, or each
quantize command, waits for its reply before the next one is issued. Inputs
(policy weights, calibration rows, velocity command, domain-randomization
draws) come from the seed only.

- loop_int8_codec: the deployed path. Reference policy, per-feature int8,
  observations and actions through the int8 wire codec, one inference per
  120 Hz sim step, domain randomization on.
- loop_fp32_codec_30hz: the same policy in FP32 through the fp32 codec at
  30 Hz, each action held for 4 plant steps. The int8 kernel does no work
  here, so a kernel change should leave it unchanged. 30 Hz divides the
  120 Hz sim rate, so the episode runs at the rate it asks for.
- quantize_calib: `microgait quantize` run in-process under both schemes on
  a large calibration CSV. Quantization and the kernel do bulk work through
  the per-row SQNR pass; wire and harness do none.

`gait` and `kinematics` are on no workload's path: each is a microsecond
call made once per CLI command, so they get no metric.

Every end-to-end time is CPU time of the process (CLOCK_PROCESS_CPUTIME_ID),
scaled to a reference host speed by the probe in probe.py. The program is
single-threaded and does no blocking I/O in a measured window, so its CPU
time is its host time less the time the machine runs something else (on a
paravirtualised guest, steal time is not charged to the process). CPU time
alone still moves by 40% within seconds on a shared host, because the core
itself gets slower; the probe, timed between operations, cancels that. The
traced run's spans stay in wall time.
"""
from __future__ import annotations

import io
import resource
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns, process_time_ns

import numpy as np

from microgait import cli, harness, kernel, policy, quant
from microgait.errors import MicrogaitError
from microgait.quant import QuantScheme

import checks as chk
from probe import REFERENCE_NS, SpeedProbe
from tracing import NullTracer, SpanStats, Tracer

SETUP_REPEATS = 15
LOOP_SPEC = policy.PolicySpec(policy.DEFAULT_LAYER_DIMS, policy.leaky_relu())
LOOP_CALIB_ROWS = 512
QUANTIZE_CALIB_ROWS = 2048
SAMPLE_EVERY = 97        # keep every 97th update for the output checks
BIGINT_SAMPLES = 24      # observations replayed through the big-integer oracle
SCHEMES = (("per-feature", QuantScheme.PER_FEATURE), ("per-tensor", QuantScheme.PER_TENSOR))
LAYERS = ("bench", "cli", "harness", "kernel", "policy", "quant", "wire")


def _calibration(seed: int, rows: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 1))
    return rng.normal(0.0, 0.5, size=(rows, policy.DEFAULT_LAYER_DIMS[0])).astype(np.float32)


def _command(seed: int) -> tuple[float, float]:
    rng = np.random.default_rng((seed, 2))
    return float(rng.uniform(0.05, 0.15)), float(rng.uniform(-0.2, 0.2))


@dataclass
class Window:
    """What one measured window did."""

    attempted: int = 0
    failed: int = 0
    wall_ns: int = 0
    cpu_ns: int = 0
    op_rates: list[float] = field(default_factory=list)   # work units per second, per operation
    latencies_ns: list[float] = field(default_factory=list)   # scaled by the speed probe
    samples: list = field(default_factory=list)


class Recorder:
    """The runtime handed to run_episode: times each act in CPU time,
    including the codec, and keeps every SAMPLE_EVERY-th update for the
    output checks."""

    def __init__(self, inner, tracer, window: Window):
        self._act = tracer.wrap("harness.act", inner.act)
        self._window = window

    def act(self, obs, t):
        w = self._window
        w.attempted += 1
        t0 = process_time_ns()
        action = self._act(obs, t)
        w.latencies_ns.append(process_time_ns() - t0)
        if w.attempted % SAMPLE_EVERY == 0:
            w.samples.append((obs.copy(), t, np.array(action, copy=True)))
        return action


@dataclass
class LoopContext:
    seed: int
    workdir: Path
    policy: policy.Fp32Policy
    qp: quant.QuantizedPolicy | None
    quantized_path: Path | None
    cmd: tuple[float, float]


class LoopWorkload:
    rate_name = "sim_steps_per_s"
    latency_name = "update_latency"

    def __init__(self, name: str, precision: str, f_update_hz: float):
        self.name = name
        self.precision = precision
        self.f_update_hz = f_update_hz

    def setup(self, seed: int, workdir: Path) -> LoopContext:
        path = workdir / "policy.bin"
        policy.save_policy(policy.random_policy(LOOP_SPEC, seed), path)
        p = policy.load_policy(path)
        qp = q_path = None
        if self.precision == "int8":
            q_path = workdir / "policy_q.bin"
            qp = quant.quantize_policy(p, QuantScheme.PER_FEATURE, _calibration(seed, LOOP_CALIB_ROWS))
            quant.save_quantized(qp, q_path)
            qp = quant.load_quantized(q_path)
        return LoopContext(seed, workdir, p, qp, q_path, _command(seed))

    def _direct(self, ctx: LoopContext):
        if self.precision == "int8":
            return harness.QuantizedRuntime(ctx.qp)
        return harness.PolicyRuntime(ctx.policy)

    def _episode(self, ctx: LoopContext, index: int, runtime, tracer):
        sim = harness.SimConfig(f_update_hz=self.f_update_hz, seed=ctx.seed * 100_000 + index)
        return tracer.call("harness.run_episode", harness.run_episode,
                           runtime, sim, harness.DRConfig(), ctx.cmd)

    def reference(self, ctx: LoopContext) -> bytes | None:
        """Trajectory CSV bytes of episode 0; None if the episode failed."""
        runtime = harness.CodecRuntime(self._direct(ctx), self.precision)
        try:
            result = self._episode(ctx, 0, runtime, NullTracer())
        except MicrogaitError:
            return None
        path = ctx.workdir / "trajectory.csv"
        harness.write_trajectory_csv(result, path)
        return path.read_bytes()

    def measure(self, ctx: LoopContext, seconds: float, tracer, probe: SpeedProbe,
                between=None) -> Window:
        win = Window()
        start, cpu_start = perf_counter_ns(), process_time_ns()
        deadline = start + int(seconds * 1e9)
        probe.mark()
        index = 0
        while perf_counter_ns() < deadline:
            if between:
                between()
            index += 1
            runtime = Recorder(harness.CodecRuntime(self._direct(ctx), self.precision), tracer, win)
            first = len(win.latencies_ns)
            t0 = process_time_ns()
            try:
                result = self._episode(ctx, index, runtime, tracer)
            except MicrogaitError:
                win.failed += 1
                result = None
            elapsed = process_time_ns() - t0
            scale = probe.scale()
            win.latencies_ns[first:] = [ns * scale for ns in win.latencies_ns[first:]]
            if result is not None:
                win.op_rates.append(result.steps / (elapsed * scale / 1e9))
        win.wall_ns = perf_counter_ns() - start
        win.cpu_ns = process_time_ns() - cpu_start
        return win

    def check(self, ctx: LoopContext, windows, checks, oracles, reference) -> dict[str, float]:
        samples = [s for w in windows for s in w.samples]
        checks.expect(bool(samples), "no update was sampled")
        direct = self._direct(ctx)
        for obs, t, action in samples:
            checks.expect(np.array_equal(direct.act(obs, t), action),
                          f"codec action at t={t:.4f} differs from the direct runtime")
        if ctx.qp is not None:
            step = max(1, len(samples) // BIGINT_SAMPLES)
            chk.check_int8_outputs(checks, oracles, ctx.qp,
                                   [obs for obs, _, _ in samples[::step][:BIGINT_SAMPLES]])
        checks.expect(reference is not None and self.reference(ctx) == reference,
                      "repeated episode gave a different trajectory CSV")
        digests = {"trajectory_csv": chk.sha256(reference or b"")}
        if ctx.quantized_path is not None:
            digests["quantized_bin"] = chk.sha256(ctx.quantized_path.read_bytes())
        chk.check_golden(checks, ctx.seed, self.name, digests)
        payload = quant.int8_payload_bytes(ctx.qp) if ctx.qp is not None else 0
        return {"quant.int8_payload_bytes": payload, "quant.sqnr_db": 0.0}


@dataclass
class QuantizeContext:
    seed: int
    workdir: Path
    policy_path: Path
    calib_path: Path
    rows: int

    def out_path(self, flag: str) -> Path:
        return self.workdir / f"policy_q_{flag}.bin"

    def argv(self, flag: str) -> list[str]:
        return ["quantize", "--model", str(self.policy_path), "--scheme", flag,
                "--calib", str(self.calib_path), "--out", str(self.out_path(flag))]


class QuantizeWorkload:
    name = "quantize_calib"
    rate_name = "calib_rows_per_s"
    latency_name = "quantize_round_latency"

    def setup(self, seed: int, workdir: Path) -> QuantizeContext:
        policy_path = workdir / "policy_elu.bin"
        calib_path = workdir / "calib.csv"
        policy.save_policy(policy.random_policy(policy.PolicySpec(), seed), policy_path)
        # %.9g round-trips float32, so the CLI reads back exactly these rows
        np.savetxt(calib_path, _calibration(seed, QUANTIZE_CALIB_ROWS), delimiter=",", fmt="%.9g")
        return QuantizeContext(seed, workdir, policy_path, calib_path, QUANTIZE_CALIB_ROWS)

    def reference(self, ctx: QuantizeContext) -> None:
        return None

    def measure(self, ctx: QuantizeContext, seconds: float, tracer, probe: SpeedProbe,
                between=None) -> Window:
        """One operation is a round: quantize under both schemes, each
        command scaled by the probe on its own."""
        win = Window()
        start, cpu_start = perf_counter_ns(), process_time_ns()
        deadline = start + int(seconds * 1e9)
        probe.mark()
        while perf_counter_ns() < deadline:
            if between:
                between()
            rows = 0
            elapsed = 0.0
            for flag, _ in SCHEMES:
                out = io.StringIO()
                win.attempted += 1
                t0 = process_time_ns()
                with redirect_stdout(out):
                    code = tracer.call("cli.quantize", cli.main, ctx.argv(flag))
                elapsed += (process_time_ns() - t0) * probe.scale()
                if code != 0:
                    win.failed += 1
                    continue
                rows += ctx.rows
                win.samples.append((flag, out.getvalue()))
            win.latencies_ns.append(elapsed)
            win.op_rates.append(rows / (elapsed / 1e9))
        win.wall_ns = perf_counter_ns() - start
        win.cpu_ns = process_time_ns() - cpu_start
        return win

    def check(self, ctx: QuantizeContext, windows, checks, oracles, reference) -> dict[str, float]:
        """Recompute each scheme with library calls: the saved file bytes and
        the printed sqnr_db must match, and the int8 outputs must be exact."""
        printed = {flag: set() for flag, _ in SCHEMES}
        for w in windows:
            for flag, text in w.samples:
                pairs = dict(line.split("=", 1) for line in text.splitlines())
                printed[flag].add(pairs.get("sqnr_db"))
        p = policy.load_policy(ctx.policy_path).with_activation(policy.leaky_relu())
        calib = np.loadtxt(ctx.calib_path, delimiter=",", ndmin=2).astype(np.float32)
        digests, sqnr, payload = {}, {}, 0
        for flag, scheme in SCHEMES:
            qp = quant.quantize_policy(p, scheme, calib)
            recheck = ctx.workdir / "recheck.bin"
            quant.save_quantized(qp, recheck)
            got = ctx.out_path(flag).read_bytes() if ctx.out_path(flag).exists() else b""
            checks.expect(got == recheck.read_bytes(), f"{flag} quantized file differs from library")
            out = qp.layers[-1]
            ref, tst, ops = [], [], set()
            for row in calib:
                action_q, counters = kernel.infer_int8(
                    qp, kernel.quantize_obs(row, qp.obs_scale, qp.obs_zp))
                ref.append(policy.infer_fp32(p, row))
                tst.append(quant.dequantize_action(action_q, out.output_scale, out.output_zp))
                ops.add(counters)
            checks.expect(ops == {kernel.expected_counters(qp.spec, scheme)},
                          f"{flag} OpCounters {ops} != expected_counters")
            sqnr[flag] = quant.sqnr_db(np.array(ref), np.array(tst))
            checks.expect(printed[flag] == {f"{sqnr[flag]:.10g}"},
                          f"{flag} printed sqnr_db {printed[flag]} != recomputed {sqnr[flag]:.10g}")
            step = len(calib) // BIGINT_SAMPLES
            chk.check_int8_outputs(checks, oracles, qp, calib[::step][:BIGINT_SAMPLES])
            digests[f"quantized_{flag}"] = chk.sha256(got)
            if scheme is QuantScheme.PER_FEATURE:
                payload = quant.int8_payload_bytes(qp)
            print(f"sqnr_db.{flag}={sqnr[flag]:.10g} dB")
        chk.check_golden(checks, ctx.seed, self.name, digests)
        return {"quant.int8_payload_bytes": payload, "quant.sqnr_db": sqnr["per-feature"]}


WORKLOADS = {
    "loop_int8_codec": LoopWorkload("loop_int8_codec", "int8", 120.0),
    "loop_fp32_codec_30hz": LoopWorkload("loop_fp32_codec_30hz", "fp32", 30.0),
    "quantize_calib": QuantizeWorkload(),
}


class SetupTimer:
    """Times SETUP_REPEATS set-ups; setup_s is the median of their CPU
    times, each scaled by the speed probe.

    The first set-up produces the context the run uses; the others write into
    a spare directory. In the untraced run they are spread evenly over the
    measured window, between operations, so that the median does not hang on
    how fast the shared machine happened to be at one moment.
    """

    def __init__(self, wl, seed: int, workdir: Path, tracer, probe: SpeedProbe):
        self._wl, self._seed, self._tracer, self._probe = wl, seed, tracer, probe
        self._spare = workdir / "setup"
        self._spare.mkdir(exist_ok=True)
        self._interval_ns = self._next_ns = 0
        self.times_ns: list[float] = []      # scaled CPU time, for setup_s
        self.wall_ns: list[int] = []         # wall time, for the trace coverage

    def once(self, workdir: Path):
        t0, c0 = perf_counter_ns(), process_time_ns()
        ctx = self._tracer.call("bench.setup", self._wl.setup, self._seed, workdir)
        cpu_ns = process_time_ns() - c0
        self.wall_ns.append(perf_counter_ns() - t0)
        self.times_ns.append(cpu_ns * self._probe.scale())
        return ctx

    def spread_over(self, seconds: float):
        """A callback for between operations that runs the remaining set-ups on schedule."""
        self._interval_ns = int(seconds * 1e9 / SETUP_REPEATS)
        self._next_ns = perf_counter_ns() + self._interval_ns // 2

        def between():
            if len(self.times_ns) < SETUP_REPEATS and perf_counter_ns() >= self._next_ns:
                self.once(self._spare)
                self._next_ns += self._interval_ns
        return between

    def finish(self) -> None:
        while len(self.times_ns) < SETUP_REPEATS:
            self.once(self._spare)


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]


def _p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def _tail(latencies_ns) -> tuple[float, float]:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, in us."""
    n = len(latencies_ns)
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(latencies_ns, pct)) / 1e3
    return 0.0, 0.0


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path) -> Outcome:
    wl = WORKLOADS[name]
    oracles = chk.load_oracles(root)
    checks = chk.Checks()
    tracer = Tracer() if trace else NullTracer()

    probe = SpeedProbe(NullTracer())
    setups = SetupTimer(wl, seed, workdir, tracer, probe)
    probe.mark()
    with tracer.installed():
        ctx = setups.once(workdir)
        if trace:
            setups.finish()
    reference = wl.reference(ctx)  # also warms caches before timing

    if trace:
        # untraced half first: its rate against the traced half's is the overhead
        untraced = wl.measure(ctx, seconds / 2, NullTracer(), probe)
        with tracer.installed():
            window = wl.measure(ctx, seconds / 2, tracer, SpeedProbe(tracer))
        windows = [untraced, window]
    else:
        window = wl.measure(ctx, seconds, tracer, probe, setups.spread_over(seconds))
        setups.finish()
        windows = [window]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = wl.check(ctx, windows, checks, oracles, reference)

    per_layer = {}
    if trace:
        per_layer = layer_metrics(tracer, sum(setups.wall_ns) + window.wall_ns)
        rows = [v for k, v in per_layer.items() if k.endswith("self_ms") or k == "coverage.unattributed_ms"]
        checks.expect(min(rows) >= 0.0, f"negative coverage row in {rows}")
        per_layer.update(extra)
        per_layer["trace.overhead_pct"] = _overhead_pct(untraced, window)
        per_layer.update(chk.host_fit(seed))
    attempted = sum(w.attempted for w in windows) + checks.attempted
    failed = sum(w.failed for w in windows) + len(checks.failures)
    chk.report_failures(checks)

    lat = window.latencies_ns
    rate = statistics.median(window.op_rates) if window.op_rates else 0.0
    print(f"{wl.rate_name}={rate:.6g} 1/s (median of {len(window.op_rates)} operations)")
    print(f"{wl.latency_name}_p50_us={_p50(lat) / 1e3:.6g} us (n={len(lat)})")
    pct, tail_us = _tail(lat)
    if pct:
        print(f"{wl.latency_name}_p{pct:g}_us={tail_us:.6g} us (n={len(lat)})")
    else:
        print(f"{wl.latency_name}: no tail percentile has ten samples beyond it (n={len(lat)})")
    print(f"error_rate={failed / attempted:.6g} ({failed}/{attempted})")
    print(f"cpu_share={window.cpu_ns / window.wall_ns:.4f} (CPU time / wall time of the measured window)")
    if not trace:
        print(f"speed_probe_ms_p50={_p50(probe.samples_ns) / 1e6:.6g} ms (n={len(probe.samples_ns)}, "
              f"times above are scaled to {REFERENCE_NS / 1e6:g} ms)")

    end_to_end = {
        "setup_s": statistics.median(setups.times_ns) / 1e9,
        "throughput_per_s": rate,
        "latency_p50_us": _p50(lat) / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return Outcome(attempted, failed, end_to_end, per_layer)


def _overhead_pct(untraced: Window, traced: Window) -> float:
    if not (untraced.op_rates and traced.op_rates):
        return 0.0
    return 100.0 * (statistics.median(untraced.op_rates) / statistics.median(traced.op_rates) - 1.0)


def layer_metrics(tracer: Tracer, traced_wall_ns: int) -> dict[str, float]:
    stats = tracer.stats()
    counts = tracer.counts
    missing = SpanStats(np.zeros(0, dtype=np.int64), 0)

    def s(name):
        return stats.get(name, missing)

    pf, pt = s("kernel.infer_int8.per_feature"), s("kernel.infer_int8.per_tensor")
    steps = s("harness.plant_step").calls
    wire_self_ns = sum(v.self_ns for k, v in stats.items() if k.startswith("wire."))
    m = {
        "kernel.infer_int8.per_feature.us_p50": pf.p50_us(),
        "kernel.infer_int8.per_tensor.us_p50": pt.p50_us(),
        "kernel.quantize_obs.us_p50": s("kernel.quantize_obs").p50_us(),
        "kernel.calls": pf.calls + pt.calls,
        "kernel.macs": counts["kernel.macs"],
        "kernel.requants": counts["kernel.requants"],
        "kernel.param_loads": counts["kernel.param_loads"],
        "kernel.ns_per_mac": (pf.total_ns + pt.total_ns) / counts["kernel.macs"] if counts["kernel.macs"] else 0.0,
        "kernel.pf_over_pt": pf.p50_us() / pt.p50_us() if pf.calls and pt.calls else 0.0,
        "wire.crc8.us_p50": s("wire.crc8").p50_us(),
        "wire.encode_observation.fp32.us_p50": s("wire.encode_observation.fp32").p50_us(),
        "wire.encode_observation.int8.us_p50": s("wire.encode_observation.int8").p50_us(),
        "wire.decode_action.fp32.us_p50": s("wire.decode_action.fp32").p50_us(),
        "wire.decode_action.int8.us_p50": s("wire.decode_action.int8").p50_us(),
        "wire.frames": counts["wire.frames"],
        "wire.bytes": counts["wire.bytes"],
        "wire.protocol_errors": counts["wire.protocol_errors"],
        "wire.us_per_byte": wire_self_ns / 1e3 / counts["wire.bytes"] if counts["wire.bytes"] else 0.0,
        "harness.plant_step.us_p50": s("harness.plant_step").p50_us(),
        "harness.reward_step.us_p50": s("harness.reward_step").p50_us(),
        "harness.loop_self_us_per_step":
            (s("harness.run_episode").total_ns - s("harness.act").total_ns) / 1e3 / steps if steps else 0.0,
        "harness.steps": steps,
        "harness.updates": s("harness.act").calls,
        "quant.quantize_policy.ms_p50": s("quant.quantize_policy").p50_us() / 1e3,
        "quant.load_quantized.ms_p50": s("quant.load_quantized").p50_us() / 1e3,
        "policy.infer_fp32.us_p50": s("policy.infer_fp32").p50_us(),
        "policy.infer_fp32.calls": s("policy.infer_fp32").calls,
    }
    # coverage: per-layer self time plus the unattributed rest is the traced wall
    for layer in LAYERS:
        m[f"coverage.{layer}.self_ms"] = sum(
            v.self_ns for k, v in stats.items() if k.split(".", 1)[0] == layer) / 1e6
    attributed = sum(v.self_ns for v in stats.values())
    m["coverage.unattributed_ms"] = (traced_wall_ns - attributed) / 1e6
    m["coverage.traced_wall_ms"] = traced_wall_ns / 1e6
    return m
