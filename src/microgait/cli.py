"""Command-line front end.

All commands print machine-parseable key=value lines by default (--pretty
switches to aligned human output) and use the exit-code contract:
0 success, 2 usage error, 3 data error, 4 domain error.
"""
from __future__ import annotations

import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import cost, gait, harness, kinematics, policy, quant, wire
from .errors import DataError, DomainError
from .inputs import check_finite


def _emit(pairs: list[tuple[str, object]], pretty: bool) -> None:
    if pretty:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            click.echo(f"{k:<{width}}  {v}")
    else:
        for k, v in pairs:
            click.echo(f"{k}={v}")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_calib(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no data: reported below
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read calibration CSV {path}: {exc}") from None
    if data.size == 0:
        raise DataError(f"calibration CSV {path} is empty")
    data = data.astype(np.float32)  # a value that overflows float32 is caught below
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise DataError(f"calibration CSV {path} row {int(np.argmax(bad)) + 1} "
                        "has a non-finite value")
    return data


@click.group()
def cli():
    """Quantization, cycle/power budgeting, gait selection, IK, and loop tools."""


@cli.command("quantize")
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scheme", required=True,
              type=click.Choice(["per-tensor", "per-feature"]))
@click.option("--calib", required=True, type=click.Path(exists=True, dir_okay=False),
              help="calibration observations, CSV rows of input-width floats")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--pretty", is_flag=True)
def cmd_quantize(model, scheme, calib, out, pretty):
    """Quantize an FP32 policy file to int8 and report size/SQNR metrics."""
    p = policy.load_policy(model)
    converted = False
    if p.spec.hidden_activation.kind is policy.ActivationKind.ELU:
        p = p.with_activation(policy.leaky_relu())
        converted = True
    calib_data = _load_calib(calib)
    qscheme = (quant.QuantScheme.PER_TENSOR if scheme == "per-tensor"
               else quant.QuantScheme.PER_FEATURE)
    qp = quant.quantize_policy(p, qscheme, calib_data)
    quant.save_quantized(qp, out)

    from .kernel import fused_infer_dequant
    # one call for the whole matrix on both sides; each FP32 reference row is
    # bit-identical to a single-row call, so sqnr_db does not depend on batching
    ref = policy.infer_fp32(p, calib_data)
    tst = fused_infer_dequant(qp, calib_data)
    sqnr = quant.sqnr_db(ref, tst)

    fp32_bytes = quant.fp32_payload_bytes(p.spec)
    int8_bytes = quant.int8_payload_bytes(qp)
    pairs = [
        ("scheme", scheme),
        ("activation_converted", str(converted).lower()),
        ("sqnr_db", _fmt(sqnr)),
        ("fp32_payload_bytes", fp32_bytes),
        ("int8_payload_bytes", int8_bytes),
        ("size_ratio", _fmt(fp32_bytes / int8_bytes)),
        ("out", out),
    ]
    # published deployment-image sizes for the reference controller, shown
    # for context only (they include framework overhead)
    ref_kb = quant.REFERENCE_IMAGE_KB
    pairs += [
        ("reference_fp32_image_kb", ref_kb["fp32_mlp"]),
        ("reference_int8_image_kb", ref_kb["int8_mlp"]),
        ("reference_image_ratio", _fmt(ref_kb["fp32_mlp"] / ref_kb["int8_mlp"])),
    ]
    _emit(pairs, pretty)


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise DataError(f"{what} needs {n} comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise DataError(f"bad number in {what}: {text!r}") from None
    check_finite(what, values)
    return values


@cli.command("cost")
@click.option("--cycles", type=float, default=None, help="cycles per update")
@click.option("--measured", default=None, metavar="FCLK,FUPDATE",
              help="derive cycles/update from a clock and observed update rate")
@click.option("--budget", type=click.Path(exists=True, dir_okay=False), default=None,
              help="key=value budget file")
@click.option("--power", default=None, metavar="V,I_PER_MHZ,PMAX")
@click.option("--target-hz", type=float, default=None)
@click.option("--pretty", is_flag=True)
def cmd_cost(cycles, measured, budget, power, target_hz, pretty):
    """Map cycles/update, clock, power budget, and update frequency."""
    pairs: list[tuple[str, object]] = []
    budget_values = cost.load_budget(budget) if budget else {}
    f_clk = budget_values.get("f_clk_hz")

    if measured is not None:
        f_clk, f_update = _parse_floats(measured, 2, "--measured")
        if not (f_clk > f_update > 0):
            raise DomainError(f"need f_clk > f_update > 0, got {measured!r}")
        cycles = f_clk / f_update
    elif cycles is None:
        cycles = budget_values.get("cycles_per_update")
    if cycles is None:
        raise DataError("provide --cycles, --measured, or a budget with cycles_per_update")
    check_finite("cycles_per_update", cycles)
    if cycles <= 0:
        raise DomainError(f"cycles per update must be > 0, got {cycles}")
    pairs.append(("cycles_per_update", _fmt(cycles)))
    if f_clk is not None:
        pairs.append(("f_update_max_hz", _fmt(cost.max_update_rate(f_clk, cycles))))

    pp = None
    if power is not None:
        v, i_mhz, p_max = _parse_floats(power, 3, "--power")
        pp = cost.PowerParams(v, i_mhz, p_max)
    elif {"v_volts", "i_per_mhz_amps", "p_max_watts"} <= budget_values.keys():
        pp = cost.PowerParams(budget_values["v_volts"],
                              budget_values["i_per_mhz_amps"],
                              budget_values["p_max_watts"])
    if pp is not None:
        pairs.append(("f_clk_max_hz", _fmt(cost.max_clock(pp))))
        pairs.append(("f_update_max_at_budget_hz",
                      _fmt(cost.feasible_update_rate(pp, cycles))))
    if target_hz is not None:
        pairs.append(("f_clk_req_hz", _fmt(cost.required_clock(cycles, target_hz))))
    _emit(pairs, pretty)


@cli.command("select-gait")
@click.option("--curves", type=click.Path(exists=True, dir_okay=False), default=None,
              help="gait,f_update_hz,reward_ratio CSV (default: bundled dataset)")
@click.option("--f-update", type=float, default=None)
@click.option("--power", default=None, metavar="V,I_PER_MHZ,PMAX")
@click.option("--cycles", type=float, default=None)
@click.option("--pretty", is_flag=True)
def cmd_select_gait(curves, f_update, power, cycles, pretty):
    """Pick the gait regime maximizing reward ratio at a rate or power budget."""
    table = gait.load_gait_table(curves)
    if f_update is not None:
        regime, reward = gait.select_gait(table, f_update)
    elif power is not None and cycles is not None:
        v, i_mhz, p_max = _parse_floats(power, 3, "--power")
        pp = cost.PowerParams(v, i_mhz, p_max)
        regime, f_update, reward = gait.select_gait_for_power(table, pp, cycles)
    else:
        raise DataError("provide --f-update, or --power together with --cycles")
    _emit([("gait", regime.value),
           ("f_update_hz", _fmt(f_update)),
           ("reward_ratio", _fmt(reward))], pretty)


@cli.command("run-loop")
@click.option("--model", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--quantized", is_flag=True, help="model file is an int8 policy")
@click.option("--scripted", is_flag=True,
              help="use the built-in scripted gait controller instead of a model")
@click.option("--f-update", type=float, default=120.0)
@click.option("--command", "v_cmd", type=float, required=True,
              help="forward velocity command, m/s")
@click.option("--omega", type=float, default=0.0, help="yaw rate command, rad/s")
@click.option("--seed", type=int, default=0)
@click.option("--episodes", type=int, default=1)
@click.option("--randomize/--no-randomize", default=False,
              help="apply the domain-randomization sampler")
@click.option("--codec/--no-codec", default=False,
              help="route observations/actions through the wire codec")
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None)
@click.option("--pretty", is_flag=True)
def cmd_run_loop(model, quantized, scripted, f_update, v_cmd, omega, seed,
                 episodes, randomize, codec, csv_out, pretty):
    """Run closed-loop episodes and report total reward and reward ratio."""
    if episodes < 1:
        raise DataError("--episodes must be >= 1")

    if scripted:
        inner = harness.ScriptedGaitController(v_cmd)
    elif model is None:
        raise DataError("provide --model or --scripted")
    elif quantized:
        inner = harness.QuantizedRuntime(quant.load_quantized(model))
    else:
        inner = harness.PolicyRuntime(policy.load_policy(model))
    precision = "int8" if isinstance(inner, harness.QuantizedRuntime) else "fp32"

    def runtime():
        # a fresh codec session per episode; the runtimes themselves are stateless
        return harness.CodecRuntime(inner, precision) if codec else inner

    dr_config = harness.DRConfig() if randomize else None
    cmd = (v_cmd, omega)
    pairs: list[tuple[str, object]] = []
    for ep in range(episodes):
        ep_seed = seed + ep
        base_sim = harness.SimConfig(seed=ep_seed)  # baseline: inference every step
        baseline = harness.run_episode(runtime(), base_sim, dr_config, cmd)
        sim = harness.SimConfig(f_update_hz=f_update, seed=ep_seed)
        result = harness.run_episode(runtime(), sim, dr_config, cmd)
        if baseline.total_reward == 0:
            raise DomainError("baseline reward is zero; ratio undefined")
        prefix = f"episode{ep}_" if episodes > 1 else ""
        pairs += [(f"{prefix}total_reward", _fmt(result.total_reward)),
                  (f"{prefix}reward_ratio", _fmt(result.total_reward / baseline.total_reward)),
                  (f"{prefix}inferences", result.inference_count)]
        if csv_out is not None:
            path = Path(csv_out)
            if episodes > 1:
                path = path.with_name(f"{path.stem}_{ep}{path.suffix}")
            harness.write_trajectory_csv(result, path)
            pairs.append((f"{prefix}csv", str(path)))
    _emit(pairs, pretty)


@cli.command("ik")
@click.option("--geometry", required=True, type=click.Path(exists=True, dir_okay=False),
              help="key=value file: l_x, l_y, x_motor_ref, y_motor_ref")
@click.option("--x", "x_end", type=float, required=True)
@click.option("--y", "y_end", type=float, required=True)
@click.option("--pretty", is_flag=True)
def cmd_ik(geometry, x_end, y_end, pretty):
    """Solve leg inverse kinematics for one end-effector target."""
    g = kinematics.load_geometry(geometry)
    sol = kinematics.ik(g, kinematics.EndEffector(x_end, y_end))
    _emit([("theta_x_rad", _fmt(sol.theta_x)),
           ("theta_y_rad", _fmt(sol.theta_y)),
           ("x_motor_m", _fmt(sol.x_motor)),
           ("y_motor_m", _fmt(sol.y_motor))], pretty)


@cli.command("codec")
@click.option("--selftest", is_flag=True)
@click.option("--decode", "hexfile", type=click.Path(exists=True, dir_okay=False),
              default=None, help="decode one frame from a hex text file")
@click.option("--pretty", is_flag=True)
def cmd_codec(selftest, hexfile, pretty):
    """Wire-codec round-trip/corruption self-test or one-shot frame decode."""
    if selftest:
        rng = np.random.default_rng(0)
        rounds = 2000
        for _ in range(rounds):
            obs = rng.normal(size=wire.OBS_DIM).astype(np.float32)
            vals, _, _ = wire.decode_observation(wire.encode_observation(obs, "fp32", 1))
            if not np.array_equal(vals, obs):
                raise DataError("codec selftest: fp32 round trip mismatch")
            frame = bytearray(wire.encode_observation(obs, "fp32", 1))
            idx = int(rng.integers(1, len(frame) - 1))
            frame[idx] ^= int(rng.integers(1, 256))
            try:
                wire.decode_observation(bytes(frame))
            except wire.ProtocolError:
                pass
            else:
                raise DataError("codec selftest: corruption went undetected")
        _emit([("selftest", "ok"), ("round_trips", rounds),
               ("corruptions_detected", rounds)], pretty)
        return
    if hexfile is None:
        raise DataError("provide --selftest or --decode")
    try:
        raw = bytes.fromhex(Path(hexfile).read_text().strip().replace(" ", ""))
    except ValueError as exc:
        raise DataError(f"bad hex in {hexfile}: {exc}") from None
    frame = wire.decode_frame(raw)
    _emit([("msg_type", f"0x{frame.msg_type:02X}"),
           ("seq", frame.seq),
           ("payload_bytes", len(frame.payload))], pretty)


def main(argv=None) -> int:
    try:
        # an overflow or invalid float operation leaves a non-finite value,
        # which every command rejects as a DataError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 2
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 2
    except OSError as exc:  # an output path that cannot be written, as click reports a bad path
        click.echo(f"error: {exc}", err=True)
        return 2
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 4
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
