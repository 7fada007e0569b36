"""Command-line front end.

Each command returns its (key, value) pairs and prints nothing; the one
command class renders them as machine-parseable key=value lines (--pretty
switches to aligned human output). All commands use the exit-code contract:
0 success, 2 usage error, 3 data error, 4 domain error.
"""
from __future__ import annotations

import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import cost, gait, harness, kernel, kinematics, policy, quant, wire
from .errors import DataError, DomainError
from .inputs import check_finite


def _emit(pairs: list[tuple[str, object]], pretty: bool) -> None:
    """The one renderer: a float (np.float64 included) prints at 10 significant
    digits, any other value with str."""
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        text = f"{v:.10g}" if isinstance(v, float) else str(v)
        click.echo(f"{k:<{width}}  {text}" if pretty else f"{k}={text}")


class _Command(click.Command):
    """A command whose callback returns its (key, value) pairs; this class
    declares --pretty and renders the pairs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--pretty"], is_flag=True))

    def invoke(self, ctx):
        pretty = ctx.params.pop("pretty")
        _emit(super().invoke(ctx), pretty)


def _load_calib(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no data: reported below
            # each field parses as float64, then is cast: a float32 overflow is inf, caught below
            data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float32)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read calibration CSV {path}: {exc}") from None
    if data.size == 0:
        raise DataError(f"calibration CSV {path} is empty")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise DataError(f"calibration CSV {path} row {int(np.argmax(bad)) + 1} "
                        "has a non-finite value")
    return data


def _is_quantized_model(path: str) -> bool:
    """Whether the model file starts with the quantized-policy magic; reads only those bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(quant.QUANT_MAGIC)) == quant.QUANT_MAGIC


@click.group()
def cli():
    """Quantization, cycle/power budgeting, gait selection, IK, and loop tools."""


cli.command_class = _Command


@cli.command("quantize")
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scheme", required=True,
              type=click.Choice(["per-tensor", "per-feature"]))
@click.option("--calib", required=True, type=click.Path(exists=True, dir_okay=False),
              help="calibration observations, CSV rows of input-width floats")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_quantize(model, scheme, calib, out):
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

    # one call for the whole matrix on both sides; each FP32 reference row is
    # bit-identical to a single-row call, so sqnr_db does not depend on batching
    ref = policy.infer_fp32(p, calib_data)
    tst = kernel.fused_infer_dequant(qp, calib_data)
    sqnr = quant.sqnr_db(ref, tst)
    quant.save_quantized(qp, out)  # after sqnr_db, so a command that fails leaves no file

    fp32_bytes = quant.fp32_payload_bytes(p.spec)
    int8_bytes = quant.int8_payload_bytes(qp)
    # the reference_* pairs are the published deployment-image sizes for the
    # reference controller, shown for context only (they include framework overhead)
    ref_kb = quant.REFERENCE_IMAGE_KB
    return [("scheme", scheme), ("activation_converted", str(converted).lower()),
            ("sqnr_db", sqnr), ("fp32_payload_bytes", fp32_bytes),
            ("int8_payload_bytes", int8_bytes), ("size_ratio", fp32_bytes / int8_bytes),
            ("out", out), ("reference_fp32_image_kb", ref_kb["fp32_mlp"]),
            ("reference_int8_image_kb", ref_kb["int8_mlp"]),
            ("reference_image_ratio", ref_kb["fp32_mlp"] / ref_kb["int8_mlp"])]


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


def _budget(cycles, power, measured=None, budget=None):
    """(cycles per update, clock or None, PowerParams or None) from the flags over
    the budget file: a flag overrides the file, and --measured gives cycles and clock."""
    if measured is not None and cycles is not None:
        raise DataError("--measured gives the cycles per update; drop --cycles")
    file_cycles, f_clk, pp = cost.load_budget(budget) if budget else (None, None, None)
    if measured is not None:
        f_clk, f_update = _parse_floats(measured, 2, "--measured")
        if not (f_clk > f_update > 0):
            raise DomainError(f"need f_clk > f_update > 0, got {measured!r}")
        cycles = cost._finite_result("measured cycles per update", f_clk / f_update)
    elif cycles is None:
        cycles = file_cycles
    if cycles is None:
        raise DataError("provide --cycles, --measured, or a budget with cycles_per_update")
    check_finite("cycles_per_update", cycles)
    cost._check_cycles(cycles)
    if power is not None:
        pp = cost.PowerParams(*_parse_floats(power, 3, "--power"))
    return cycles, f_clk, pp


@cli.command("cost")
@click.option("--cycles", type=float, default=None, help="cycles per update")
@click.option("--measured", default=None, metavar="FCLK,FUPDATE",
              help="derive cycles/update from a clock and observed update rate")
@click.option("--budget", type=click.Path(exists=True, dir_okay=False), default=None,
              help="key=value budget file")
@click.option("--power", default=None, metavar="V,I_PER_MHZ,PMAX")
@click.option("--target-hz", type=float, default=None)
def cmd_cost(cycles, measured, budget, power, target_hz):
    """Map cycles/update, clock, power budget, and update frequency."""
    cycles, f_clk, pp = _budget(cycles, power, measured, budget)
    pairs: list[tuple[str, object]] = [("cycles_per_update", cycles)]
    if f_clk is not None:
        pairs.append(("f_update_max_hz", cost.max_update_rate(f_clk, cycles)))
    if pp is not None:
        pairs.append(("f_clk_max_hz", cost.max_clock(pp)))
        pairs.append(("f_update_max_at_budget_hz", cost.feasible_update_rate(pp, cycles)))
    if target_hz is not None:
        pairs.append(("f_clk_req_hz", cost.required_clock(cycles, target_hz)))
    return pairs


@cli.command("select-gait")
@click.option("--curves", type=click.Path(exists=True, dir_okay=False), default=None,
              help="gait,f_update_hz,reward_ratio CSV (default: bundled dataset)")
@click.option("--f-update", type=float, default=None)
@click.option("--power", default=None, metavar="V,I_PER_MHZ,PMAX")
@click.option("--cycles", type=float, default=None)
def cmd_select_gait(curves, f_update, power, cycles):
    """Pick the gait regime maximizing reward ratio at a rate or power budget."""
    table = gait.load_gait_table(curves)
    if f_update is None:
        if power is None or cycles is None:
            raise DataError("provide --f-update, or --power together with --cycles")
        cycles, _, pp = _budget(cycles, power)
        f_update = cost.feasible_update_rate(pp, cycles)
    elif power is not None or cycles is not None:
        raise DataError("--f-update is the rate; drop --power and --cycles")
    regime, reward = gait.select_gait(table, f_update)
    return [("gait", regime.value), ("f_update_hz", f_update), ("reward_ratio", reward)]


@cli.command("run-loop")
@click.option("--model", type=click.Path(exists=True, dir_okay=False), default=None,
              help="FP32 (TGP1) or int8 (TGQ1) policy file; its magic says which")
@click.option("--scripted", is_flag=True,
              help="use the built-in scripted gait controller instead of a model")
@click.option("--f-update", type=float, default=120.0)
@click.option("--command", "v_cmd", type=float, required=True,
              help="forward velocity command, m/s")
@click.option("--omega", type=float, default=0.0, help="yaw rate command, rad/s")
@click.option("--seed", type=int, default=0)
@click.option("--episodes", type=int, default=1)
@click.option("--randomize", is_flag=True, help="apply the domain-randomization sampler")
@click.option("--codec", is_flag=True, help="route observations/actions through the wire codec")
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None)
def cmd_run_loop(model, scripted, f_update, v_cmd, omega, seed, episodes, randomize, codec,
                 csv_out):
    """Run closed-loop episodes and report total reward and reward ratio."""
    if episodes < 1:
        raise DataError("--episodes must be >= 1")

    if scripted:
        if model is not None:
            raise DataError("--scripted runs no model; drop --model")
        inner = harness.ScriptedGaitController(v_cmd)
    elif model is None:
        raise DataError("provide --model or --scripted")
    elif _is_quantized_model(model):
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
        sim = harness.SimConfig(f_update_hz=f_update, seed=ep_seed)
        baseline = harness.run_episode(runtime(), base_sim, dr_config, cmd)
        if baseline.total_reward == 0:
            raise DomainError("baseline reward is zero; ratio undefined")
        # on a fresh runtime an episode depends on nothing but sim, randomization and command
        result = (baseline if sim == base_sim
                  else harness.run_episode(runtime(), sim, dr_config, cmd))
        prefix = f"episode{ep}_" if episodes > 1 else ""
        pairs += [(f"{prefix}total_reward", result.total_reward),
                  (f"{prefix}reward_ratio", result.total_reward / baseline.total_reward),
                  (f"{prefix}inferences", result.inference_count)]
        if csv_out is not None:
            path = Path(csv_out)
            if episodes > 1:
                path = path.with_name(f"{path.stem}_{ep}{path.suffix}")
            harness.write_trajectory_csv(result, path)
            pairs.append((f"{prefix}csv", str(path)))
    return pairs


@cli.command("ik")
@click.option("--geometry", required=True, type=click.Path(exists=True, dir_okay=False),
              help="key=value file: l_x, l_y, x_motor_ref, y_motor_ref")
@click.option("--x", "x_end", type=float, required=True)
@click.option("--y", "y_end", type=float, required=True)
def cmd_ik(geometry, x_end, y_end):
    """Solve leg inverse kinematics for one end-effector target."""
    g = kinematics.load_geometry(geometry)
    sol = kinematics.ik(g, x_end, y_end)
    return [("theta_x_rad", sol.theta_x), ("theta_y_rad", sol.theta_y),
            ("x_motor_m", sol.x_motor), ("y_motor_m", sol.y_motor)]


@cli.command("codec")
@click.option("--selftest", is_flag=True)
@click.option("--decode", "hexfile", type=click.Path(exists=True, dir_okay=False),
              default=None, help="decode one frame from a hex text file")
def cmd_codec(selftest, hexfile):
    """Wire-codec round-trip/corruption self-test or one-shot frame decode."""
    if selftest:
        if hexfile is not None:
            raise DataError("--selftest decodes no file; drop --decode")
        rng = np.random.default_rng(0)
        rounds = 2000
        for _ in range(rounds):
            obs = rng.normal(size=wire.OBS_DIM).astype(np.float32)
            frame = wire.encode_observation(obs, "fp32", 1)
            if not np.array_equal(wire.decode_observation(frame)[0], obs):
                raise DataError("codec selftest: fp32 round trip mismatch")
            corrupt = bytearray(frame)
            idx = int(rng.integers(1, len(corrupt) - 1))
            corrupt[idx] ^= int(rng.integers(1, 256))
            try:
                wire.decode_observation(bytes(corrupt))
            except wire.ProtocolError:
                pass
            else:
                raise DataError("codec selftest: corruption went undetected")
        return [("selftest", "ok"), ("round_trips", rounds), ("corruptions_detected", rounds)]
    if hexfile is None:
        raise DataError("provide --selftest or --decode")
    try:
        raw = bytes.fromhex(Path(hexfile).read_text().strip().replace(" ", ""))
    except ValueError as exc:
        raise DataError(f"bad hex in {hexfile}: {exc}") from None
    frame = wire.decode_frame(raw)
    return [("msg_type", f"0x{frame.msg_type:02X}"), ("seq", frame.seq),
            ("payload_bytes", len(frame.payload))]


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
