from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from microgait import cost, harness, wire
from microgait.cli import _emit, _load_calib, cli, main
from microgait.cost import PowerParams, feasible_update_rate, max_clock
from microgait.errors import DataError, DomainError
from microgait.policy import PolicySpec, leaky_relu, random_policy, save_policy
from microgait.quant import QuantScheme, quantize_policy, save_quantized


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    pairs = {}
    for line in out.out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return code, pairs, out.err


@pytest.fixture
def model_file(tmp_path):
    p = random_policy(PolicySpec((24, 128, 64, 8)), 0)  # ELU, as trained
    path = tmp_path / "policy.bin"
    save_policy(p, path)
    return path


@pytest.fixture
def calib_file(tmp_path):
    data = np.random.default_rng(0).normal(size=(32, 24))
    path = tmp_path / "calib.csv"
    np.savetxt(path, data, delimiter=",")
    return path


def test_quantize_command(capsys, tmp_path, model_file, calib_file):
    out = tmp_path / "q.bin"
    code, pairs, _ = run_cli(capsys, "quantize", "--model", str(model_file),
                             "--scheme", "per-feature", "--calib", str(calib_file),
                             "--out", str(out))
    assert code == 0
    assert out.exists()
    assert pairs["activation_converted"] == "true"
    assert pairs["fp32_payload_bytes"] == "47904"
    assert 3.4 <= float(pairs["size_ratio"]) <= 4.0
    assert float(pairs["sqnr_db"]) > 10.0


def test_quantize_missing_model_is_usage_error(capsys, tmp_path, calib_file):
    code = main(["quantize", "--model", str(tmp_path / "nope.bin"),
                 "--scheme", "per-tensor", "--calib", str(calib_file),
                 "--out", str(tmp_path / "q.bin")])
    capsys.readouterr()
    assert code == 2


def test_quantize_bad_model_is_data_error(capsys, tmp_path, calib_file):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a policy")
    code = main(["quantize", "--model", str(bad), "--scheme", "per-tensor",
                 "--calib", str(calib_file), "--out", str(tmp_path / "q.bin")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.strip().splitlines()[-1].startswith("data error:")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e39"])
def test_quantize_non_finite_calib_is_data_error(capsys, tmp_path, model_file, bad):
    rows = np.random.default_rng(0).normal(size=(4, 24)).astype(str)
    rows[2, 7] = bad  # 1e39 is finite in float64 but overflows float32
    calib = tmp_path / "calib_bad.csv"
    calib.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code = main(["quantize", "--model", str(model_file), "--scheme", "per-feature",
                 "--calib", str(calib), "--out", str(tmp_path / "q.bin")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.strip().splitlines()[-1].startswith("data error:")
    assert "row 3" in err
    assert not (tmp_path / "q.bin").exists()


@pytest.mark.parametrize("scheme", ["per-tensor", "per-feature"])
def test_quantize_that_fails_after_quantizing_writes_no_file(capsys, tmp_path, calib_file, scheme):
    # an all-zero policy quantizes, but its FP32 actions are all zero, so the SQNR has no signal
    p = random_policy(PolicySpec((24, 128, 64, 8)), 0)
    for a in (*p.weights, *p.biases):
        a[:] = 0.0
    save_policy(p, tmp_path / "zero.bin")
    code = main(["quantize", "--model", str(tmp_path / "zero.bin"), "--scheme", scheme,
                 "--calib", str(calib_file), "--out", str(tmp_path / "q.bin")])
    assert code == 4
    assert capsys.readouterr().err == "domain error: reference signal is identically zero\n"
    assert not (tmp_path / "q.bin").exists()


# 1 + 2^-24 is the float64 midway between the float32 1.0 and its successor, and this
# string lies 1e-25 above it: parsed to float64 it is that midway, which the cast to
# float32 rounds to even, 1.0; a correctly rounded float32 parse would give the successor
ABOVE_MIDWAY = "1.0000000596046447753906251"


def _just_past(v: float) -> str:
    """v's exact decimal with one more nonzero digit: farther from zero by less than float64 resolves."""
    s = format(Decimal(v), "f")
    return s + ("1" if "." in s else ".1")


def test_calib_parses_as_the_float64_parse_cast_to_float32(tmp_path):
    assert Decimal(ABOVE_MIDWAY) > Decimal(1) + Decimal(2) ** -24
    rng = np.random.default_rng(3)
    f32 = rng.normal(scale=10.0 ** rng.integers(-30, 30, size=(64, 24)), size=(64, 24))
    f32 = f32.astype(np.float32)
    # the exact float64 midway between each float32 and its successor, with a digit
    # past it, so a parse straight to float32 would round these away from the cast
    mid = (f32.astype(np.float64) + np.nextafter(f32, np.float32(np.inf)).astype(np.float64)) / 2
    text = [[_just_past(v) for v in row] for row in mid.tolist()]
    text += [[ABOVE_MIDWAY, "-" + ABOVE_MIDWAY] + [repr(v) for v in rng.normal(size=22).tolist()]]
    path = tmp_path / "calib.csv"
    path.write_text("\n".join(",".join(row) for row in text) + "\n")

    got = _load_calib(str(path))

    want = np.loadtxt(path, delimiter=",", ndmin=2).astype(np.float32)
    assert got.dtype == np.float32 and got.shape == (65, 24)
    assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()
    assert got[-1, :2].tolist() == [1.0, -1.0]
    # a value past float32's range is still a non-finite value, named by its row
    text[40][5] = "1e39"
    path.write_text("\n".join(",".join(row) for row in text) + "\n")
    with pytest.raises(DataError, match="row 41 has a non-finite value"):
        _load_calib(str(path))


def _file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _model(path, dims) -> str:
    save_policy(random_policy(PolicySpec(dims), 0), path)
    return str(path)


def _overflowing_model(path) -> str:
    p = random_policy(PolicySpec(), 0)
    p.weights[0][:] = 3e38  # finite in float32; the first layer's outputs are not
    save_policy(p, path)
    return str(path)


NOT_UTF8 = "l_x = 1.0  # \u00b5m\n".encode("latin-1")
# a CRC-valid int8 action frame with 3 payload bytes, as hex text; the type carries 8
ACT_INT8_3_BODY = bytes([wire.MSG_ACT_INT8, 0, 3, 0, 1, 2, 3])
ACT_INT8_3_BYTES = (bytes([wire.SYNC]) + ACT_INT8_3_BODY
                    + bytes([wire.crc8(ACT_INT8_3_BODY)])).hex().encode()
# a power budget without i_per_mhz_amps: the three power keys come together
PARTIAL_POWER = b"cycles_per_update = 1e5\nv_volts = 1.8\np_max_watts = 0.0018\n"


@pytest.mark.parametrize("make_args, message", [
    pytest.param(lambda tmp, model: ["cost", "--measured", "5e6"],
                 "--measured needs 2 comma-separated values", id="measured-count"),
    pytest.param(lambda tmp, model: ["cost", "--measured", "5e6,fast"],
                 "bad number in --measured", id="measured-number"),
    pytest.param(lambda tmp, model: ["run-loop", "--scripted", "--command", "0.1",
                                     "--episodes", "0"],
                 "--episodes must be >= 1", id="episodes-0"),
    pytest.param(lambda tmp, model: ["run-loop", "--scripted", "--model", model,
                                     "--command", "0.08", "--f-update", "30"],
                 "--scripted runs no model", id="scripted-with-model"),
    # the file's magic picks the reader, and that reader's message is the one reported
    pytest.param(lambda tmp, model: ["run-loop", "--command", "0.05",
                                     "--model", _file(tmp / "m.bin", b"XXXX" + bytes(8))],
                 "bad policy magic b'XXXX'", id="run-loop-model-no-magic"),
    pytest.param(lambda tmp, model: ["run-loop", "--command", "0.05",
                                     "--model", _file(tmp / "m.bin", b"TGQ1" + bytes(3))],
                 "truncated quantized-policy file", id="run-loop-truncated-int8-model"),
    pytest.param(lambda tmp, model: ["run-loop", "--command", "0.05",
                                     "--model", _file(tmp / "m.bin", Path(model).read_bytes()[:-1])],
                 "truncated policy file", id="run-loop-truncated-fp32-model"),
    pytest.param(lambda tmp, model: ["run-loop", "--command", "0.05", "--codec",
                                     "--model", _model(tmp / "m.bin", (24, 16, 6))],
                 "ACT_DIM=8 actions out; the model's layer widths are [24, 16, 6]",
                 id="run-loop-codec-model-the-wire-cannot-carry"),
    pytest.param(lambda tmp, model: ["codec"], "provide --selftest or --decode", id="codec-no-flag"),
    pytest.param(lambda tmp, model: ["codec", "--decode", _file(tmp / "f.hex", b"zz01")],
                 "bad hex in", id="codec-bad-hex"),
    pytest.param(lambda tmp, model: ["codec", "--decode", _file(tmp / "f.hex", ACT_INT8_3_BYTES)],
                 "payload is 3 bytes, type 0x12 needs 8", id="codec-wrong-payload-size"),
    pytest.param(lambda tmp, model: ["quantize", "--model", model, "--scheme", "per-tensor",
                                     "--calib", _file(tmp / "c.csv", b""), "--out", str(tmp / "q")],
                 "is empty", id="empty-calib"),
    pytest.param(lambda tmp, model: ["quantize", "--model", _overflowing_model(tmp / "big.bin"),
                                     "--scheme", "per-tensor", "--calib",
                                     _file(tmp / "c.csv", b"0.5," * 23 + b"-0.5\n"),
                                     "--out", str(tmp / "q")],
                 "layer 0 output range [inf, inf] is not finite", id="quantize-overflow"),
    pytest.param(lambda tmp, model: ["cost", "--budget", _file(tmp / "b.txt", NOT_UTF8)],
                 "is not UTF-8 text", id="budget-not-utf8"),
    pytest.param(lambda tmp, model: ["cost", "--budget", _file(tmp / "b.txt", PARTIAL_POWER)],
                 "power budget missing keys: i_per_mhz_amps", id="budget-partial-power"),
    pytest.param(lambda tmp, model: ["cost", "--cycles", "5", "--measured", "5e6,50"],
                 "--measured gives the cycles per update; drop --cycles",
                 id="cost-cycles-with-measured"),
    pytest.param(lambda tmp, model: ["select-gait", "--f-update", "50", "--cycles", "nan"],
                 "--f-update is the rate; drop --power and --cycles",
                 id="select-gait-rate-with-cycles"),
    pytest.param(lambda tmp, model: ["select-gait", "--f-update", "50",
                                     "--power", "1.8,0.0001,0.0018"],
                 "--f-update is the rate; drop --power and --cycles",
                 id="select-gait-rate-with-power"),
    pytest.param(lambda tmp, model: ["select-gait", "--f-update", "50", "--cycles", "104998",
                                     "--power", "1.8,0.0001,0.0018"],
                 "--f-update is the rate; drop --power and --cycles",
                 id="select-gait-rate-with-budget"),
    pytest.param(lambda tmp, model: ["codec", "--selftest", "--decode",
                                     _file(tmp / "f.hex", b"zz01")],
                 "--selftest decodes no file; drop --decode", id="codec-selftest-with-decode"),
    pytest.param(lambda tmp, model: ["ik", "--x", "0", "--y", "0",
                                     "--geometry", _file(tmp / "g.txt", NOT_UTF8)],
                 "is not UTF-8 text", id="geometry-not-utf8"),
    pytest.param(lambda tmp, model: ["select-gait", "--f-update", "30",
                                     "--curves", _file(tmp / "c.csv", NOT_UTF8)],
                 "is not UTF-8 text", id="curves-not-utf8"),
])
@pytest.mark.filterwarnings("error")  # a warning would print more than the one error line
def test_rejected_input_is_one_data_error_line(capsys, tmp_path, model_file, make_args, message):
    code = main(make_args(tmp_path, str(model_file)))
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("data error: ") and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("command", ["quantize", "run-loop"])
def test_unwritable_output_path_is_one_error_line(capsys, tmp_path, model_file, calib_file,
                                                  command):
    missing = tmp_path / "missing"
    args = {"quantize": ["quantize", "--model", str(model_file), "--scheme", "per-tensor",
                         "--calib", str(calib_file), "--out", str(missing / "q.bin")],
            "run-loop": ["run-loop", "--scripted", "--command", "0.1",
                         "--csv-out", str(missing / "t.csv")]}[command]
    code = main(args)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert str(missing) in out.err


def test_cost_measured(capsys):
    code, pairs, _ = run_cli(capsys, "cost", "--measured", "5e6,47.62",
                             "--target-hz", "60")
    assert code == 0
    assert float(pairs["cycles_per_update"]) == pytest.approx(104998, abs=1)
    assert 6.25e6 <= float(pairs["f_clk_req_hz"]) <= 6.30e6


def test_cost_power_budget(capsys, tmp_path):
    budget = tmp_path / "budget.txt"
    budget.write_text("cycles_per_update=104998\nv_volts=1.8\n"
                      "i_per_mhz_amps=0.0001\np_max_watts=0.0018\n")
    code, pairs, _ = run_cli(capsys, "cost", "--budget", str(budget))
    assert code == 0
    assert float(pairs["f_clk_max_hz"]) == pytest.approx(1e7)
    assert float(pairs["f_update_max_at_budget_hz"]) == pytest.approx(1e7 / 104998)


def test_cost_cycles_with_power(capsys):
    code, pairs, _ = run_cli(capsys, "cost", "--cycles", "104998",
                             "--power", "1.8,0.0001,0.0018")
    assert code == 0
    pp = PowerParams(1.8, 0.0001, 0.0018)
    assert pairs["f_clk_max_hz"] == f"{max_clock(pp):.10g}"
    assert pairs["f_update_max_at_budget_hz"] == f"{feasible_update_rate(pp, 104998):.10g}"


def test_cost_requires_cycles(capsys):
    code = main(["cost", "--target-hz", "60"])
    capsys.readouterr()
    assert code == 3


def test_cost_bad_measured_is_domain_error(capsys):
    code = main(["cost", "--measured", "10,20"])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize("args", [
    ["select-gait", "--f-update", "nan"],
    ["select-gait", "--power", "1.8,0.0001,0.0018", "--cycles", "inf"],
    ["cost", "--cycles", "nan"],
    ["cost", "--cycles", "inf"],
    ["cost", "--cycles", "1e5", "--target-hz", "nan"],
    ["run-loop", "--scripted", "--command", "nan"],
    ["run-loop", "--scripted", "--command", "inf"],
    ["run-loop", "--scripted", "--command", "-inf"],
    ["run-loop", "--scripted", "--command", "0.1", "--omega", "nan"],
    ["run-loop", "--scripted", "--command", "0.1", "--omega", "inf"],
    ["run-loop", "--scripted", "--command", "0.1", "--omega", "-inf"],
    ["cost", "--measured", "nan,1"],
    ["cost", "--measured", "5e6,inf"],
])
def test_non_finite_number_is_data_error(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("data error:") and "finite" in out.err
    assert "Traceback" not in out.err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print more than one line
def test_run_loop_non_finite_action_is_data_error(capsys, tmp_path):
    # large finite weights overflow float32 in the forward pass: the action is
    # rejected where the runtime returns it, not as the next observation, and
    # stderr holds only the one error line
    path = tmp_path / "big.bin"
    for scale, where in ((20.0, "update 12 (t=0.1 s)"), (6.0, "update 25 (t=0.208333 s)"),
                         (3.0, "update 59 (t=0.491667 s)")):
        save_policy(random_policy(PolicySpec(), 1, weight_scale=scale), path)
        code = main(["run-loop", "--model", str(path), "--command", "0.1", "--f-update", "30"])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert out.err == ("data error: runtime produced a non-finite or float32-overflowing "
                           f"action at {where}\n")


@pytest.mark.parametrize("args", [
    ["cost", "--cycles", "-5"],
    ["cost", "--cycles", "0"],
    ["select-gait", "--f-update", "-5"],
    pytest.param(["cost", "--budget", b"f_clk_hz = -5e6\ncycles_per_update = 1e5\n"],
                 id="budget-negative-clock"),
    # finite inputs whose result leaves the float range
    pytest.param(["cost", "--cycles", "1e5", "--power", "1e-200,1e-200,1"],
                 id="cost-power-underflow"),
    pytest.param(["select-gait", "--cycles", "1e5", "--power", "1e-300,1e-300,1e300"],
                 id="select-gait-power-underflow"),
    pytest.param(["cost", "--cycles", "1e300", "--target-hz", "1e300"],
                 id="cost-required-clock-overflow"),
    pytest.param(["cost", "--cycles", "1e-300", "--power", "1,1,1e300"],
                 id="cost-update-rate-overflow"),
    pytest.param(["cost", "--measured", "5e6,1e-320"], id="cost-measured-overflow"),
])
def test_out_of_domain_number_is_domain_error(capsys, tmp_path, args):
    # a bytes argument is the contents of a file, passed by its path
    code = main([_file(tmp_path / "arg.txt", a) if isinstance(a, bytes) else a for a in args])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("domain error:")


def test_non_positive_cycles_has_one_wording(capsys):
    code = main(["cost", "--cycles", "-5"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    for call in (lambda: cost.max_update_rate(5e6, -5), lambda: cost.required_clock(-5, 60)):
        with pytest.raises(DomainError) as exc:
            call()
        assert out.err == f"domain error: {exc.value}\n"


def test_select_gait_reference(capsys):
    code, pairs, _ = run_cli(capsys, "select-gait", "--f-update", "47.62")
    assert code == 0
    assert pairs["gait"] == "trot"
    code, pairs, _ = run_cli(capsys, "select-gait", "--f-update", "100")
    assert pairs["gait"] == "gallop"


def test_select_gait_power_budget(capsys):
    code, pairs, _ = run_cli(capsys, "select-gait", "--power", "1.8,0.0001,0.0018",
                             "--cycles", "104998")
    assert code == 0
    assert pairs["gait"] == "gallop"
    assert float(pairs["f_update_hz"]) == pytest.approx(1e7 / 104998)


def test_select_gait_needs_input(capsys):
    code = main(["select-gait"])
    capsys.readouterr()
    assert code == 3


def test_run_loop_scripted(capsys, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, pairs, _ = run_cli(capsys, "run-loop", "--scripted", "--command", "0.08",
                             "--f-update", "30", "--csv-out", str(csv_path))
    assert code == 0
    assert csv_path.exists()
    assert 0.0 < float(pairs["reward_ratio"]) <= 1.0 + 1e-9
    assert pairs["inferences"] == "300"


def test_run_loop_quantized_model(capsys, tmp_path, model_file, calib_file):
    from microgait.policy import load_policy
    p = load_policy(model_file).with_activation(leaky_relu())
    qp = quantize_policy(p, QuantScheme.PER_TENSOR,
                         np.loadtxt(calib_file, delimiter=",", ndmin=2))
    qpath = tmp_path / "q.bin"
    save_quantized(qp, qpath)
    code, pairs, _ = run_cli(capsys, "run-loop", "--model", str(qpath),
                             "--command", "0.05", "--codec")
    assert code == 0
    assert "total_reward" in pairs


def test_reward_ratio_against_self_is_one(capsys, monkeypatch):
    # at the 120 Hz step rate the episode repeats its baseline exactly
    code, pairs, _ = run_cli(capsys, "run-loop", "--scripted", "--command", "0.08")
    assert code == 0 and pairs["reward_ratio"] == "1"
    zero = harness.EpisodeResult([], 0.0, 0, 0)
    monkeypatch.setattr(harness, "run_episode", lambda *args: zero)
    code = main(["run-loop", "--scripted", "--command", "0.08"])
    assert code == 4
    assert "domain error: baseline reward is zero" in capsys.readouterr().err


@pytest.mark.parametrize("f_update, code, runs", [
    ("120", 0, 1),  # the episode at the update rate is the baseline
    ("30", 0, 2),
    ("500", 3, 0),  # a bad rate is reported before any episode runs
])
def test_run_loop_runs_each_distinct_episode_once(capsys, monkeypatch, f_update, code, runs):
    run_episode, sims = harness.run_episode, []

    def counted(runtime, sim, *args):
        sims.append(sim)
        return run_episode(runtime, sim, *args)

    monkeypatch.setattr(harness, "run_episode", counted)
    assert main(["run-loop", "--scripted", "--command", "0.08", "--f-update", f_update,
                 "--episodes", "2"]) == code
    capsys.readouterr()
    assert len(sims) == 2 * runs


@pytest.mark.parametrize("flag", ["--quantized", "--no-codec", "--no-randomize"])
def test_run_loop_has_no_second_spelling(capsys, flag):
    # the model file's magic says int8 or FP32, and each switch is off unless given
    code = main(["run-loop", "--scripted", "--command", "0.08", flag])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith(f"usage error: No such option '{flag}'")


def test_run_loop_negative_seed_is_data_error(capsys):
    code = main(["run-loop", "--scripted", "--command", "0.1", "--seed", "-1", "--randomize"])
    out = capsys.readouterr()
    assert code == 3
    assert out.err.startswith("data error: seed must be >= 0")
    assert "Traceback" not in out.err


def test_run_loop_needs_model_or_scripted(capsys):
    code = main(["run-loop", "--command", "0.05"])
    capsys.readouterr()
    assert code == 3


def test_ik_command(capsys, tmp_path):
    geom = tmp_path / "leg.txt"
    geom.write_text("l_x=1.0\nl_y=1.0\n")
    code, pairs, _ = run_cli(capsys, "ik", "--geometry", str(geom),
                             "--x", "0", "--y", "0")
    assert code == 0
    assert float(pairs["theta_y_rad"]) == 0.0
    assert float(pairs["y_motor_m"]) == pytest.approx(1.0)


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_ik_non_finite_target_is_data_error(capsys, tmp_path, x):
    geom = tmp_path / "leg.txt"
    geom.write_text("l_x=1.0\nl_y=1.0\n")
    code = main(["ik", "--geometry", str(geom), "--x", x, "--y", "0"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("data error:") and "finite" in out.err
    assert len(out.err.splitlines()) == 1


def test_ik_out_of_workspace_is_domain_error(capsys, tmp_path):
    geom = tmp_path / "leg.txt"
    geom.write_text("l_x=1.0\nl_y=1.0\n")
    code = main(["ik", "--geometry", str(geom), "--x", "5", "--y", "0"])
    err = capsys.readouterr().err
    assert code == 4
    assert "domain error" in err


def test_codec_selftest(capsys):
    code, pairs, _ = run_cli(capsys, "codec", "--selftest")
    assert code == 0
    assert pairs["selftest"] == "ok"


def test_codec_decode(capsys, tmp_path):
    from microgait.wire import encode_observation
    frame = encode_observation(np.zeros(24, dtype=np.int8), "int8", 9)
    hexfile = tmp_path / "frame.hex"
    hexfile.write_text(frame.hex())
    code, pairs, _ = run_cli(capsys, "codec", "--decode", str(hexfile))
    assert code == 0
    assert pairs["msg_type"] == "0x11"
    assert pairs["seq"] == "9"
    assert pairs["payload_bytes"] == "24"


def test_unknown_command_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_pretty_output(capsys):
    code = main(["select-gait", "--f-update", "100", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gait" in out and "=" not in out.splitlines()[0]


def test_every_command_has_one_pretty_flag():
    for name, command in cli.commands.items():
        assert [p.name for p in command.params].count("pretty") == 1, name


@pytest.mark.parametrize("args", [
    ["cost", "--cycles", "104998", "--power", "1.8,0.0001,0.0018"],
    ["ik", "--geometry", b"l_x=1.0\nl_y=1.0\n", "--x", "0", "--y", "0"],
    ["codec", "--selftest"],
    ["codec", "--decode",
     wire.encode_observation(np.zeros(24, dtype=np.int8), "int8", 9).hex().encode()],
], ids=["cost", "ik", "codec-selftest", "codec-decode"])
def test_pretty_lines_hold_the_plain_pairs_aligned(capsys, tmp_path, args):
    # a bytes argument is the contents of a file, passed by its path
    args = [_file(tmp_path / "arg.txt", a) if isinstance(a, bytes) else a for a in args]
    assert main(args) == 0
    plain = [tuple(line.split("=", 1)) for line in capsys.readouterr().out.splitlines()]
    assert main([*args, "--pretty"]) == 0
    pretty, columns = [], set()
    for line in capsys.readouterr().out.splitlines():
        key = line.split()[0]
        value = line[len(key):].lstrip()
        pretty.append((key, value))
        columns.add(len(line) - len(value))
    assert len(plain) > 1
    assert pretty == plain
    assert len(columns) == 1


def test_emit_renders_floats_at_ten_digits_and_other_values_as_written(capsys):
    _emit([("py_float", 0.1 + 0.2), ("np_float64", np.float64(2.0) / 3),
           ("big_int", 10**12), ("text", "0x11 as written")], pretty=False)
    assert capsys.readouterr().out.splitlines() == [
        "py_float=0.3", "np_float64=0.6666666667", "big_int=1000000000000",
        "text=0x11 as written"]


_NO_SCIPY_CHECK = """
import sys
from pathlib import Path
import numpy as np
from microgait import cost
from microgait.cli import main
from microgait.cost import CycleCoeffs
from microgait.policy import PolicySpec, random_policy, save_policy
from microgait.quant import QuantScheme

tmp = Path(sys.argv[1])
save_policy(random_policy(PolicySpec((24, 128, 64, 8)), 0), tmp / "policy.bin")
np.savetxt(tmp / "calib.csv", np.random.default_rng(0).normal(size=(32, 24)), delimiter=",")
(tmp / "leg.txt").write_text("l_x=1.0\\nl_y=1.0\\n")
codes = [main(args) for args in (
    ["quantize", "--model", str(tmp / "policy.bin"), "--scheme", "per-feature",
     "--calib", str(tmp / "calib.csv"), "--out", str(tmp / "q.bin")],
    ["run-loop", "--model", str(tmp / "q.bin"), "--command", "0.05", "--codec"],
    ["run-loop", "--scripted", "--command", "0.08", "--f-update", "30"],
    ["cost", "--cycles", "100000", "--target-hz", "50"],
    ["select-gait", "--f-update", "40"],
    ["ik", "--geometry", str(tmp / "leg.txt"), "--x", "0", "--y", "0"],
    ["codec", "--selftest"])]
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(codes, scipy())
true = CycleCoeffs(7.5, 11.0, 14.0, 2.5, 800.0)
obs = [(spec, scheme, cost.cycles_decomposed(true, spec, scheme))
       for spec in map(PolicySpec, [(24, 128, 64, 8), (24, 64, 8), (24, 8), (12, 32, 16, 4)])
       for scheme in QuantScheme]
cost.fit_coeffs(obs)
print("scipy.optimize" in scipy())
"""


def test_no_command_loads_scipy_until_a_fit(run_python, tmp_path):
    # scipy is imported by cost.fit_coeffs alone, on its first call; a fresh
    # process shows what importing the package and running each command load
    run = run_python(_NO_SCIPY_CHECK, str(tmp_path), timeout=300)
    assert run.returncode == 0, run.stderr
    *_, commands, fitted = run.stdout.splitlines()
    assert commands == "[0, 0, 0, 0, 0, 0, 0] []"
    assert fitted == "True"
