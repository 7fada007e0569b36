import numpy as np
import pytest

from microgait import (PolicySpec, PowerParams, QuantScheme, feasible_update_rate, harness,
                       leaky_relu, max_clock, quantize_policy, random_policy)
from microgait.cli import main
from microgait.policy import save_policy
from microgait.quant import save_quantized


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


def _file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _overflowing_model(path) -> str:
    p = random_policy(PolicySpec(), 0)
    p.weights[0][:] = 3e38  # finite in float32; the first layer's outputs are not
    save_policy(p, path)
    return str(path)


NOT_UTF8 = "l_x = 1.0  # \u00b5m\n".encode("latin-1")


@pytest.mark.parametrize("make_args, message", [
    pytest.param(lambda tmp, model: ["cost", "--measured", "5e6"],
                 "--measured needs 2 comma-separated values", id="measured-count"),
    pytest.param(lambda tmp, model: ["cost", "--measured", "5e6,fast"],
                 "bad number in --measured", id="measured-number"),
    pytest.param(lambda tmp, model: ["run-loop", "--scripted", "--command", "0.1",
                                     "--episodes", "0"],
                 "--episodes must be >= 1", id="episodes-0"),
    pytest.param(lambda tmp, model: ["codec"], "provide --selftest or --decode", id="codec-no-flag"),
    pytest.param(lambda tmp, model: ["codec", "--decode", _file(tmp / "f.hex", b"zz01")],
                 "bad hex in", id="codec-bad-hex"),
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
])
def test_out_of_domain_number_is_domain_error(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("domain error:")


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
                             "--quantized", "--command", "0.05", "--codec")
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
