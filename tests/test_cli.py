import numpy as np
import pytest

from microgait import PolicySpec, QuantScheme, leaky_relu, quantize_policy, random_policy
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
