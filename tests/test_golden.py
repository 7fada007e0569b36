"""Golden outputs: CLI stdout lines and CSV bytes pinned at fixed seeds.

A refactor that claims the same behaviour must leave every line and digest
here unchanged. The expected values were recorded from the code before the
one-path-per-concept consolidation (key=value reader, table-driven codec,
single CodecRuntime path); change them only with a deliberate change of
output, recorded in CHANGES.md.
"""
import hashlib

import numpy as np

from microgait import PolicySpec, QuantScheme, leaky_relu, quantize_policy, random_policy
from microgait.cli import main
from microgait.quant import save_quantized


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stdout(capsys, tmp_path, *args) -> list[str]:
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    assert code == 0
    return out.replace(str(tmp_path), "{tmp}").splitlines()


def test_golden_cost_budget(capsys, tmp_path):
    budget = tmp_path / "budget.txt"
    budget.write_text("# reference controller\nf_clk_hz = 5e6\ncycles_per_update=104998\n"
                      "v_volts = 1.8  # core rail\ni_per_mhz_amps=0.0001\n\n"
                      "p_max_watts = 0.0018\n")
    assert _stdout(capsys, tmp_path, "cost", "--budget", budget, "--target-hz", "60") == [
        "cycles_per_update=104998",
        "f_update_max_hz=47.61995467",
        "f_clk_max_hz=10000000",
        "f_update_max_at_budget_hz=95.23990933",
        "f_clk_req_hz=6299880",
    ]


def test_golden_ik_geometry(capsys, tmp_path):
    geom = tmp_path / "leg.txt"
    geom.write_text("l_x = 0.02\nl_y = 0.015  # swing link\nx_motor_ref = 0.001\n"
                    "# y_motor_ref defaults to 0\n")
    assert _stdout(capsys, tmp_path, "ik", "--geometry", geom,
                   "--x", "0.004", "--y", "-0.003") == [
        "theta_x_rad=0.2191740041",
        "theta_y_rad=0.2013579208",
        "x_motor_m=-0.01702154746",
        "y_motor_m=0.01169693846",
    ]


def test_golden_run_loop_scripted_codec_randomized(capsys, tmp_path):
    csv_out = tmp_path / "traj.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--scripted", "--codec", "--randomize",
                   "--episodes", "2", "--seed", "3", "--command", "0.08",
                   "--f-update", "40", "--csv-out", csv_out) == [
        "episode0_total_reward=14.67164281",
        "episode0_reward_ratio=0.9997684792",
        "episode0_inferences=400",
        "episode0_csv={tmp}/traj_0.csv",
        "episode1_total_reward=14.69611142",
        "episode1_reward_ratio=0.9994186717",
        "episode1_inferences=400",
        "episode1_csv={tmp}/traj_1.csv",
    ]
    assert {p.name: _sha256(p) for p in sorted(tmp_path.glob("traj_*.csv"))} == {
        "traj_0.csv": "85d264c9f3f1ba0847e5b4a1c1fad83580eeaeac6ab036b4fbaf9a96549db39c",
        "traj_1.csv": "62116b757b9d9c096e213111a8af0d7d25a4e79f081d12f3b271d14a3a01d310",
    }


def test_golden_run_loop_quantized_codec(capsys, tmp_path):
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), 7, weight_scale=0.6)
    calib = np.random.default_rng(8).normal(scale=0.5, size=(256, 24))
    model = tmp_path / "q.bin"
    save_quantized(quantize_policy(p, QuantScheme.PER_FEATURE, calib), model)
    assert _sha256(model) == \
        "73e1d0b4de91533d3f256ed52f5b05c8b689d3c3032958fcca84dbff6098e084"
    csv_out = tmp_path / "q.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--model", model, "--quantized", "--codec",
                   "--seed", "1", "--command", "0.05", "--f-update", "30",
                   "--csv-out", csv_out) == [
        "total_reward=14.8908665",
        "reward_ratio=1.000004544",
        "inferences=300",
        "csv={tmp}/q.csv",
    ]
    assert _sha256(csv_out) == \
        "be0b6cd0c5e987c3709ee0bd03f72f0e086c438d250e7c145691b59e294b9620"
