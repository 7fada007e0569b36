"""Golden outputs: CLI stdout lines and CSV bytes pinned at fixed seeds.

A refactor that claims the same behaviour must leave every line and digest
here unchanged. The expected values were recorded from the code before the
one-path-per-concept consolidation (key=value reader, table-driven codec,
single CodecRuntime path); the quantize and FP32 run-loop pins were recorded
before the unvaried settings became constants and the two policy loaders
shared one binary reader; the leaky-relu FP32 run-loop pin was recorded
before the FP32 leaky-relu became branch-free; the 45 Hz int8 run-loop pin
was recorded before the plant state moved from numpy arrays to tuples of
floats; the `cost --measured`, `cost --power` and `select-gait --power` pins
were recorded before the two commands shared one budget resolver; the
`select-gait --f-update`, `codec`, plain scripted `run-loop` and `--pretty`
pins were recorded before the key=value rendering gained other forms, from
commands whose output takes no BLAS or SIMD path; the ELU FP32 run-loop
CSV digest was re-recorded when the ELU branch became float64 `expm1`
rounded once to float32, whose bits do not depend on numpy's SIMD level.
Change them only with a deliberate change of output, recorded in CHANGES.md.
"""
import hashlib
import os
import platform

import numpy as np
import pytest

from microgait.cli import main
from microgait.policy import PolicySpec, leaky_relu, random_policy, save_policy
from microgait.quant import QuantScheme, quantize_policy, save_quantized


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


def test_golden_cost_measured(capsys, tmp_path):
    assert _stdout(capsys, tmp_path, "cost", "--measured", "5e6,47.62", "--target-hz", "60") == [
        "cycles_per_update=104997.9",
        "f_update_max_hz=47.62",
        "f_clk_req_hz=6299874.003",
    ]


def test_golden_cost_power(capsys, tmp_path):
    assert _stdout(capsys, tmp_path, "cost", "--cycles", "104998",
                   "--power", "1.8,0.0001,0.0018") == [
        "cycles_per_update=104998",
        "f_clk_max_hz=10000000",
        "f_update_max_at_budget_hz=95.23990933",
    ]


def test_golden_select_gait_power(capsys, tmp_path):
    assert _stdout(capsys, tmp_path, "select-gait", "--power", "1.8,0.0001,0.0018",
                   "--cycles", "104998") == [
        "gait=gallop",
        "f_update_hz=95.23990933",
        "reward_ratio=0.99",
    ]


@pytest.mark.parametrize("pretty, lines", [
    (False, ["gait=trot", "f_update_hz=45", "reward_ratio=0.96"]),
    (True, ["gait          trot", "f_update_hz   45", "reward_ratio  0.96"]),
])
def test_golden_select_gait_f_update(capsys, tmp_path, pretty, lines):
    args = ["select-gait", "--f-update", "45"] + (["--pretty"] if pretty else [])
    assert _stdout(capsys, tmp_path, *args) == lines


def test_golden_codec_selftest(capsys, tmp_path):
    assert _stdout(capsys, tmp_path, "codec", "--selftest") == [
        "selftest=ok",
        "round_trips=2000",
        "corruptions_detected=2000",
    ]


def test_golden_codec_decode_int8_action(capsys, tmp_path):
    # the int8 action frame of codes -128, -1, 0, 1, 2, 64, 100, 127 at seq 200
    hexfile = tmp_path / "act.hex"
    hexfile.write_text("7e 12 c8 08 00 80 ff 00 01 02 40 64 7f 50\n")
    assert _stdout(capsys, tmp_path, "codec", "--decode", hexfile) == [
        "msg_type=0x12",
        "seq=200",
        "payload_bytes=8",
    ]


def test_golden_run_loop_scripted_episodes(capsys, tmp_path):
    csv_out = tmp_path / "s.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--scripted", "--episodes", "2",
                   "--seed", "6", "--command", "0.08", "--f-update", "30",
                   "--csv-out", csv_out) == [
        "episode0_total_reward=14.88845329",
        "episode0_reward_ratio=0.9992696691",
        "episode0_inferences=300",
        "episode0_csv={tmp}/s_0.csv",
        "episode1_total_reward=14.88845329",
        "episode1_reward_ratio=0.9992696691",
        "episode1_inferences=300",
        "episode1_csv={tmp}/s_1.csv",
    ]
    # without domain randomization the seed draws nothing, so the episodes match
    digest = "d875065b59845007da175080391753320faaa7c813418bce9ffb6681810f530f"
    assert {p.name: _sha256(p) for p in sorted(tmp_path.glob("s_*.csv"))} == {
        "s_0.csv": digest, "s_1.csv": digest}


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
    assert _stdout(capsys, tmp_path, "run-loop", "--model", model, "--codec",
                   "--seed", "1", "--command", "0.05", "--f-update", "30",
                   "--csv-out", csv_out) == [
        "total_reward=14.8908665",
        "reward_ratio=1.000004544",
        "inferences=300",
        "csv={tmp}/q.csv",
    ]
    assert _sha256(csv_out) == \
        "be0b6cd0c5e987c3709ee0bd03f72f0e086c438d250e7c145691b59e294b9620"


@pytest.fixture
def elu_model(tmp_path):
    """A default-spec ELU policy file and a 128-row calibration CSV."""
    model = tmp_path / "policy.bin"
    save_policy(random_policy(PolicySpec(), 5), model)
    assert _sha256(model) == \
        "7a2c69d73fef7235fcedc81d62b9d1764a4662bb8bb5a12aebc1a9e9b31880da"
    calib = tmp_path / "calib.csv"
    np.savetxt(calib, np.random.default_rng(6).normal(scale=0.5, size=(128, 24)),
               delimiter=",")
    return model, calib


@pytest.mark.parametrize("scheme, sqnr, payload, ratio, digest", [
    ("per-tensor", "43.97206235", 12594, "3.803716055",
     "cf79c7f86e1564809b5f4f880e9c22f40798c710ceddef9b038d2176f4cb0969"),
    ("per-feature", "45.13990139", 13776, "3.477351916",
     "ed7e26d7efb1b2218aff92f648a9db26c7aedca15c835f2f1901ce97cd5ccc9a"),
])
def test_golden_quantize(capsys, tmp_path, elu_model, scheme, sqnr, payload, ratio, digest):
    model, calib = elu_model
    out = tmp_path / "q.bin"
    assert _stdout(capsys, tmp_path, "quantize", "--model", model, "--scheme", scheme,
                   "--calib", calib, "--out", out) == [
        f"scheme={scheme}",
        "activation_converted=true",
        f"sqnr_db={sqnr}",
        "fp32_payload_bytes=47904",
        f"int8_payload_bytes={payload}",
        f"size_ratio={ratio}",
        "out={tmp}/q.bin",
        "reference_fp32_image_kb=204.54",
        "reference_int8_image_kb=51.136",
        "reference_image_ratio=3.999921777",
    ]
    assert _sha256(out) == digest


def test_golden_run_loop_fp32_randomized(capsys, tmp_path, elu_model):
    model, _ = elu_model
    csv_out = tmp_path / "fp32.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--model", model, "--randomize",
                   "--f-update", "60", "--seed", "2", "--command", "0.06", "--omega", "0.1",
                   "--csv-out", csv_out) == [
        "total_reward=14.64853506",
        "reward_ratio=0.9999997775",
        "inferences=600",
        "csv={tmp}/fp32.csv",
    ]
    assert _sha256(csv_out) == \
        "53fad59d5206a5bf916025314a2b1eaa208859ec68d761bcfbf014a9e8ff515a"


# The ELU outputs in a process of its own, as numpy picks its SIMD loops when
# it loads: the CSV digest of the pinned command above, the bits of the ELU
# over the float32 specials and 4096 normal draws, and whether numpy runs its
# X86_V3 (AVX2) loops
_ELU_HOST_CHECK = """
import contextlib, hashlib, io, os, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, sys.argv[2])
from test_policy import F32_SPECIALS
from microgait.cli import main
from microgait.policy import PolicySpec, _activate_array, elu, random_policy, save_policy
model, csv = (os.path.join(sys.argv[1], name) for name in ("policy.bin", "fp32.csv"))
save_policy(random_policy(PolicySpec(), 5), model)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run-loop", "--model", model, "--randomize", "--f-update", "60", "--seed", "2",
                 "--command", "0.06", "--omega", "0.1", "--csv-out", csv]) == 0
x = np.concatenate([F32_SPECIALS, np.random.default_rng(0).normal(0, 4, 4096).astype(np.float32)])
_activate_array(elu(), x)
with open(csv, "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest(), hashlib.sha256(x.tobytes()).hexdigest(),
          __cpu_features__["X86_V3"])
"""


def test_elu_outputs_do_not_depend_on_numpy_simd_level(run_python, tmp_path):
    """The default process and one held to numpy's X86_V2 baseline give the
    same ELU bits and the same CSV for the pinned ELU command."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("numpy's X86_V2 baseline exists only on x86-64")
    runs = {}
    for setting, env in (("default", {}), ("X86_V2", {
            "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})):
        out = tmp_path / setting
        out.mkdir()
        run = run_python(_ELU_HOST_CHECK, str(out), os.path.dirname(__file__), timeout=120, **env)
        assert run.returncode == 0, run.stderr
        runs[setting] = run.stdout.split()
    assert runs["X86_V2"][2] == "False", "NPY_DISABLE_CPU_FEATURES left numpy's X86_V3 loops on"
    assert runs["X86_V2"][:2] == runs["default"][:2]


def test_golden_run_loop_fp32_leaky_relu_codec_randomized(capsys, tmp_path):
    """The single-row leaky-relu FP32 forward pass, through the fp32 wire codec."""
    model = tmp_path / "leaky.bin"
    save_policy(random_policy(PolicySpec(hidden_activation=leaky_relu()), 9), model)
    assert _sha256(model) == \
        "4071aa10f3e3b65218f35077f6402c4ad2f53781fc902b2a09fc4ea387d9224e"
    csv_out = tmp_path / "leaky.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--model", model, "--codec", "--randomize",
                   "--f-update", "50", "--seed", "4", "--command", "0.07", "--omega", "-0.05",
                   "--csv-out", csv_out) == [
        "total_reward=14.74388523",
        "reward_ratio=0.9999992128",
        "inferences=500",
        "csv={tmp}/leaky.csv",
    ]
    assert _sha256(csv_out) == \
        "15fd98005cabe0941d0ef69449ba253c461598dd89e9c1c57e592ccccdd41fba"


def test_golden_run_loop_quantized_randomized_45hz(capsys, tmp_path):
    """The per-tensor int8 kernel without the codec, at a rate that does not divide 120 Hz."""
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), 11, weight_scale=0.6)
    calib = np.random.default_rng(12).normal(scale=0.5, size=(256, 24))
    model = tmp_path / "pt.bin"
    save_quantized(quantize_policy(p, QuantScheme.PER_TENSOR, calib), model)
    assert _sha256(model) == \
        "59dbcd9506c9339893e69aca165a4ed8501dd900811ea87a7c3c4c6505de082e"
    csv_out = tmp_path / "pt.csv"
    assert _stdout(capsys, tmp_path, "run-loop", "--model", model, "--randomize",
                   "--episodes", "2", "--seed", "5", "--command", "0.09", "--omega", "0.1",
                   "--f-update", "45", "--csv-out", csv_out) == [
        "episode0_total_reward=14.47272797",
        "episode0_reward_ratio=0.9999980139",
        "episode0_inferences=450",
        "episode0_csv={tmp}/pt_0.csv",
        "episode1_total_reward=14.48092459",
        "episode1_reward_ratio=0.9999999896",
        "episode1_inferences=450",
        "episode1_csv={tmp}/pt_1.csv",
    ]
    assert {p.name: _sha256(p) for p in sorted(tmp_path.glob("pt_*.csv"))} == {
        "pt_0.csv": "bd6819eab1604ea34b8ebba82619ada5825cae0bfdeb5e485b3d921b63e0429d",
        "pt_1.csv": "779411c14c6d4e4783f1dd81b8b5c7d523a0bdf8d9904d8220bfd417059bd7f8",
    }
