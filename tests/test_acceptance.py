"""End-to-end acceptance checks, one test per numbered criterion.

Each test is independent and states its tolerance inline; oracles come from
tests/oracles.py (pure-Python, written from the math rather than the package).
"""
import math
import time

import numpy as np
import pytest

from microgait import wire
from microgait.cost import measured_cycles, required_clock
from microgait.errors import DomainError
from microgait.gait import GaitRegime, load_gait_table, reward_at, select_gait
from microgait.harness import (
    TRAJECTORY_COLUMNS,
    DRConfig,
    PlantState,
    ScriptedGaitController,
    SimConfig,
    reward_step,
    run_episode,
    write_trajectory_csv,
)
from microgait.kernel import fused_infer_dequant, infer_int8, requantize
from microgait.kinematics import LegGeometry, ik
from microgait.policy import (
    PolicySpec,
    activation_count,
    infer_fp32,
    leaky_relu,
    mac_count,
    neuron_count,
    param_count,
    random_policy,
)
from microgait.quant import (
    QuantScheme,
    expected_counters,
    fp32_payload_bytes,
    int8_payload_bytes,
    quantize_policy,
    sqnr_db,
)
from oracles import (RequantParams, fk_oracle, int8_forward_bigint, requant_layer,
                     requantize_unbounded, reward_terms_scalar)

REF_SPEC = PolicySpec((24, 128, 64, 8), leaky_relu())


def test_criterion_01_counting_identities():
    start = time.perf_counter()
    assert mac_count(REF_SPEC) == 11776
    assert param_count(REF_SPEC) == 11976
    assert activation_count(REF_SPEC) == 192
    assert neuron_count(REF_SPEC) == 200
    assert time.perf_counter() - start < 1e-3


def test_criterion_02_measured_cycles_and_required_clock():
    c1 = measured_cycles(5e6, 47.62)  # per-feature
    c2 = measured_cycles(5e6, 52.63)  # per-tensor
    assert abs(c1 - 104998) <= 1
    assert abs(c2 - 95003) <= 1
    assert 6.25e6 <= required_clock(104998, 60.0) <= 6.30e6
    assert 8.85e6 <= required_clock(104998, 85.0) <= 8.93e6


def test_criterion_03_gait_selection():
    table = load_gait_table()
    regime, _ = select_gait(table, 47.62)
    assert regime is GaitRegime.TROT
    r = {g: reward_at(c, 47.62) for g, c in table.curves.items()}
    assert r[GaitRegime.TROT] > r[GaitRegime.INTERMEDIATE] > r[GaitRegime.GALLOP]
    for f in (90.0, 95.2, 100.0, 110.0, 120.0):
        assert select_gait(table, f)[0] is GaitRegime.GALLOP
    rng = np.random.default_rng(0)
    for f in rng.uniform(0.0, 130.0, size=1000):
        regime, reward = select_gait(table, f)
        per_gait = {g: reward_at(c, f) for g, c in table.curves.items()}
        assert reward == max(per_gait.values())
        assert per_gait[regime] == reward


def _exact_oracle_batch(qp, obs_batch):
    """Second oracle for the kernel: int64 matmul (provably exact given the
    accumulator headroom bound) with activation and requantization done in
    unbounded Python integers, element by element."""
    out = []
    last = len(qp.layers) - 1
    # each table read once, as (mult, shift, zero_point) tuples
    tables = [layer.requant.tolist() for layer in qp.layers]
    for obs_q in obs_batch:
        x = obs_q.astype(np.int64)
        for li, (layer, rq) in enumerate(zip(qp.layers, tables)):
            acc = (np.einsum("ij,j->i", layer.weights.astype(np.int64), x)
                   + layer.bias.astype(np.int64)).tolist()
            y = []
            for i, a in enumerate(acc):
                a = int(a)
                if li != last and a < 0:
                    a = (a * qp.act_mult) >> qp.act_shift
                y.append(requantize_unbounded(a, *(rq[0] if len(rq) == 1 else rq[i])))
            x = np.array(y, dtype=np.int64)
        out.append(x.astype(np.int8))
    return out


def test_criterion_04_kernel_exactness_and_counters():
    rng = np.random.default_rng(2024)
    kernel_time = 0.0
    for seed in range(100):
        scheme = QuantScheme.PER_FEATURE if seed % 2 else QuantScheme.PER_TENSOR
        p = random_policy(REF_SPEC, seed, row_scale_spread=0.5)
        calib = np.random.default_rng(5000 + seed).normal(size=(32, 24))
        qp = quantize_policy(p, scheme, calib)
        obs_batch = rng.integers(-128, 128, size=(100, 24)).astype(np.int8)
        want = _exact_oracle_batch(qp, obs_batch)
        exp = expected_counters(qp.spec, scheme)
        for obs_q, w in zip(obs_batch, want):
            start = time.perf_counter()
            got, counters = infer_int8(qp, obs_q)
            kernel_time += time.perf_counter() - start
            assert got.tobytes() == w.tobytes()
            assert (counters.macs, counters.activations, counters.requants) == \
                (11776, 192, 200)
            assert counters.param_loads == exp.param_loads
        if seed % 25 == 0:
            # spot-check against the fully big-int oracle as well
            for obs_q in obs_batch[:3]:
                got, _ = infer_int8(qp, obs_q)
                assert got.tobytes() == int8_forward_bigint(qp, obs_q).tobytes()
    assert kernel_time < 10.0


def test_criterion_05_per_feature_sqnr_dominates():
    wins = 0
    for seed in range(100):
        p = random_policy(REF_SPEC, seed, row_scale_spread=1.0)
        calib = np.random.default_rng(1000 + seed).normal(size=(64, 24))
        ref = np.array([infer_fp32(p, row) for row in calib])
        sqnr = {}
        for scheme in QuantScheme:
            qp = quantize_policy(p, scheme, calib)
            tst = np.array([fused_infer_dequant(qp, row) for row in calib])
            sqnr[scheme] = sqnr_db(ref, tst)
        if sqnr[QuantScheme.PER_FEATURE] >= sqnr[QuantScheme.PER_TENSOR]:
            wins += 1
    assert wins >= 95


def test_criterion_06_payload_size_ratio():
    assert fp32_payload_bytes(REF_SPEC) == 47904
    p = random_policy(REF_SPEC, 0)
    calib = np.random.default_rng(0).normal(size=(32, 24))
    for scheme in QuantScheme:
        qp = quantize_policy(p.with_activation(leaky_relu()), scheme, calib)
        int8_bytes = int8_payload_bytes(qp)
        assert 11976 <= int8_bytes <= 14000
        assert 3.4 <= 47904 / int8_bytes <= 4.0


def test_criterion_07_requantize_brute_force_sweep():
    bound = 2 ** 31 - 1
    grid = np.unique(np.concatenate([
        np.linspace(-bound, bound, 1_000_000).astype(np.int64),
        np.array([-bound, -bound + 1, -1, 0, 1, bound - 1, bound], dtype=np.int64),
    ]))
    rng = np.random.default_rng(0)
    param_sets = [RequantParams(1, 0, 0), RequantParams(2 ** 31 - 1, 31, 127),
                  RequantParams(2 ** 31 - 1, 31, -128), RequantParams(3, 1, -2)]
    param_sets += [RequantParams(int(rng.integers(1, 2 ** 31)),
                                 int(rng.integers(0, 32)),
                                 int(rng.integers(-128, 128))) for _ in range(4)]
    for rp in param_sets:
        # fixed-width-style evaluation: 64-bit product, arithmetic shift, clip
        prod = np.int64(rp.mult) * grid + np.int64(rp.round_term)
        vec = np.clip((prod >> np.int64(rp.shift)) + rp.zero_point, -128, 127)
        # the kernel's in-place step, through the offset table QuantizedLayer builds
        np.testing.assert_array_equal(requantize(grid.copy(), requant_layer(rp)), vec)
        # and the exhaustive check against the unbounded formula, vectorized
        unbounded = np.array(
            [requantize_unbounded(int(a), rp.mult, rp.shift, rp.zero_point)
             for a in grid[:: max(1, grid.size // 50_000)]], dtype=np.int64)
        np.testing.assert_array_equal(
            vec[:: max(1, grid.size // 50_000)], unbounded)
    # all 256 zero-point values on a smaller grid, exhaustively
    small = np.linspace(-bound, bound, 4001).astype(np.int64)
    for zp in range(-128, 128):
        rp = RequantParams(123456789, 17, zp)
        prod = np.int64(rp.mult) * small + np.int64(rp.round_term)
        vec = np.clip((prod >> np.int64(rp.shift)) + zp, -128, 127)
        np.testing.assert_array_equal(requantize(small.copy(), requant_layer(rp)), vec)
        for a, v in zip(small.tolist(), vec.tolist()):
            assert requantize_unbounded(a, rp.mult, rp.shift, zp) == v


def test_criterion_08_ik_round_trip():
    rng = np.random.default_rng(0)
    eps = 1e-3  # margin off the +-pi/2 branch ends where asin conditioning diverges
    thetas = rng.uniform(-math.pi / 2 + eps, math.pi / 2 - eps, size=(10_000, 2))
    g = LegGeometry(l_x=0.02, l_y=0.015, x_motor_ref=0.001, y_motor_ref=-0.002)
    for theta_x, theta_y in thetas:
        sol = ik(g, *fk_oracle(g, theta_x, theta_y))
        assert abs(sol.theta_x - theta_x) <= 1e-9
        assert abs(sol.theta_y - theta_y) <= 1e-9
    unit = LegGeometry(l_x=1.0, l_y=1.0)
    ik(unit, 1.0, 0.0)  # |asin arg| = 1: accepted
    with pytest.raises(DomainError):
        ik(unit, 1.0 + 1e-12, 0.0)


def test_criterion_09_reward_oracle_replay():
    dt = 1.0 / 120.0  # the harness step rate
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        s = PlantState(v=tuple(rng.normal(scale=0.3, size=3).tolist()),
                       w=tuple(rng.normal(scale=0.8, size=3).tolist()),
                       t_air=tuple(rng.uniform(0.0, 2.0, size=4).tolist()),
                       just_landed=tuple(rng.integers(0, 2, size=4).astype(bool).tolist()))
        cmd = (float(rng.normal(scale=0.1)), float(rng.normal(scale=0.5)))
        terms = dict(zip(TRAJECTORY_COLUMNS[4:], reward_step(s, cmd)))
        want = reward_terms_scalar(dt, s.v[0], s.v[1], s.w[0], s.w[1], s.w[2],
                                   s.t_air, s.just_landed, cmd[0], cmd[1])
        for key, val in want.items():
            assert abs(terms[key] - val) <= 1e-12
        assert abs(terms["reward_total"] - sum(want.values())) <= 1e-12
    # closed-form cases
    s = PlantState(v=(0.1, 0.0, 0.0), w=(0.0, 0.0, 0.3))
    total = reward_step(s, (0.1, 0.3))[0]
    assert total == 1.5 * dt                      # perfect tracking, Phi(0)=1
    s = PlantState(v=(0.0, 0.1, 0.0))
    terms = dict(zip(TRAJECTORY_COLUMNS[4:], reward_step(s, (0.0, 0.0))))
    assert terms["pen_lin"] == -0.5 * dt * 0.1 ** 2
    s = PlantState(t_air=(0.0, 0.0, 0.5, 0.0), just_landed=(False, False, True, False))
    terms = dict(zip(TRAJECTORY_COLUMNS[4:], reward_step(s, (0.0, 0.0))))
    assert terms["reward_air"] == 0.0             # (t_air - 0.5) zero crossing


def test_criterion_10_harness_degradation_and_determinism(tmp_path):
    rewards = []
    for f_update in (120.0, 60.0, 30.0, 10.0):
        ctrl = ScriptedGaitController(0.08)
        res = run_episode(ctrl, SimConfig(f_update_hz=f_update, seed=0),
                          None, (0.08, 0.0))
        assert res.steps == 1200
        rewards.append(res.total_reward)
    assert all(a >= b for a, b in zip(rewards, rewards[1:]))
    # deterministic replay: identical seeds give identical CSV bytes
    paths = []
    for i in range(2):
        res = run_episode(ScriptedGaitController(0.08),
                          SimConfig(f_update_hz=30.0, seed=7),
                          DRConfig(), (0.08, 0.0))
        path = tmp_path / f"run{i}.csv"
        write_trajectory_csv(res, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_criterion_11_wire_codec():
    rng = np.random.default_rng(0)
    golden = bytes.fromhex(
        "7e110018000000000000000000000000000000000000000000000000009a")
    assert wire.encode_observation(np.zeros(24, dtype=np.int8), "int8", 0) == golden
    encoders = [
        lambda r: wire.encode_observation(r.normal(size=24).astype(np.float32), "fp32",
                                          int(r.integers(0, 256))),
        lambda r: wire.encode_observation(r.integers(-128, 128, size=24).astype(np.int8),
                                          "int8", int(r.integers(0, 256))),
        lambda r: wire.encode_action(r.normal(size=8).astype(np.float32), "fp32",
                                     int(r.integers(0, 256))),
        lambda r: wire.encode_action(r.integers(-128, 128, size=8).astype(np.int8),
                                     "int8", int(r.integers(0, 256))),
    ]
    for i in range(10_000):
        frame = encoders[i % 4](rng)
        decoded = wire.decode_frame(frame)
        assert wire.encode_frame(decoded.msg_type, decoded.seq, decoded.payload) == frame
    detected = 0
    for i in range(10_000):
        frame = bytearray(encoders[i % 4](rng))
        idx = int(rng.integers(0, len(frame)))
        frame[idx] ^= int(rng.integers(1, 256))
        try:
            wire.decode_frame(bytes(frame))
        except wire.ProtocolError:
            detected += 1
    assert detected == 10_000
