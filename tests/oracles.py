"""Independent reference implementations used to check the package.

Everything here is written from the math, not from the package internals:
pure-Python integer arithmetic (unbounded), naive matrix products, CRC by
polynomial long division, and a scalar re-evaluation of the reward terms.
The plant and reward steps are also kept in their former numpy array form,
frozen, as the bit-exact reference for the package's scalar form, and the
FP32 leaky-relu and ELU in their former forms.

Three references check what the package computes another way: the
dequantized weights of a quantized layer, forward kinematics (the algebraic
inversion of ik's angle equations) and the closed-form motor targets of an
action. They use the package's `EndEffector`, `DataError` and
`check_finite`. `requant_layer` builds a one-output `QuantizedLayer` for
one requant entry, the subject of the requantize tests.
"""
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from microgait import DataError, EndEffector
from microgait.inputs import check_finite
from microgait.quant import QuantizedLayer

INT8_MIN, INT8_MAX = -128, 127


def fp32_forward_naive(weights, biases, alpha, obs):
    """Naive dense forward pass in float64 with explicit per-neuron loops."""
    x = [float(v) for v in obs]
    last = len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        y = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * x[j]
            if li != last and acc < 0:
                acc = alpha * acc
            y.append(acc)
        x = y
    return np.array(x)


def leaky_relu_where(alpha, x):
    """The FP32 leaky-relu as the branch where(x >= 0, x, alpha * x), the
    package's former form, kept frozen as the bit-exact reference for its
    branch-free one."""
    return np.where(x >= 0, x, np.float32(alpha) * x)


def elu_where(alpha, x):
    """The FP32 ELU as the package first wrote it, with exp taken of x on both
    branches, kept frozen as the bit-exact reference for its form that takes
    exp of min(x, 0); this one overflows in the discarded branch for x > 88."""
    return np.where(x >= 0, x, np.float32(alpha) * (np.exp(x, dtype=np.float32) - np.float32(1.0)))


def requantize_unbounded(acc, mult, shift, zp):
    """The rescale formula in unbounded Python integer arithmetic."""
    r = (1 << (shift - 1)) if shift >= 1 else 0
    v = ((mult * acc + r) >> shift) + zp
    return max(INT8_MIN, min(INT8_MAX, v))


def requant_layer(rp):
    """A one-output layer for one requant entry, its kernel vectors built by
    `QuantizedLayer` as inference builds them (weights and scales are unused)."""
    return QuantizedLayer(weights=np.zeros((1, 1), dtype=np.int8),
                          bias=np.zeros(1, dtype=np.int32), input_scale=1.0, input_zp=0,
                          weight_scales=np.ones(1), output_scale=1.0, output_zp=0,
                          requant=(rp,))


def dequantize_weights(layer):
    return layer.weights.astype(np.float64) * layer.weight_scales[:, None]


def int8_forward_bigint(qp, obs_q):
    """Arbitrary-precision integer forward pass mirroring the device math.

    Plain Python ints throughout; no numpy arithmetic, so any fixed-width
    overflow in the package kernel would show up as a mismatch.
    """
    x = [int(v) for v in obs_q]
    last = len(qp.layers) - 1
    for li, layer in enumerate(qp.layers):
        n_out, n_in = layer.weights.shape
        w = layer.weights.tolist()
        b = layer.bias.tolist()
        y = []
        for i in range(n_out):
            acc = int(b[i])
            row = w[i]
            for j in range(n_in):
                acc += int(row[j]) * x[j]
            if li != last and acc < 0:
                acc = (acc * qp.act_mult) >> qp.act_shift
            rp = layer.requant[0] if len(layer.requant) == 1 else layer.requant[i]
            y.append(requantize_unbounded(acc, rp.mult, rp.shift, rp.zero_point))
        x = y
    return np.array(x, dtype=np.int8)


def crc8_longdiv(data):
    """CRC-8 poly 0x07 by explicit polynomial long division over GF(2)."""
    val = int.from_bytes(bytes(data), "big") << 8
    poly = 0x107
    for i in range(val.bit_length() - 1, 7, -1):
        if (val >> i) & 1:
            val ^= poly << (i - 8)
    return val


def reward_terms_scalar(dt, vx, vy, wx, wy, wz, t_air, just_landed,
                        v_cmd, w_cmd, sigma=0.5):
    """Scalar re-evaluation of the five per-step reward terms, keyed by their
    trajectory CSV columns."""
    phi = lambda e: math.exp(-(e * e) / (sigma * sigma))
    lin = 1.0 * dt * phi(v_cmd - vx)
    ang = 0.5 * dt * phi(w_cmd - wz)
    pen_lin = -0.5 * dt * vy * vy
    pen_ang = -0.05 * dt * (wx * wx + wy * wy)
    air = 1.0 * dt * sum((t - 0.5) for t, j in zip(t_air, just_landed) if j)
    return {"reward_lin": lin, "reward_ang": ang, "pen_lin": pen_lin,
            "pen_ang": pen_ang, "reward_air": air}


def _as_arrays(s):
    """A plant state's fields as numpy arrays, whatever sequences hold them."""
    return SimpleNamespace(**{f.name: np.asarray(getattr(s, f.name)) for f in fields(s)})


def plant_step_numpy(s, motor_targets, dt, params, dr):
    """The toy plant step in its numpy array form, kept frozen as a reference.

    `harness.plant_step` computes the same per-joint arithmetic on Python
    floats and must return the same bits for every field.
    """
    s = _as_arrays(s)
    targets = np.asarray(motor_targets, dtype=np.float64).ravel()
    lo = -params.q_limit + dr.dof_lower
    hi = params.q_limit + dr.dof_upper
    targets = np.clip(targets, lo, hi)

    qd = (targets - s.q) / params.tau_joint
    q = s.q + dt * qd
    lift = qd[0::2]
    swing = qd[1::2]
    contact = q[0::2] < 0.0

    drive = np.clip(-swing, -params.qd_sat, params.qd_sat) * contact
    thrust = params.k_vel * float(drive.mean())
    side_asym = float(drive[[0, 2]].sum() - drive[[1, 3]].sum())

    v = np.array([s.v[0] + dt * (thrust - s.v[0]) / params.tau_vel,
                  s.v[1] + dt * (params.k_lat * side_asym - s.v[1]) / params.tau_vel,
                  0.0])

    roll_drive = float(lift[[0, 2]].mean() - lift[[1, 3]].mean())
    pitch_drive = float(lift[[0, 1]].mean() - lift[[2, 3]].mean())
    w = np.array([
        s.w[0] + dt * (params.k_att * roll_drive - s.w[0]) / params.tau_att,
        s.w[1] + dt * (params.k_att * pitch_drive - s.w[1]) / params.tau_att,
        s.w[2] + dt * (params.k_yaw * params.k_lat * side_asym - s.w[2]) / params.tau_vel])

    t_air = s.t_air.copy()
    t_air[~contact] += dt
    t_air[contact & s.contact] = 0.0
    return {"v": v, "w": w, "att": s.att + dt * (w[:2] - s.att / params.tau_att),
            "q": q, "qd": qd, "q_targets": targets, "t_air": t_air, "contact": contact,
            "just_landed": contact & ~s.contact}


def reward_step_numpy(s, cmd, dt, sigma=0.5):
    """The per-step reward in its numpy form, kept frozen as a reference
    for `harness.reward_step`: (total, terms keyed by their CSV columns)."""
    s = _as_arrays(s)
    phi = lambda e: math.exp(-(e * e) / (sigma * sigma))
    v_cmd, w_cmd = cmd
    lin = 1.0 * dt * phi(v_cmd - s.v[0])
    ang = 0.5 * dt * phi(w_cmd - s.w[2])
    pen_lin = -0.5 * dt * s.v[1] ** 2
    pen_ang = -0.05 * dt * (s.w[0] ** 2 + s.w[1] ** 2)
    air = 1.0 * dt * float(np.sum((s.t_air - 0.5) * s.just_landed))
    terms = {"reward_lin": lin, "reward_ang": ang, "pen_lin": pen_lin,
             "pen_ang": pen_ang, "reward_air": air}
    return lin + ang + pen_lin + pen_ang + air, terms


def fk_oracle(g, theta_x, theta_y):
    """Algebraic inversion of the two angle equations; round-trip check for ik."""
    x_end = g.x_motor_ref + g.l_y * math.sin(theta_y)
    y_end = g.y_motor_ref + g.l_x * math.sin(theta_x) - 0.5 * g.l_y * math.cos(theta_y)
    return EndEffector(x_end, y_end)


def action_to_motor_targets(action, geoms):
    """Map an 8-value action (theta_x, theta_y per leg) to (x_motor, y_motor) per leg.

    The closed form of ik's motor equations at the commanded angles, on any branch.
    """
    a = np.asarray(action, dtype=np.float64).ravel()
    if len(geoms) * 2 != a.size:
        raise DataError(f"action has {a.size} values for {len(geoms)} legs")
    check_finite("action", a)
    return [(g.x_motor_ref + 0.5 * g.l_y * math.sin(theta_y) - g.l_x * math.cos(theta_x),
             g.y_motor_ref + g.l_x * math.sin(theta_x) + 0.5 * g.l_y * math.cos(theta_y))
            for g, theta_x, theta_y in zip(geoms, a[0::2].tolist(), a[1::2].tolist())]
