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
action. They use the package's `DataError`, `DomainError` and
`check_finite`. `RequantParams` is one requant table entry as the tests
write it, and `layer_from_params` builds a `QuantizedLayer` with one output
per entry, the subject of the requantize tests. `encode_ratio_loop` is the
package's former scalar ratio encoder, kept frozen as the reference for its
array form. `quantize_whole_matrix` quantizes a policy from calibration
ranges taken over whole matrices, the reference for the package's pass over
row blocks; it builds the package's `QuantizedLayer` and `QuantizedPolicy`.
"""
import math
from dataclasses import fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from microgait.errors import DataError, DomainError
from microgait.inputs import check_finite
from microgait.quant import MAX_SHIFT, QuantizedLayer, QuantizedPolicy, QuantScheme

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
    """The rescale formula in unbounded Python integer arithmetic; numpy
    integers are taken as Python ints first, so none can wrap."""
    acc, mult, shift, zp = int(acc), int(mult), int(shift), int(zp)
    r = (1 << (shift - 1)) if shift >= 1 else 0
    v = ((mult * acc + r) >> shift) + zp
    return max(INT8_MIN, min(INT8_MAX, v))


class RequantParams(NamedTuple):
    """One requant entry: y = clip(((mult * acc + round_term) >> shift) + zero_point)."""

    mult: int
    shift: int
    zero_point: int = 0

    @property
    def round_term(self) -> int:
        # round-half-up before the arithmetic shift
        return 1 << (self.shift - 1) if self.shift >= 1 else 0


def layer_from_params(params):
    """A layer with one output per requant entry, its kernel vectors built by
    `QuantizedLayer` as inference builds them (weights and scales are unused)."""
    n = len(params)
    return QuantizedLayer(weights=np.zeros((n, 1), dtype=np.int8),
                          bias=np.zeros(n, dtype=np.int32), weight_scales=np.ones(n),
                          output_scale=1.0, output_zp=0, requant=params)


def requant_layer(rp):
    """The one-output layer of one requant entry."""
    return layer_from_params([rp])


def encode_ratio_loop(ratio):
    """mult / 2^shift for one positive real, mult < 2^31 at the largest shift,
    by trying each shift from MAX_SHIFT down."""
    if not (ratio > 0 and math.isfinite(ratio)):
        raise DomainError(f"ratio must be positive and finite, got {ratio}")
    if ratio < 2 ** 31:  # a larger ratio cannot fit, and ratio * 2^31 may overflow
        for shift in range(MAX_SHIFT, -1, -1):
            mult = round(ratio * (1 << shift))
            if mult < 2 ** 31:
                if mult == 0:
                    raise DomainError(
                        f"ratio {ratio} is at most 2^-{MAX_SHIFT + 1} and not representable")
                return mult, shift
    # from 2^31 - 0.5 up, even shift 0 rounds to 2^31
    raise DomainError(f"ratio {ratio} overflows the 31-bit multiplier")


def _affine_range(lo, hi):
    """Asymmetric int8 scale and zero-point of the range [lo, hi] widened to
    hold 0, as in Jacob et al. 2018 (arXiv:1712.05877)."""
    lo, hi = min(float(lo), 0.0), max(float(hi), 0.0)
    if hi == lo:
        return 1.0, 0
    scale = (hi - lo) / (INT8_MAX - INT8_MIN)
    return scale, max(INT8_MIN, min(INT8_MAX, round(INT8_MIN - lo / scale)))


def quantize_whole_matrix(p, scheme, calib):
    """A leaky-relu policy quantized with its calibration ranges taken over
    whole matrices: per layer x @ w.T + b in float32, the frozen leaky-relu on
    hidden layers, and the min and max of the whole output. The reference for
    the package's pass, which adds the bias, activates and takes the range
    over row blocks of the product in place. Weights take symmetric scales
    (one per tensor or per output row), biases the input scale with the input
    zero-point folded in, and each requant entry encode_ratio_loop's rescale."""
    alpha = p.spec.hidden_activation.alpha
    x = np.atleast_2d(np.asarray(calib, dtype=np.float32))
    in_scale, in_zp = obs_scale, obs_zp = _affine_range(x.min(), x.max())
    last = len(p.weights) - 1
    layers = []
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        x = x @ w.T + b
        if i != last:
            x = leaky_relu_where(alpha, x)
        out_scale, out_zp = _affine_range(x.min(), x.max())
        w64 = w.astype(np.float64)
        peak = np.abs(w64).max(axis=1)
        if scheme is QuantScheme.PER_TENSOR:
            peak = peak.max(keepdims=True)
        w_scales = np.where(peak > 0, peak, 127.0) / 127
        w_q = np.clip(np.rint(w64 / w_scales[:, None]), -127, 127).astype(np.int8)
        bias = (np.rint(b.astype(np.float64) / (in_scale * w_scales)).astype(np.int64)
                - in_zp * w_q.astype(np.int64).sum(axis=1))
        requant = [(*encode_ratio_loop(in_scale * float(s) / out_scale), out_zp) for s in w_scales]
        layers.append(QuantizedLayer(
            weights=w_q, bias=bias.astype(np.int32), weight_scales=w_scales,
            output_scale=out_scale, output_zp=out_zp, requant=requant))
        in_scale, in_zp = out_scale, out_zp
    act_mult, act_shift = encode_ratio_loop(alpha)
    return QuantizedPolicy(p.spec, scheme, layers, obs_scale, obs_zp, act_mult, act_shift)


def dequantize_weights(layer):
    return layer.weights.astype(np.float64) * layer.weight_scales[:, None]


def int8_forward_bigint(qp, obs_q):
    """Arbitrary-precision integer forward pass mirroring the device math.

    Plain Python ints throughout, the table entries and the slope taken with
    tolist() and int(); no numpy arithmetic, so any fixed-width overflow in
    the package kernel would show up as a mismatch.
    """
    x = [int(v) for v in obs_q]
    act_mult, act_shift = int(qp.act_mult), int(qp.act_shift)
    last = len(qp.layers) - 1
    for li, layer in enumerate(qp.layers):
        n_out, n_in = layer.weights.shape
        w = layer.weights.tolist()
        b = layer.bias.tolist()
        rq = layer.requant.tolist()  # (mult, shift, zero_point) per entry
        y = []
        for i in range(n_out):
            acc = int(b[i])
            row = w[i]
            for j in range(n_in):
                acc += int(row[j]) * x[j]
            if li != last and acc < 0:
                acc = (acc * act_mult) >> act_shift
            y.append(requantize_unbounded(acc, *(rq[0] if len(rq) == 1 else rq[i])))
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
            "q": q, "t_air": t_air, "contact": contact, "just_landed": contact & ~s.contact}


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
    return x_end, y_end


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
