"""Closed-loop episode runner: toy plant, reward accounting, ZOH control.

The plant here is deliberately NOT a microrobot dynamics model. It is a small
deterministic surrogate whose only job is to exercise zero-order-hold control
at configurable update frequencies, per-term reward accounting, domain
randomization plumbing, and the wire codec, end to end. Its one deliberately
physical trait is a saturating joint-velocity element: coarser action holds
concentrate joint motion into faster bursts, the saturation wastes the excess,
and forward drive (hence tracking reward) degrades as update rate drops.
"""
from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .errors import DataError
from .inputs import check_finite
from .kernel import fused_infer_dequant, infer_int8, quantize_obs
from .policy import Fp32Policy, const_0d, infer_fp32
# dequantize_action is unused here: perfbench's tracer rebinds harness.dequantize_action
from .quant import QuantizedPolicy, dequantize_action
from .wire import LoopbackDevice, Session

NUM_LEGS = 4
NUM_JOINTS = 8
# joint layout: leg f owns (lift, swing) = (q[2f], q[2f+1]); legs FL, FR, RL, RR,
# so legs 0 and 2 are the left side and legs 0 and 1 the front
SIM_HZ = 120.0  # plant and reward step rate
DT = 1.0 / SIM_HZ  # plant and reward step, s
EPISODE_S = 10.0  # episode length, s
F32_MAX = float(np.finfo(np.float32).max)  # an action feeds a float32 observation slot


# Per-step reward weights; reward_step scales each term by DT through the W * DT below.
LIN_TRACK_WEIGHT = 1.0
ANG_TRACK_WEIGHT = 0.5
LIN_PENALTY_WEIGHT = 0.5
ANG_PENALTY_WEIGHT = 0.05
AIR_TIME_WEIGHT = 1.0
TRACKING_SIGMA = 0.5     # tracking kernel width: Phi(e) = exp(-e^2 / sigma^2)
AIR_TIME_OFFSET_S = 0.5  # a touchdown earns (t_air - offset), negative for short steps
_LIN_TRACK_DT = LIN_TRACK_WEIGHT * DT
_ANG_TRACK_DT = ANG_TRACK_WEIGHT * DT
_LIN_PENALTY_DT = -LIN_PENALTY_WEIGHT * DT
_ANG_PENALTY_DT = -ANG_PENALTY_WEIGHT * DT
_AIR_TIME_DT = AIR_TIME_WEIGHT * DT
_SIGMA_SQ = TRACKING_SIGMA * TRACKING_SIGMA


@dataclass(slots=True)
class PlantState:
    """The plant state as tuples of Python floats (bools for the contact flags).

    Tuples cannot change in place, so the record need not be frozen, and a
    frozen __init__ costs four times as much on every plant step; slots make
    the construction and the field reads of each step cheaper.
    """

    v: tuple[float, ...] = (0.0,) * 3                  # base lin vel
    w: tuple[float, ...] = (0.0,) * 3                  # base ang vel
    att: tuple[float, ...] = (0.0,) * 2                # roll, pitch
    q: tuple[float, ...] = (0.0,) * NUM_JOINTS
    qd: tuple[float, ...] = (0.0,) * NUM_JOINTS
    q_targets: tuple[float, ...] = (0.0,) * NUM_JOINTS
    t_air: tuple[float, ...] = (0.0,) * NUM_LEGS
    contact: tuple[bool, ...] = (False,) * NUM_LEGS
    just_landed: tuple[bool, ...] = (False,) * NUM_LEGS


TRAJECTORY_COLUMNS = ("t", "vx", "vy", "wz", "reward_total", "reward_lin",
                      "reward_ang", "pen_lin", "pen_ang", "reward_air")


def reward_step(s: PlantState, cmd: tuple[float, float]) -> tuple[float, ...]:
    """Per-step reward: tracking terms, motion penalties, touchdown air-time
    bonus, and their total, in the order of TRAJECTORY_COLUMNS[4:]."""
    lin = _LIN_TRACK_DT * math.exp(-((e := cmd[0] - s.v[0]) * e) / _SIGMA_SQ)
    ang = _ANG_TRACK_DT * math.exp(-((e := cmd[1] - s.w[2]) * e) / _SIGMA_SQ)
    pen_lin = _LIN_PENALTY_DT * s.v[1] ** 2
    pen_ang = _ANG_PENALTY_DT * (s.w[0] ** 2 + s.w[1] ** 2)
    (t0, t1, t2, t3), (j0, j1, j2, j3) = s.t_air, s.just_landed
    air = _AIR_TIME_DT * (0.0 + (t0 - AIR_TIME_OFFSET_S) * j0 + (t1 - AIR_TIME_OFFSET_S) * j1
                          + (t2 - AIR_TIME_OFFSET_S) * j2 + (t3 - AIR_TIME_OFFSET_S) * j3)
    return lin + ang + pen_lin + pen_ang + air, lin, ang, pen_lin, pen_ang, air


# --- domain randomization -------------------------------------------------

# Additive rows: name -> (mean, std) of a Gaussian draw.
ADDITIVE_ROWS = {
    "observation": (0.0, 0.002),
    "action": (0.0, 0.02),
    "gravity": (0.0, 0.4),
    "dof_lower": (0.0, 0.01),
    "dof_upper": (0.0, 0.01),
}
# Scaling rows: name -> (lo, hi) of a uniform multiplicative factor.
SCALING_ROWS = {
    "mass": (0.05, 0.15),
    "friction": (0.07, 0.13),
    "restitution": (0.0, 0.7),  # acts on nothing; drawn so the later rows keep their values
    "damping": (0.5, 1.5),
    "stiffness": (0.5, 1.5),
}


class DRConfig:
    """Randomization on: run_episode draws its perturbation with sample_dr."""


@dataclass(frozen=True)
class DRPerturbation:
    observation: float = 0.0
    action: float = 0.0
    gravity: float = 0.0
    dof_lower: float = 0.0
    dof_upper: float = 0.0
    mass: float = 1.0
    friction: float = 1.0
    damping: float = 1.0
    stiffness: float = 1.0
    # float32, read-only: the observation noise as the 0-d operand every update adds
    observation_0d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # vars(), not astuple: its deep copy costs more than the check itself
        check_finite("perturbation", tuple(vars(self).values()))
        object.__setattr__(self, "observation_0d", const_0d(self.observation, np.float32))


def _check_seed(seed) -> int:
    """The seed as an int (numpy ints too); a non-integer or negative seed raises DataError."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DataError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return seed


def sample_dr(seed: int) -> DRPerturbation:
    """One seeded perturbation draw: a Gaussian per ADDITIVE_ROWS row, then a
    uniform factor per SCALING_ROWS row, in table order."""
    rng = np.random.default_rng(_check_seed(seed))
    values = {name: mean + std * float(rng.standard_normal())
              for name, (mean, std) in ADDITIVE_ROWS.items()}
    for name, (lo, hi) in SCALING_ROWS.items():
        values[name] = float(rng.uniform(lo, hi))
    del values["restitution"]  # no field takes it
    return DRPerturbation(**values)


# --- toy plant ------------------------------------------------------------

# Declared surrogate constants (not fit to any physical robot); PlantParams
# holds the three that domain randomization perturbs.
TAU_ATT = 0.15  # attitude relaxation, s
QD_SAT = 0.75   # saturating joint-velocity element, rad/s
K_LAT = 0.02    # lateral response to left/right drive asymmetry
K_YAW = 0.2     # yaw response to left/right drive asymmetry
K_ATT = 0.05    # roll/pitch rate response to lift-joint motion
Q_LIMIT = 1.2   # nominal joint range, rad


@dataclass(frozen=True)
class PlantParams:
    tau_joint: float = 0.02      # joint servo time constant, s
    tau_vel: float = 0.25        # body velocity time constant, s
    k_vel: float = 0.28          # forward drive gain, (m/s) per (rad/s)

    def __post_init__(self):
        check_finite("plant parameters", astuple(self))
        if not min(self.tau_joint, self.tau_vel) > 0:
            raise DataError("plant time constants must be > 0")


def _apply_dr_to_params(p: PlantParams, dr: DRPerturbation) -> PlantParams:
    # mass slows the body response and damping speeds it (both scale tau_vel);
    # friction scales drive; stiffness speeds the joint servo
    return replace(
        p,
        tau_vel=p.tau_vel * dr.mass / max(dr.damping, 1e-6),
        k_vel=p.k_vel * dr.friction,
        tau_joint=p.tau_joint / max(dr.stiffness, 1e-6))


def hold_targets(targets, dr: DRPerturbation) -> tuple[float, ...]:
    """The joint targets an update holds: NUM_JOINTS finite numbers as floats,
    each clamped to [-Q_LIMIT + dof_lower, Q_LIMIT + dof_upper].

    A bound replaces a value only when the value is strictly past it, as
    np.clip does in tests/oracles.py, so the bits match.
    """
    if len(targets) != NUM_JOINTS:
        raise DataError(f"expected {NUM_JOINTS} joint targets, got {len(targets)}")
    if not all(map(math.isfinite, targets)):
        j = next(j for j, x in enumerate(targets) if not math.isfinite(x))
        raise DataError(f"joint {j} target is not finite: {targets[j]}")
    lo, hi = -Q_LIMIT + dr.dof_lower, Q_LIMIT + dr.dof_upper
    x0, x1, x2, x3, x4, x5, x6, x7 = map(float, targets)
    x0 = hi if hi < (y := lo if lo > x0 else x0) else y
    x1 = hi if hi < (y := lo if lo > x1 else x1) else y
    x2 = hi if hi < (y := lo if lo > x2 else x2) else y
    x3 = hi if hi < (y := lo if lo > x3 else x3) else y
    x4 = hi if hi < (y := lo if lo > x4 else x4) else y
    x5 = hi if hi < (y := lo if lo > x5 else x5) else y
    x6 = hi if hi < (y := lo if lo > x6 else x6) else y
    x7 = hi if hi < (y := lo if lo > x7 else x7) else y
    return x0, x1, x2, x3, x4, x5, x6, x7


def plant_step(s: PlantState, q_targets: tuple[float, ...], params: PlantParams) -> PlantState:
    """Advance the surrogate by one step of DT toward q_targets, the tuple
    hold_targets returns (held as is in the new state's q_targets).

    Straight-line code on Python floats: numpy's per-call dispatch, and even
    a comprehension frame per 4-leg or 8-joint tuple, costs more than the
    math, so every joint and leg is a local and every tuple a display. Each
    operation keeps its order and operands from the numpy form in
    tests/oracles.py, so the bits match: a clamp takes a bound only when the
    value is strictly past it, as np.clip does, and a sum folds left from
    +0.0 as numpy's add.reduce does (sum() compensates from Python 3.12 on).
    """
    x0, x1, x2, x3, x4, x5, x6, x7 = q_targets
    q0, q1, q2, q3, q4, q5, q6, q7 = s.q
    tau = params.tau_joint
    # lift- and swing-joint velocity per leg
    qd = l0, w0, l1, w1, l2, w2, l3, w3 = ((x0 - q0) / tau, (x1 - q1) / tau, (x2 - q2) / tau,
                                           (x3 - q3) / tau, (x4 - q4) / tau, (x5 - q5) / tau,
                                           (x6 - q6) / tau, (x7 - q7) / tau)
    q = (q0 + DT * l0, q1 + DT * w0, q2 + DT * l1, q3 + DT * w1,
         q4 + DT * l2, q5 + DT * w2, q6 + DT * l3, q7 + DT * w3)
    c0, c1, c2, c3 = contact = (q[0] < 0.0, q[2] < 0.0, q[4] < 0.0, q[6] < 0.0)

    # rectified, saturated swing-velocity drive in stance: np.clip(-w, -QD_SAT, QD_SAT) * c
    d0 = (-QD_SAT if w0 > QD_SAT else QD_SAT if w0 < -QD_SAT else -w0) * c0
    d1 = (-QD_SAT if w1 > QD_SAT else QD_SAT if w1 < -QD_SAT else -w1) * c1
    d2 = (-QD_SAT if w2 > QD_SAT else QD_SAT if w2 < -QD_SAT else -w2) * c2
    d3 = (-QD_SAT if w3 > QD_SAT else QD_SAT if w3 < -QD_SAT else -w3) * c3
    thrust = params.k_vel * ((0.0 + d0 + d1 + d2 + d3) / NUM_LEGS)
    side_asym = (0.0 + d0 + d2) - (0.0 + d1 + d3)  # left legs minus right legs

    vx, vy, _ = s.v
    v = (vx + DT * (thrust - vx) / params.tau_vel,
         vy + DT * (K_LAT * side_asym - vy) / params.tau_vel, 0.0)

    roll_drive = (0.0 + l0 + l2) / 2 - (0.0 + l1 + l3) / 2   # left - right
    pitch_drive = (0.0 + l0 + l1) / 2 - (0.0 + l2 + l3) / 2  # front - rear
    (wx, wy, wz), (roll, pitch) = s.w, s.att
    w = (wx + DT * (K_ATT * roll_drive - wx) / TAU_ATT,
         wy + DT * (K_ATT * pitch_drive - wy) / TAU_ATT,
         wz + DT * (K_YAW * K_LAT * side_asym - wz) / params.tau_vel)

    (t0, t1, t2, t3), (p0, p1, p2, p3) = s.t_air, s.contact  # p: contact one step back
    t_air = ((0.0 if p0 else t0) if c0 else t0 + DT, (0.0 if p1 else t1) if c1 else t1 + DT,
             (0.0 if p2 else t2) if c2 else t2 + DT, (0.0 if p3 else t3) if c3 else t3 + DT)
    landed = (c0 and not p0, c1 and not p1, c2 and not p2, c3 and not p3)
    att = (roll + DT * (w[0] - roll / TAU_ATT), pitch + DT * (w[1] - pitch / TAU_ATT))
    return PlantState(v, w, att, q, qd, q_targets, t_air, contact, landed)


# --- runtimes -------------------------------------------------------------

SCRIPTED_GAIT_HZ = 1.5
SCRIPTED_SWING_AMP_PER_MPS = 1.2  # swing amplitude, rad per m/s of command
SCRIPTED_LIFT_AMP = 0.25          # lift amplitude, rad


class ScriptedGaitController:
    """Deterministic trot-pattern target generator; stands in for a policy."""

    def __init__(self, v_cmd: float):
        self.amp = SCRIPTED_SWING_AMP_PER_MPS * v_cmd
        self.offsets = np.array([0.0, math.pi, math.pi, 0.0])  # diagonal pairs

    def act(self, obs: np.ndarray, t: float) -> np.ndarray:
        phase = 2.0 * math.pi * SCRIPTED_GAIT_HZ * t + self.offsets
        targets = np.empty(NUM_JOINTS)
        targets[0::2] = SCRIPTED_LIFT_AMP * np.cos(phase)
        targets[1::2] = self.amp * np.sin(phase)
        return targets


class PolicyRuntime:
    """FP32 reference inference."""

    def __init__(self, policy: Fp32Policy):
        self.policy = policy

    def act(self, obs: np.ndarray, t: float) -> np.ndarray:
        return infer_fp32(self.policy, obs)


class QuantizedRuntime:
    """Int8 kernel inference via the fused quantize/infer/dequantize path."""

    def __init__(self, qp: QuantizedPolicy):
        self.qp = qp

    def act(self, obs: np.ndarray, t: float) -> np.ndarray:
        return fused_infer_dequant(self.qp, obs)


class CodecRuntime:
    """Route another runtime's observations/actions through the wire codec."""

    def __init__(self, inner, precision: str):
        if precision == "int8":
            if not isinstance(inner, QuantizedRuntime):
                raise DataError("int8 codec transport needs a QuantizedRuntime")
            qp = inner.qp
            # quantize_obs and infer_int8 are read as module globals on every
            # call, so they can be rebound for tracing; the int8 actions are
            # dequantized from QuantizedPolicy.action_table, not per update
            self._to_wire = lambda obs: quantize_obs(obs, qp.obs_scale_0d, qp.obs_zp_0d)
            self._from_wire = lambda a: qp.action_table.take(a, mode="wrap")
            act_fn = lambda obs_q, t: infer_int8(qp, obs_q)[0]
        else:
            self._to_wire = self._from_wire = lambda x: x
            act_fn = inner.act
        self.session = Session(precision)
        self.device = LoopbackDevice(act_fn, precision)

    def act(self, obs: np.ndarray, t: float) -> np.ndarray:
        frame = self.session.send_observation(self._to_wire(obs))
        return self._from_wire(self.session.receive_action(self.device.handle(frame, t)))


# --- episode loop ---------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    f_update_hz: float = SIM_HZ
    seed: int = 0

    def __post_init__(self):
        check_finite("update rate", self.f_update_hz)
        if not (0 < self.f_update_hz <= SIM_HZ):
            raise DataError(f"need 0 < f_update <= {SIM_HZ:g} Hz")
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass
class EpisodeResult:
    rows: list[tuple]
    total_reward: float
    steps: int
    inference_count: int


def _build_observation(s: PlantState, prev_action: list[float],
                       dr: DRPerturbation) -> np.ndarray:
    roll, pitch = s.att
    gravity = (-math.sin(pitch), math.sin(roll), -math.cos(pitch) * math.cos(roll) - dr.gravity)
    # 24 slots: base linear velocity 0-2, base angular velocity 3-5, gravity in
    # the base frame 6-8, joint positions 9-16, the previous action's first 7 17-23
    obs = np.array((*s.v, *s.w, *gravity, *s.q, *prev_action[:7]), dtype=np.float32)
    obs += dr.observation_0d
    return obs


def run_episode(runtime, sim: SimConfig, dr_config: DRConfig | None,
                cmd: tuple[float, float]) -> EpisodeResult:
    """Run one deterministic closed-loop episode with zero-order-hold control.

    Update k runs at the first step where floor(step * f_update / SIM_HZ)
    reaches k, and its action, checked and clamped once by hold_targets, is
    held until the next update, so the mean update rate is exactly f_update
    even when it does not divide SIM_HZ.
    """
    check_finite("velocity command", cmd)
    dr = sample_dr(sim.seed) if dr_config is not None else DRPerturbation()
    params = _apply_dr_to_params(PlantParams(), dr)

    n_steps = round(EPISODE_S * SIM_HZ)
    schedule = [math.floor(step * sim.f_update_hz / SIM_HZ) for step in range(n_steps)]

    state = PlantState()
    held = [0.0] * NUM_JOINTS  # the last action as floats; step 0 is an update and sets targets
    dr_action = dr.action
    rows: list[tuple] = []
    total = 0.0
    inference_count = 0

    for step, due in enumerate(schedule):
        t = step * DT
        if due >= inference_count:
            obs = _build_observation(state, held, dr)
            action = np.asarray(runtime.act(obs, t), dtype=np.float64)
            if action.shape != (NUM_JOINTS,):
                raise DataError(f"runtime produced action shape {action.shape}")
            # the float64 add of each element, done on Python floats
            held = [x + dr_action for x in action.tolist()]
            # also rejects NaN; a value past F32_MAX would become inf in the observation
            if not all([-F32_MAX <= x <= F32_MAX for x in held]):
                raise DataError(f"runtime produced a non-finite or float32-overflowing "
                                f"action at update {inference_count} (t={t:.6g} s)")
            targets = hold_targets(held, dr)
            inference_count += 1
        state = plant_step(state, targets, params)
        reward = reward_step(state, cmd)
        total += reward[0]
        rows.append((t + DT, state.v[0], state.v[1], state.w[2], *reward))

    return EpisodeResult(rows, total, len(rows), inference_count)


def write_trajectory_csv(result: EpisodeResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in result.rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
