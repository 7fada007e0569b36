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
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import DataError
from .inputs import check_finite
from .kernel import fused_infer_dequant, infer_int8, quantize_obs
from .policy import Fp32Policy, infer_fp32
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


# Per-step reward weights; reward_step also scales each term by DT.
LIN_TRACK_WEIGHT = 1.0
ANG_TRACK_WEIGHT = 0.5
LIN_PENALTY_WEIGHT = 0.5
ANG_PENALTY_WEIGHT = 0.05
AIR_TIME_WEIGHT = 1.0
TRACKING_SIGMA = 0.5     # tracking kernel width: Phi(e) = exp(-e^2 / sigma^2)
AIR_TIME_OFFSET_S = 0.5  # a touchdown earns (t_air - offset), negative for short steps


def tracking_kernel(err: float) -> float:
    return math.exp(-(err * err) / (TRACKING_SIGMA * TRACKING_SIGMA))


@dataclass
class PlantState:
    """The plant state as tuples of Python floats (bools for the contact flags).

    Tuples cannot change in place, so the record need not be frozen, and a
    frozen __init__ costs four times as much on every plant step.
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
    v_cmd, w_cmd = cmd
    lin = LIN_TRACK_WEIGHT * DT * tracking_kernel(v_cmd - s.v[0])
    ang = ANG_TRACK_WEIGHT * DT * tracking_kernel(w_cmd - s.w[2])
    pen_lin = -LIN_PENALTY_WEIGHT * DT * s.v[1] ** 2
    pen_ang = -ANG_PENALTY_WEIGHT * DT * (s.w[0] ** 2 + s.w[1] ** 2)
    a0, a1, a2, a3 = [(t - AIR_TIME_OFFSET_S) * landed
                      for t, landed in zip(s.t_air, s.just_landed)]
    air = AIR_TIME_WEIGHT * DT * (0.0 + a0 + a1 + a2 + a3)  # summed as in plant_step
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
    "restitution": (0.0, 0.7),
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
    restitution: float = 1.0
    damping: float = 1.0
    stiffness: float = 1.0

    def __post_init__(self):
        # vars(), not astuple: its deep copy costs more than the check itself
        check_finite("perturbation", tuple(vars(self).values()))


def sample_dr(seed: int) -> DRPerturbation:
    """One seeded perturbation draw: a Gaussian per ADDITIVE_ROWS row, then a
    uniform factor per SCALING_ROWS row, in table order."""
    rng = np.random.default_rng(seed)
    values = {name: mean + std * float(rng.standard_normal())
              for name, (mean, std) in ADDITIVE_ROWS.items()}
    for name, (lo, hi) in SCALING_ROWS.items():
        values[name] = float(rng.uniform(lo, hi))
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
    # friction scales drive; stiffness speeds the joint servo; restitution has
    # no hook in this surrogate
    return replace(
        p,
        tau_vel=p.tau_vel * dr.mass / max(dr.damping, 1e-6),
        k_vel=p.k_vel * dr.friction,
        tau_joint=p.tau_joint / max(dr.stiffness, 1e-6))


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on one float: a bound replaces x only when x is strictly past it."""
    x = lo if lo > x else x
    return hi if hi < x else x


def plant_step(s: PlantState, targets: list[float], params: PlantParams,
               dr: DRPerturbation) -> PlantState:
    """Advance the surrogate by one step of DT toward the held joint targets,
    NUM_JOINTS finite numbers (held as floats in q_targets).

    Scalar code on Python floats: on 8-element arrays numpy's per-call
    dispatch costs more than the math, so the state is tuples and no numpy
    runs here. Each operation keeps its order and operands from the numpy
    form in tests/oracles.py, so the bits match; a sum folds left from +0.0
    as numpy's add.reduce does, not with sum(), which compensates from
    Python 3.12 on.
    """
    if len(targets) != NUM_JOINTS:
        raise DataError(f"expected {NUM_JOINTS} joint targets, got {len(targets)}")
    if not all(map(math.isfinite, targets)):
        j = next(j for j, x in enumerate(targets) if not math.isfinite(x))
        raise DataError(f"joint {j} target is not finite: {targets[j]}")
    lo = -Q_LIMIT + dr.dof_lower
    hi = Q_LIMIT + dr.dof_upper
    targets = tuple([_clip(float(x), lo, hi) for x in targets])

    qd = tuple([(x - q0) / params.tau_joint for x, q0 in zip(targets, s.q)])
    q = tuple([q0 + DT * v for q0, v in zip(s.q, qd)])
    l0, l1, l2, l3 = qd[0::2]  # lift-joint velocity per leg
    contact = tuple([x < 0.0 for x in q[0::2]])

    # rectified, saturated swing-velocity drive during stance
    d0, d1, d2, d3 = [_clip(-x, -QD_SAT, QD_SAT) * c for x, c in zip(qd[1::2], contact)]
    thrust = params.k_vel * ((0.0 + d0 + d1 + d2 + d3) / NUM_LEGS)
    side_asym = (0.0 + d0 + d2) - (0.0 + d1 + d3)  # left legs minus right legs

    vx, vy, _ = s.v
    v = (vx + DT * (thrust - vx) / params.tau_vel,
         vy + DT * (K_LAT * side_asym - vy) / params.tau_vel,
         0.0)

    roll_drive = (0.0 + l0 + l2) / 2 - (0.0 + l1 + l3) / 2   # left - right
    pitch_drive = (0.0 + l0 + l1) / 2 - (0.0 + l2 + l3) / 2  # front - rear
    wx, wy, wz = s.w
    w = (wx + DT * (K_ATT * roll_drive - wx) / TAU_ATT,
         wy + DT * (K_ATT * pitch_drive - wy) / TAU_ATT,
         wz + DT * (K_YAW * K_LAT * side_asym - wz) / params.tau_vel)

    t_air = tuple([(0.0 if down else t) if c else t + DT
                   for t, c, down in zip(s.t_air, contact, s.contact)])
    landed = tuple([c and not down for c, down in zip(contact, s.contact)])
    att = tuple([a + DT * (wi - a / TAU_ATT) for a, wi in zip(s.att, w)])
    return PlantState(v, w, att, q, qd, targets, t_air, contact, landed)


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

    def __init__(self, inner, precision: str = "fp32"):
        if precision == "int8":
            if not isinstance(inner, QuantizedRuntime):
                raise DataError("int8 codec transport needs a QuantizedRuntime")
            qp = inner.qp
            out = qp.layers[-1]
            # quantize_obs, infer_int8 and dequantize_action are read as
            # module globals on every call, so they can be rebound for tracing
            self._to_wire = lambda obs: quantize_obs(obs, qp.obs_scale, qp.obs_zp)
            self._from_wire = lambda a: dequantize_action(a, out.output_scale, out.output_zp)
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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


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
    obs += np.float32(dr.observation)
    return obs


def run_episode(runtime, sim: SimConfig, dr_config: DRConfig | None,
                cmd: tuple[float, float]) -> EpisodeResult:
    """Run one deterministic closed-loop episode with zero-order-hold control.

    Update k runs at the first step where floor(step * f_update / SIM_HZ)
    reaches k, and its action is held until the next update, so the mean
    update rate is exactly f_update even when it does not divide SIM_HZ.
    """
    check_finite("velocity command", cmd)
    dr = sample_dr(sim.seed) if dr_config is not None else DRPerturbation()
    params = _apply_dr_to_params(PlantParams(), dr)

    n_steps = round(EPISODE_S * SIM_HZ)

    state = PlantState()
    held = [0.0] * NUM_JOINTS  # the held action as floats
    rows: list[tuple] = []
    total = 0.0
    inference_count = 0

    for step in range(n_steps):
        t = step * DT
        if math.floor(step * sim.f_update_hz / SIM_HZ) >= inference_count:
            obs = _build_observation(state, held, dr)
            action = np.asarray(runtime.act(obs, t), dtype=np.float64).ravel()
            if action.shape != (NUM_JOINTS,):
                raise DataError(f"runtime produced action shape {action.shape}")
            held = (action + dr.action).tolist()
            # also rejects NaN; a value past F32_MAX would become inf in the observation
            if not all([-F32_MAX <= x <= F32_MAX for x in held]):
                raise DataError(f"runtime produced a non-finite or float32-overflowing "
                                f"action at update {inference_count} (t={t:.6g} s)")
            inference_count += 1
        state = plant_step(state, held, params, dr)
        reward = reward_step(state, cmd)
        total += reward[0]
        rows.append((t + DT, state.v[0], state.v[1], state.w[2], *reward))

    return EpisodeResult(rows, total, len(rows), inference_count)


def write_trajectory_csv(result: EpisodeResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in result.rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
