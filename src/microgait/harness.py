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

from .errors import DataError, DomainError
from .inputs import check_finite
from .kernel import fused_infer_dequant, infer_int8, quantize_obs
from .policy import Fp32Policy, ObservationSchema, infer_fp32
from .quant import QuantizedPolicy, dequantize_action
from .wire import LoopbackDevice, Session

NUM_LEGS = 4
NUM_JOINTS = 8
# joint layout: leg f owns (lift, swing) = (q[2f], q[2f+1]); legs FL, FR, RL, RR,
# so legs 0 and 2 are the left side and legs 0 and 1 the front
SIM_HZ = 120.0  # plant and reward step rate
OBS_SCHEMA = ObservationSchema()  # the observation slot layout every runtime sees


# Per-step reward weights; reward_step also scales each term by dt.
LIN_TRACK_WEIGHT = 1.0
ANG_TRACK_WEIGHT = 0.5
LIN_PENALTY_WEIGHT = 0.5
ANG_PENALTY_WEIGHT = 0.05
AIR_TIME_WEIGHT = 1.0
TRACKING_SIGMA = 0.5     # tracking kernel width: Phi(e) = exp(-e^2 / sigma^2)
AIR_TIME_OFFSET_S = 0.5  # a touchdown earns (t_air - offset), negative for short steps


@dataclass(frozen=True)
class RewardWeights:
    """The reward's time step; the weights themselves are the module constants above."""

    dt: float

    def __post_init__(self):
        check_finite("reward dt", self.dt)
        if not self.dt > 0:
            raise DataError(f"reward dt must be > 0, got {self.dt}")


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


def reward_step(s: PlantState, cmd: tuple[float, float], w: RewardWeights
                ) -> tuple[float, dict[str, float]]:
    """Per-step reward: tracking terms, motion penalties, touchdown air-time bonus."""
    v_cmd, w_cmd = cmd
    dt = w.dt
    lin = LIN_TRACK_WEIGHT * dt * tracking_kernel(v_cmd - s.v[0])
    ang = ANG_TRACK_WEIGHT * dt * tracking_kernel(w_cmd - s.w[2])
    pen_lin = -LIN_PENALTY_WEIGHT * dt * s.v[1] ** 2
    pen_ang = -ANG_PENALTY_WEIGHT * dt * (s.w[0] ** 2 + s.w[1] ** 2)
    a0, a1, a2, a3 = [(t - AIR_TIME_OFFSET_S) * landed
                      for t, landed in zip(s.t_air, s.just_landed)]
    air = AIR_TIME_WEIGHT * dt * (0.0 + a0 + a1 + a2 + a3)  # summed as in plant_step
    terms = {"lin_track": lin, "ang_track": ang, "lin_penalty": pen_lin,
             "ang_penalty": pen_ang, "air_time": air}
    return lin + ang + pen_lin + pen_ang + air, terms


# --- domain randomization -------------------------------------------------

ADDITIVE_ROWS = ("observation", "action", "gravity", "dof_lower", "dof_upper")
SCALING_ROWS = ("mass", "friction", "restitution", "damping", "stiffness")


@dataclass(frozen=True)
class DRConfig:
    """Randomization rows: additive rows are (mean, std) of a Gaussian draw,
    scaling rows are (lo, hi) of a Uniform multiplicative factor."""

    observation: tuple[float, float] = (0.0, 0.002)
    action: tuple[float, float] = (0.0, 0.02)
    gravity: tuple[float, float] = (0.0, 0.4)
    mass: tuple[float, float] = (0.05, 0.15)
    friction: tuple[float, float] = (0.07, 0.13)
    restitution: tuple[float, float] = (0.0, 0.7)
    damping: tuple[float, float] = (0.5, 1.5)
    stiffness: tuple[float, float] = (0.5, 1.5)
    dof_lower: tuple[float, float] = (0.0, 0.01)
    dof_upper: tuple[float, float] = (0.0, 0.01)

    def __post_init__(self):
        for name in ADDITIVE_ROWS + SCALING_ROWS:
            check_finite(f"{name} row", getattr(self, name))
        for name in SCALING_ROWS:
            lo, hi = getattr(self, name)
            if lo > hi:
                raise DataError(f"{name} range lower {lo} > upper {hi}")
        for name in ADDITIVE_ROWS:
            _, std = getattr(self, name)
            if std < 0:
                raise DataError(f"{name} std must be >= 0")


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


def sample_dr(cfg: DRConfig, seed: int) -> DRPerturbation:
    """One seeded perturbation draw (additive Gaussians, uniform scale factors)."""
    rng = np.random.default_rng(seed)
    values = {}
    for name in ADDITIVE_ROWS:
        mean, std = getattr(cfg, name)
        values[name] = mean + std * float(rng.standard_normal()) if std > 0 else mean
    for name in SCALING_ROWS:
        lo, hi = getattr(cfg, name)
        values[name] = float(rng.uniform(lo, hi)) if hi > lo else lo
    return DRPerturbation(**values)


# --- toy plant ------------------------------------------------------------

@dataclass(frozen=True)
class PlantParams:
    """Declared surrogate constants (not fit to any physical robot)."""

    tau_joint: float = 0.02      # joint servo time constant, s
    tau_vel: float = 0.25        # body velocity time constant, s
    tau_att: float = 0.15        # attitude relaxation, s
    qd_sat: float = 0.75         # saturating joint-velocity element, rad/s
    k_vel: float = 0.28          # forward drive gain, (m/s) per (rad/s)
    k_lat: float = 0.02          # lateral response to left/right drive asymmetry
    k_yaw: float = 0.2           # yaw response to left/right drive asymmetry
    k_att: float = 0.05          # roll/pitch rate response to lift-joint motion
    q_limit: float = 1.2         # nominal joint range, rad

    def __post_init__(self):
        check_finite("plant parameters", astuple(self))
        if not min(self.tau_joint, self.tau_vel, self.tau_att) > 0:
            raise DataError("plant time constants must be > 0")


def _apply_dr_to_params(p: PlantParams, dr: DRPerturbation) -> PlantParams:
    # mass slows the body response; friction scales drive; stiffness speeds the
    # servo and damping slows it; restitution has no hook in this surrogate
    return replace(
        p,
        tau_vel=p.tau_vel * dr.mass / max(dr.damping, 1e-6),
        k_vel=p.k_vel * dr.friction,
        tau_joint=p.tau_joint / max(dr.stiffness, 1e-6))


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on one float: a bound replaces x only when x is strictly past it."""
    x = lo if lo > x else x
    return hi if hi < x else x


def plant_step(s: PlantState, motor_targets: np.ndarray, dt: float,
               params: PlantParams, dr: DRPerturbation) -> PlantState:
    """Advance the surrogate by one step toward the held joint targets.

    Scalar code on Python floats: on 8-element arrays numpy's per-call
    dispatch costs more than the math, so the state is tuples and the only
    numpy here is the conversion of the targets. Each operation keeps its
    order and operands from the numpy form in tests/oracles.py, so the bits
    match; a sum folds left from +0.0 as numpy's add.reduce does, not with
    sum(), which compensates from Python 3.12 on.
    """
    if dt <= 0:
        raise DataError(f"dt must be > 0, got {dt}")
    targets = np.asarray(motor_targets, dtype=np.float64).ravel()
    if targets.shape != (NUM_JOINTS,):
        raise DataError(f"expected {NUM_JOINTS} joint targets, got shape {targets.shape}")
    lo = -params.q_limit + dr.dof_lower
    hi = params.q_limit + dr.dof_upper
    targets = tuple([_clip(x, lo, hi) for x in targets.tolist()])

    qd = tuple([(x - q0) / params.tau_joint for x, q0 in zip(targets, s.q)])
    q = tuple([q0 + dt * v for q0, v in zip(s.q, qd)])
    l0, l1, l2, l3 = qd[0::2]  # lift-joint velocity per leg
    contact = tuple([x < 0.0 for x in q[0::2]])

    # rectified, saturated swing-velocity drive during stance
    sat = params.qd_sat
    d0, d1, d2, d3 = [_clip(-x, -sat, sat) * c for x, c in zip(qd[1::2], contact)]
    thrust = params.k_vel * ((0.0 + d0 + d1 + d2 + d3) / NUM_LEGS)
    side_asym = (0.0 + d0 + d2) - (0.0 + d1 + d3)  # left legs minus right legs

    vx, vy, _ = s.v
    v = (vx + dt * (thrust - vx) / params.tau_vel,
         vy + dt * (params.k_lat * side_asym - vy) / params.tau_vel,
         0.0)

    roll_drive = (0.0 + l0 + l2) / 2 - (0.0 + l1 + l3) / 2   # left - right
    pitch_drive = (0.0 + l0 + l1) / 2 - (0.0 + l2 + l3) / 2  # front - rear
    wx, wy, wz = s.w
    w = (wx + dt * (params.k_att * roll_drive - wx) / params.tau_att,
         wy + dt * (params.k_att * pitch_drive - wy) / params.tau_att,
         wz + dt * (params.k_yaw * params.k_lat * side_asym - wz) / params.tau_vel)

    t_air = tuple([(0.0 if down else t) if c else t + dt
                   for t, c, down in zip(s.t_air, contact, s.contact)])
    landed = tuple([c and not down for c, down in zip(contact, s.contact)])
    att = tuple([a + dt * (wi - a / params.tau_att) for a, wi in zip(s.att, w)])
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
        return infer_fp32(self.policy, obs).astype(np.float64)


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
            self._to_wire = lambda obs: obs
            self._from_wire = lambda a: a.astype(np.float64)
            act_fn = inner.act
        self.inner = inner
        self.precision = precision
        self.session = Session(precision)
        self.device = LoopbackDevice(act_fn, precision)

    def act(self, obs: np.ndarray, t: float) -> np.ndarray:
        frame = self.session.send_observation(self._to_wire(obs))
        return self._from_wire(self.session.receive_action(self.device.handle(frame, t)))


# --- episode loop ---------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    episode_s: float = 10.0
    f_update_hz: float = SIM_HZ
    seed: int = 0

    def __post_init__(self):
        check_finite("episode length and update rate", (self.episode_s, self.f_update_hz))
        if not self.episode_s > 0:
            raise DataError("episode length must be > 0")
        if not (0 < self.f_update_hz <= SIM_HZ):
            raise DataError(f"need 0 < f_update <= {SIM_HZ:g} Hz")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


TRAJECTORY_COLUMNS = ("t", "vx", "vy", "wz", "reward_total", "reward_lin",
                      "reward_ang", "pen_lin", "pen_ang", "reward_air")

ATTITUDE_LIMIT_RAD = math.pi / 4


@dataclass
class EpisodeResult:
    rows: list[tuple]
    total_reward: float
    reward_ratio: float | None
    steps: int
    inference_count: int
    terminated_early: bool


def _build_observation(s: PlantState, prev_action: list[float],
                       dr: DRPerturbation) -> np.ndarray:
    roll, pitch = s.att
    gravity = (-math.sin(pitch), math.sin(roll), -math.cos(pitch) * math.cos(roll) - dr.gravity)
    obs = OBS_SCHEMA.pack(lin_vel=s.v, ang_vel=s.w, gravity=gravity,
                          joint_pos=s.q, prev_action=prev_action)
    obs += np.float32(dr.observation)
    return obs


def run_episode(runtime, sim: SimConfig, dr_config: DRConfig | None,
                cmd: tuple[float, float], *, baseline_reward: float | None = None
                ) -> EpisodeResult:
    """Run one deterministic closed-loop episode with zero-order-hold control.

    Update k runs at the first step where floor(step * f_update / SIM_HZ)
    reaches k, and its action is held until the next update, so the mean
    update rate is exactly f_update even when it does not divide SIM_HZ.
    """
    check_finite("velocity command", cmd)
    dt = 1.0 / SIM_HZ
    weights = RewardWeights(dt=dt)
    dr = sample_dr(dr_config, sim.seed) if dr_config is not None else DRPerturbation()
    params = _apply_dr_to_params(PlantParams(), dr)

    n_steps = round(sim.episode_s * SIM_HZ)

    state = PlantState()
    action = np.zeros(NUM_JOINTS)
    held = action.tolist()  # the held action as floats, for the observation
    rows: list[tuple] = []
    total = 0.0
    inference_count = 0
    terminated = False

    for step in range(n_steps):
        t = step * dt
        if math.floor(step * sim.f_update_hz / SIM_HZ) >= inference_count:
            obs = _build_observation(state, held, dr)
            action = np.asarray(runtime.act(obs, t), dtype=np.float64).ravel()
            if action.shape != (NUM_JOINTS,):
                raise DataError(f"runtime produced action shape {action.shape}")
            action = action + dr.action
            held = action.tolist()
            if not all(map(math.isfinite, held)):
                raise DataError(f"runtime produced a non-finite action at update "
                                f"{inference_count} (t={t:.6g} s)")
            inference_count += 1
        state = plant_step(state, action, dt, params, dr)
        reward, terms = reward_step(state, cmd, weights)
        total += reward
        rows.append((t + dt, state.v[0], state.v[1], state.w[2], reward,
                     terms["lin_track"], terms["ang_track"], terms["lin_penalty"],
                     terms["ang_penalty"], terms["air_time"]))
        roll, pitch = state.att
        if abs(roll) > ATTITUDE_LIMIT_RAD or abs(pitch) > ATTITUDE_LIMIT_RAD:
            terminated = True
            break

    ratio = None
    if baseline_reward is not None:
        if baseline_reward == 0:
            raise DomainError("baseline reward is zero; ratio undefined")
        ratio = total / baseline_reward
    return EpisodeResult(rows, total, ratio, len(rows), inference_count, terminated)


def write_trajectory_csv(result: EpisodeResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for row in result.rows:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
