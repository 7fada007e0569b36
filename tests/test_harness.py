import math
import re
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgait import harness
from microgait.errors import DataError
from microgait.harness import (
    DT,
    K_ATT,
    K_LAT,
    K_YAW,
    Q_LIMIT,
    QD_SAT,
    SIM_HZ,
    TAU_ATT,
    TRAJECTORY_COLUMNS,
    CodecRuntime,
    DRConfig,
    DRPerturbation,
    PlantParams,
    PlantState,
    PolicyRuntime,
    QuantizedRuntime,
    ScriptedGaitController,
    SimConfig,
    _apply_dr_to_params,
    _build_observation,
    _hold_targets,
    plant_step,
    reward_step,
    run_episode,
    sample_dr,
    write_trajectory_csv,
)
from microgait.policy import PolicySpec, leaky_relu, random_policy
from microgait.quant import QuantScheme, quantize_policy
from oracles import plant_step_numpy, reward_step_numpy, reward_terms_scalar


def _state(**fields):
    """A PlantState whose given fields (any flat sequences) become tuples of
    Python floats or bools."""
    return PlantState(**{name: tuple(np.asarray(v).tolist()) for name, v in fields.items()})


def _reward(s, cmd):
    """reward_step's total and terms keyed by their trajectory CSV columns."""
    return dict(zip(TRAJECTORY_COLUMNS[4:], reward_step(s, cmd)))


def _oracle_params(params):
    """PlantParams and the plant constants in one namespace, the form the
    frozen numpy plant step reads them in."""
    return SimpleNamespace(**vars(params), tau_att=TAU_ATT, qd_sat=QD_SAT, k_lat=K_LAT,
                           k_yaw=K_YAW, k_att=K_ATT, q_limit=Q_LIMIT)


def test_reward_perfect_tracking():
    s = _state(v=(0.1, 0.0, 0.0), w=(0.0, 0.0, 0.3))
    r = _reward(s, (0.1, 0.3))
    assert r["reward_total"] == pytest.approx(1.5 * DT)
    assert r["reward_lin"] == pytest.approx(DT)
    assert r["reward_ang"] == pytest.approx(0.5 * DT)
    assert r["pen_lin"] == r["pen_ang"] == r["reward_air"] == 0.0


def test_reward_lateral_penalty():
    s = _state(v=(0.0, 0.1, 0.0))
    assert _reward(s, (0.0, 0.0))["pen_lin"] == pytest.approx(-0.5 * DT * 0.01)


def test_reward_air_time_zero_crossing():
    s = _state(t_air=(0.5, 0.0, 0.0, 0.0), just_landed=(True, False, False, False))
    assert _reward(s, (0.0, 0.0))["reward_air"] == 0.0
    s = replace(s, t_air=(0.8, 0.0, 0.0, 0.0))
    assert _reward(s, (0.0, 0.0))["reward_air"] == pytest.approx(DT * 0.3)


def test_reward_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = _state(v=rng.normal(scale=0.2, size=3), w=rng.normal(scale=0.5, size=3),
                   t_air=rng.uniform(0, 1.5, size=4),
                   just_landed=rng.integers(0, 2, size=4).astype(bool))
        cmd = (rng.normal(scale=0.1), rng.normal(scale=0.3))
        r = _reward(s, cmd)
        want = reward_terms_scalar(DT, s.v[0], s.v[1], s.w[0], s.w[1], s.w[2],
                                   s.t_air, s.just_landed, cmd[0], cmd[1])
        for key in want:
            assert r[key] == pytest.approx(want[key], abs=1e-15)
        assert r["reward_total"] == pytest.approx(sum(want.values()), abs=1e-14)


def test_sample_dr_deterministic_and_in_range():
    a = sample_dr(5)
    b = sample_dr(5)
    assert a == b
    assert a != sample_dr(6)
    for _ in range(20):
        d = sample_dr(_)
        assert 0.05 <= d.mass <= 0.15
        assert 0.07 <= d.friction <= 0.13


def test_sample_dr_keeps_its_draws_without_restitution():
    # the restitution draw acts on nothing and has no field, but is still made,
    # so the later rows keep the values they had when it was a field
    assert not hasattr(sample_dr(0), "restitution")
    want = [(1.043624991465423, 1.4350724237877683), (1.0495936876730596, 0.5275591132430684),
            (0.7749693679060381, 1.1574330148755925), (1.2345771514092145, 0.6136720199214034),
            (1.3716352741876565, 1.0439414007634982), (0.5487577107271681, 1.4991761150650715),
            (0.5517292319837752, 1.3501913468087872), (1.2970694287520463, 0.9679349528437208),
            (0.6069535964727744, 0.978965454162717), (0.5265877344675972, 0.9372480001295087)]
    assert [(sample_dr(seed).damping, sample_dr(seed).stiffness) for seed in range(10)] == want


def test_sample_dr_statistics():
    draws = [sample_dr(seed) for seed in range(100_000)]
    obs_std = np.std([d.observation for d in draws])
    assert obs_std == pytest.approx(0.002, rel=0.05)
    grav_std = np.std([d.gravity for d in draws])
    assert grav_std == pytest.approx(0.4, rel=0.05)


_TARGETS = [-0.5, 1.25, 0.0, -0.0, 0.3, -1.3, 0.7, 1.0, 0.2]  # the first 8 are a step
_KINDS = [np.float64, np.float32, np.int64, float, np.float16, np.float64, int, np.int32, float]


class _Rotating:
    """The first 8 of _TARGETS rotated by one slot per update, made into one container."""

    def __init__(self, make):
        self.make, self.calls = make, 0

    def act(self, obs, t):
        k = self.calls % len(_TARGETS)
        self.calls += 1
        return self.make((_TARGETS[k:] + _TARGETS[:k])[:8])


@pytest.mark.parametrize("make", [
    list,
    tuple,
    lambda t: np.array(t, dtype=np.float64),
    lambda t: np.array(t, dtype=np.float32),
    lambda t: [kind(x) for kind, x in zip(_KINDS, t)],
], ids=["list", "tuple", "float64-array", "float32-array", "numpy-scalars-and-ints"])
def test_plant_step_takes_any_target_container(make):
    # targets past the joint bounds, signed zeros, ints and (in float32) values that
    # differ from their float64 literals: run_episode holds each as the float it equals
    rotating = _Rotating(make)
    as_list = _Rotating(lambda t: [float(x) for x in make(t)])
    sim = SimConfig(f_update_hz=30.0, seed=2)
    got = run_episode(rotating, sim, DRConfig(), (0.08, 0.0))
    assert got.rows == run_episode(as_list, sim, DRConfig(), (0.08, 0.0)).rows
    assert rotating.calls == got.inference_count == 300


def test_plant_step_deterministic_and_pure():
    s = PlantState()
    targets = np.linspace(-0.5, 0.5, 8).tolist()
    a = plant_step(s, _hold_targets(targets, DRPerturbation()), PlantParams())
    b = plant_step(s, _hold_targets(targets, DRPerturbation()), PlantParams())
    for f in fields(PlantState):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
    np.testing.assert_array_equal(s.q, np.zeros(8))  # input untouched


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_same_state(got, want: dict):
    """Every PlantState field a tuple of Python floats (bools for a bool
    reference) equal to the reference array element by element, in bits for
    the floats (so -0.0 != 0.0)."""
    assert {f.name for f in fields(got)} == set(want)
    for name, ref in want.items():
        values = getattr(got, name)
        assert type(values) is tuple and len(values) == ref.size, name
        kind = bool if ref.dtype == bool else float
        assert all(type(x) is kind for x in values), name
        if kind is bool:
            assert values == tuple(ref.tolist()), name
        else:
            for i, (x, r) in enumerate(zip(values, ref.tolist())):
                assert _bits(x) == _bits(r), f"{name}[{i}]: {x!r} != {r!r}"


_signed_zero = st.sampled_from([0.0, -0.0])
_small = st.one_of(_signed_zero, st.floats(-2.0, 2.0))


@st.composite
def _plant_cases(draw):
    """A state, targets, parameters and perturbation; some cases hold the
    swing joints still (every drive term a signed zero) or lift every leg
    (all airborne), where a sum that does not start from +0.0 shows."""
    f = {name: np.array(draw(st.lists(_small, min_size=size, max_size=size)))
         for name, size in (("v", 3), ("w", 3), ("att", 2), ("q", 8), ("t_air", 4))}
    f["t_air"] = np.abs(f["t_air"]) if draw(st.booleans()) else np.full(4, 0.5)  # 0.5 s: no bonus
    for name in ("contact", "just_landed"):
        f[name] = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    # targets near the joints keep the drive below saturation, where sums round
    reach = draw(st.sampled_from([1e-3, 0.1, 3.0]))
    targets = f["q"] + reach * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8,
                                                      max_size=8)))
    if draw(st.booleans()):
        targets[1::2] = f["q"][1::2]          # zero swing velocity: zero drive
    if draw(st.booleans()):
        f["q"][0::2] = np.abs(f["q"][0::2]) + 0.5
        targets[0::2] = np.abs(targets[0::2]) + 0.5  # every leg airborne
    s = _state(**f)
    positive = st.floats(1e-3, 1.0)
    params = PlantParams(tau_joint=draw(positive), tau_vel=draw(positive), k_vel=draw(_small))
    dr = DRPerturbation(dof_lower=draw(st.one_of(_signed_zero, st.floats(-0.05, 0.05))),
                        dof_upper=draw(st.one_of(_signed_zero, st.floats(-0.05, 0.05))))
    cmd = (draw(_small), draw(_small))
    return s, targets, params, dr, cmd


@settings(max_examples=300, deadline=None)
@given(_plant_cases())
def test_plant_and_reward_match_numpy_reference(case):
    s, targets, params, dr, cmd = case
    got = plant_step(s, _hold_targets(targets.tolist(), dr), params)
    _assert_same_state(got, plant_step_numpy(s, targets, DT, _oracle_params(params), dr))
    r = _reward(got, cmd)
    ref_total, ref_terms = reward_step_numpy(got, cmd, DT)
    assert r.keys() == {"reward_total", *ref_terms}
    for key, value in ref_terms.items():
        assert _bits(r[key]) == _bits(value), key
    assert _bits(r["reward_total"]) == _bits(ref_total)


_LO, _HI = -Q_LIMIT + 0.03, Q_LIMIT - 0.04  # the clamp bounds under _OFFSET_DR
_OFFSET_DR = DRPerturbation(dof_lower=0.03, dof_upper=-0.04)
_HALF_TAU = PlantParams(tau_joint=0.5)  # qd = 2 (target - q), exact for the targets below

# Edge cases of the straight-line plant step: (state fields, targets, params, perturbation,
# the fields each case is built to produce, with "held" the tuple _hold_targets returns).
# Lift joints are q[0::2], swing joints q[1::2].
PLANT_CASES = [
    pytest.param({}, [-Q_LIMIT, Q_LIMIT, -0.0, 0.0, 0.0, -0.0, Q_LIMIT, -Q_LIMIT],
                 PlantParams(), DRPerturbation(),
                 {"held": (-Q_LIMIT, Q_LIMIT, -0.0, 0.0, 0.0, -0.0, Q_LIMIT, -Q_LIMIT)},
                 id="targets-at-bounds-and-signed-zeros"),
    pytest.param({}, [_LO, _HI, _LO - 1e-12, _HI + 1e-12, -0.0, 0.0, _HI, _LO],
                 PlantParams(), _OFFSET_DR,
                 {"held": (_LO, _HI, _LO, _HI, -0.0, 0.0, _HI, _LO)},
                 id="targets-at-and-past-perturbed-bounds"),
    pytest.param({"q": [0.5, -0.25] * 4}, [0, 1, -1, 2, -2, 0, 1, -1],
                 PlantParams(), DRPerturbation(),
                 {"held": (0.0, 1.0, -1.0, Q_LIMIT, -Q_LIMIT, 0.0, 1.0, -1.0)},
                 id="int-targets"),
    # swing qd of 0.75, -0.75, 1.0 and -1.0: -qd exactly at, then past, -QD_SAT and +QD_SAT;
    # the saturated drive shows in v[1] (side_asym -3.0, against -3.5 unsaturated)
    pytest.param({}, [-0.5, 0.375, -0.5, -0.375, -0.5, 0.5, -0.5, -0.5],
                 _HALF_TAU, DRPerturbation(), {"contact": (True,) * 4},
                 id="swing-at-and-past-qd-sat"),
    # swing drives -0.2, -0.4, -0.6 and -0.7 sum to -1.9000000000000001 left to
    # right but to -1.9 pairwise, so thrust shows the drive sum's order
    pytest.param({}, [-0.5, 0.1, -0.5, 0.2, -0.5, 0.3, -0.5, 0.35],
                 _HALF_TAU, DRPerturbation(), {"contact": (True,) * 4},
                 id="drive-sum-order"),
    pytest.param({"q": [-0.5, 0.1] * 4, "contact": [True] * 4, "t_air": [0.3] * 4},
                 [-0.5, 0.2, -0.6, 0.0, -0.4, -0.2, -0.5, 0.1], PlantParams(), DRPerturbation(),
                 {"contact": (True,) * 4, "just_landed": (False,) * 4, "t_air": (0.0,) * 4},
                 id="all-in-contact"),
    pytest.param({"q": [0.5, 0.1] * 4, "t_air": [0.2, 0.0, 0.7, 1.5]},
                 [0.5, 0.2, 0.6, -0.1, 0.4, 0.3, 0.5, 0.0], PlantParams(), DRPerturbation(),
                 {"contact": (False,) * 4, "just_landed": (False,) * 4},
                 id="all-airborne"),
    # between the two mixed cases every leg lands once and stays down or up once
    pytest.param({"contact": (True, False, False, True), "t_air": [0.2, 0.7, 0.1, 0.9]},
                 [-0.5, 0.2, -0.5, -0.2, 0.5, 0.1, 0.5, -0.1], _HALF_TAU, DRPerturbation(),
                 {"contact": (True, True, False, False),
                  "just_landed": (False, True, False, False)},
                 id="mixed-just-landed"),
    pytest.param({"contact": (False, True, False, False), "t_air": [0.9, 0.6, 0.3, 0.5]},
                 [-0.5, 0.2, -0.5, -0.2, -0.5, 0.1, -0.5, -0.1], _HALF_TAU, DRPerturbation(),
                 {"contact": (True,) * 4, "just_landed": (True, False, True, True),
                  "t_air": (0.9, 0.0, 0.3, 0.5)},
                 id="mixed-just-landed-other-legs"),
]


@pytest.mark.parametrize("fields, targets, params, dr, expect", PLANT_CASES)
def test_plant_edge_cases_match_numpy_reference(fields, targets, params, dr, expect):
    s = _state(**fields)
    held = _hold_targets(np.asarray(targets, dtype=np.float64).tolist(), dr)  # run_episode's floats
    assert type(held) is tuple and all(type(x) is float for x in held)
    got = plant_step(s, held, params)
    _assert_same_state(got, plant_step_numpy(s, targets, DT, _oracle_params(params), dr))
    for name, want in expect.items():
        values = held if name == "held" else getattr(got, name)
        assert [_bits(x) for x in values] == [_bits(x) for x in want], name
    ref_total, ref_terms = reward_step_numpy(got, (0.08, 0.0), DT)
    r = _reward(got, (0.08, 0.0))
    assert [_bits(r[key]) for key in ref_terms] == [_bits(v) for v in ref_terms.values()]
    assert _bits(r["reward_total"]) == _bits(ref_total)


def test_air_term_of_four_negative_zeros_is_positive_zero():
    # no leg just landed and every t_air below the offset: each product is -0.0
    s = _state(t_air=[0.1, 0.2, 0.0, 0.4], just_landed=[False] * 4)
    assert [math.copysign(1.0, (t - 0.5) * False) for t in s.t_air] == [-1.0] * 4
    air = _reward(s, (0.08, 0.0))["reward_air"]
    assert _bits(air) == _bits(0.0) == _bits(reward_step_numpy(s, (0.08, 0.0), DT)[1]["reward_air"])


def _count_calls(monkeypatch, *names):
    """Rebind each named harness global to a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _step=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(harness, name, counted)
    return calls


def test_run_episode_calls_plant_and_reward_as_module_globals(monkeypatch):
    # perfbench's tracer times the two steps by rebinding these module globals
    calls = _count_calls(monkeypatch, "plant_step", "reward_step")
    result = run_episode(ScriptedGaitController(0.08), SimConfig(f_update_hz=30.0), None,
                         (0.08, 0.0))
    assert result.steps == 1200
    assert calls == {"plant_step": 1200, "reward_step": 1200}


@pytest.mark.parametrize("f_update, holds", [(30.0, 300), (7.0, 70), (120.0, 1200)])
def test_run_episode_holds_each_update_once(monkeypatch, f_update, holds):
    # an update clamps its action once; every plant step reuses the tuple
    calls = _count_calls(monkeypatch, "_hold_targets", "plant_step")
    result = run_episode(ScriptedGaitController(0.08), SimConfig(f_update_hz=f_update), None,
                         (0.08, 0.0))
    assert result.inference_count == holds
    assert calls == {"_hold_targets": holds, "plant_step": 1200}


# The random policy's seed, also its DR seed, is the first from 0 whose episode has at
# least 3 nonzero, unsaturated stance swing drives in most steps, where the drive sum's
# order shows: seed 2 has them in 1195 of 1200 steps, seeds 0 and 1 in none. The trot
# has at most 2 in any step.
@pytest.mark.parametrize("runtime, f_update, seed", [
    (ScriptedGaitController(0.08), 120.0, 9),
    (PolicyRuntime(random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), 2)), 30.0, 2),
], ids=["scripted-trot", "random-policy"])
def test_plant_episode_matches_numpy_reference(monkeypatch, runtime, f_update, seed):
    """Every step of a 1200-step run_episode under DR, in bits, against the
    numpy reference chained on its own states and fed the unclamped held action."""
    held, steps = [], []

    def hold(action, dr):
        held.append(action)
        return _hold_targets(action, dr)

    def step(s, targets, params):
        steps.append((plant_step(s, targets, params), held[-1]))
        return steps[-1][0]

    monkeypatch.setattr(harness, "_hold_targets", hold)
    monkeypatch.setattr(harness, "plant_step", step)
    result = run_episode(runtime, SimConfig(f_update_hz=f_update, seed=seed), DRConfig(),
                         (0.08, 0.0))
    assert len(steps) == len(result.rows) == 1200
    assert len(held) == result.inference_count
    dr = sample_dr(seed)
    ref_params = _oracle_params(_apply_dr_to_params(PlantParams(), dr))
    ref = PlantState()
    for (got, action), row in zip(steps, result.rows):
        want = plant_step_numpy(ref, action, DT, ref_params, dr)
        _assert_same_state(got, want)
        ref = _state(**want)
        assert _bits(row[4]) == _bits(reward_step_numpy(ref, (0.08, 0.0), DT)[0])


def test_plant_and_reward_much_faster_than_numpy_reference():
    params, dr = PlantParams(), DRPerturbation()
    ref_params = _oracle_params(params)
    targets = np.random.default_rng(2).uniform(-1.5, 1.5, size=(2000, 8))
    held = targets.tolist()  # each form takes the targets as run_episode holds them

    def steps(rows, plant, reward):
        s = PlantState()
        for row in rows:
            s = plant(s, row)
            reward(s)

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    new_times, ref_times = [], []
    for _ in range(5):  # interleaved, so a change in host speed hits both alike
        new_times.append(timed(lambda: steps(
            held, lambda s, t: plant_step(s, _hold_targets(t, dr), params),
            lambda s: reward_step(s, (0.1, 0.0)))))
        ref_times.append(timed(lambda: steps(
            targets, lambda s, t: PlantState(**plant_step_numpy(s, t, DT, ref_params, dr)),
            lambda s: reward_step_numpy(s, (0.1, 0.0), DT))))
    new, ref = min(new_times), min(ref_times)
    assert ref >= 2 * new, f"2000 steps: {new:.4f} s, numpy reference {ref:.4f} s"


def test_air_timers_track_contact():
    params = PlantParams()
    s = _state(q=(0.1,) + (0.0,) * 7)  # leg 0 lift joint above ground: airborne
    up = plant_step(s, _hold_targets(s.q, DRPerturbation()), params)
    assert not up.contact[0]
    assert up.t_air[0] == pytest.approx(DT)
    down = plant_step(up, _hold_targets([-0.5] * 8, DRPerturbation()), params)
    assert down.contact[0]
    assert down.just_landed[0]


@pytest.mark.parametrize("legs", [(1, -1, 1, -1), (1, 1, -1, -1)], ids=["roll", "pitch"])
def test_attitude_stays_small_under_full_range_lift(legs):
    """Roll and pitch stay near 0.0378 x the lift-target range: below 0.1 rad
    for lift targets switched between the joint limits at any period, with
    the stiffest randomized joint servo and 5-sigma dof offsets."""
    dr = DRPerturbation(dof_lower=-0.05, dof_upper=0.05)
    for params in (PlantParams(), PlantParams(tau_joint=0.02 / 1.5)):
        for half_period in (1, 4, 16, 60, 240):
            s, peak = PlantState(), 0.0
            for step in range(1200):
                level = Q_LIMIT if (step // half_period) % 2 == 0 else -Q_LIMIT
                targets = [0.0] * 8
                targets[0::2] = [sign * level for sign in legs]
                s = plant_step(s, _hold_targets(targets, dr), params)
                peak = max(peak, abs(s.att[0]), abs(s.att[1]))
            assert peak < 0.1, (params, half_period, peak)


def test_build_observation_slots():
    # a distinct value in every slot; the previous action's eighth entry is left out
    s = _state(v=(0.11, -0.12, 0.13), w=(0.21, -0.22, 0.23), att=(0.2, -0.3),
               q=0.31 + 0.01 * np.arange(8))
    prev_action = (-0.41 - 0.01 * np.arange(8)).tolist()
    roll, pitch = s.att
    gravity = (-math.sin(pitch), math.sin(roll), -math.cos(pitch) * math.cos(roll) - 0.05)
    want = np.array([*s.v, *s.w, *gravity, *s.q, *prev_action[:7]]).astype(np.float32)
    assert len(set(want.tolist())) == 24
    obs = _build_observation(s, prev_action, DRPerturbation(gravity=0.05))
    assert obs.shape == (24,) and obs.dtype == np.float32
    np.testing.assert_array_equal(obs.view(np.uint32), want.view(np.uint32))
    dr = DRPerturbation(gravity=0.05, observation=0.003)
    noisy = _build_observation(s, prev_action, dr)
    np.testing.assert_array_equal(noisy.view(np.uint32),
                                  (want + np.float32(0.003)).view(np.uint32))
    # the noise operand: read-only 0-d float32, rebuilt when a copy changes the noise
    for d, noise in ((dr, 0.003), (replace(dr, observation=-0.007), -0.007)):
        noise_0d = d.observation_0d
        assert noise_0d.shape == () and noise_0d.dtype == np.float32
        assert noise_0d.view(np.uint32) == np.float32(noise).view(np.uint32)
        with pytest.raises(ValueError, match="read-only"):
            noise_0d[...] = 0


def test_episode_zoh_degenerate_matches_per_step():
    ctrl = ScriptedGaitController(0.08)
    full = run_episode(ctrl, SimConfig(f_update_hz=120.0, seed=0), None, (0.08, 0.0))
    assert full.inference_count == full.steps == 1200
    again = run_episode(ctrl, SimConfig(f_update_hz=120.0, seed=0), None, (0.08, 0.0))
    assert full.rows == again.rows


def test_episode_inference_count_scales():
    ctrl = ScriptedGaitController(0.08)
    half = run_episode(ctrl, SimConfig(f_update_hz=60.0, seed=0), None, (0.08, 0.0))
    assert half.steps == 1200
    assert half.inference_count == 600


@pytest.mark.parametrize("f_update, inferences", [(100.0, 1000), (50.0, 500), (45.0, 450),
                                                   (7.0, 70), (40.0, 400)])
def test_episode_update_rate_is_exact(f_update, inferences):
    # rates that do not divide the 120 Hz step rate still run at their own mean rate
    ctrl = ScriptedGaitController(0.08)
    res = run_episode(ctrl, SimConfig(f_update_hz=f_update, seed=0), None, (0.08, 0.0))
    assert res.steps == 1200
    assert res.inference_count == inferences


class _NonFiniteAfter:
    """Zero targets until t passes 0.09 s, then one joint target `bad`."""

    def __init__(self, bad):
        self.bad = bad

    def act(self, obs, t):
        action = np.zeros(8)
        if t > 0.09:
            action[3] = self.bad
        return action


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, -1e39])
def test_episode_rejects_non_finite_action(bad):
    # at 30 Hz update 3 runs at step 12, t = 0.1 s; a value past the float32
    # range would become inf in the next observation
    sim = SimConfig(f_update_hz=30.0, seed=0)
    with pytest.raises(DataError, match=r"non-finite or float32-overflowing action "
                                        r"at update 3 \(t=0\.1 s\)"):
        run_episode(_NonFiniteAfter(bad), sim, None, (0.05, 0.0))
    res = run_episode(_NonFiniteAfter(5.0), sim, None, (0.05, 0.0))  # a finite one is held
    assert res.steps == 1200 and res.inference_count == 300


class _Shaped:
    """Zero actions of one shape; records the time of each update."""

    def __init__(self, shape):
        self.shape, self.times = shape, []

    def act(self, obs, t):
        self.times.append(t)
        return np.zeros(self.shape)


@pytest.mark.parametrize("shape", [(2, 4), (1, 8), (7,), (9,)])
def test_episode_rejects_action_of_wrong_shape(shape):
    # eight values in the wrong shape are rejected too, at the first update
    runtime = _Shaped(shape)
    with pytest.raises(DataError, match=re.escape(f"runtime produced action shape {shape}")):
        run_episode(runtime, SimConfig(f_update_hz=30.0), None, (0.05, 0.0))
    assert runtime.times == [0.0]


@pytest.mark.parametrize("cmd", [(0.1,), (0.1, 0.0, 5.0), (), ((0.1, 0.0),), 0.1,
                                 np.zeros((1, 2))],
                         ids=["one", "three", "empty", "nested", "scalar", "row-matrix"])
def test_episode_rejects_command_that_is_not_two_values(cmd):
    # reward_step reads (vx, wz); a short command failed at step 0, a long
    # one ran with the extra values ignored
    runtime = _Shaped((8,))
    with pytest.raises(DataError, match=r"velocity command must be two values \(vx, wz\)"):
        run_episode(runtime, SimConfig(f_update_hz=30.0), None, cmd)
    assert runtime.times == []


def test_episode_takes_any_finite_two_value_command():
    rows = [run_episode(_Shaped((8,)), SimConfig(f_update_hz=30.0), None, cmd).rows
            for cmd in ((0.1, 0.0), [0.1, 0.0], np.array([0.1, 0.0]))]
    assert rows[0] == rows[1] == rows[2]
    with pytest.raises(DataError, match="velocity command must be finite"):
        run_episode(_Shaped((8,)), SimConfig(f_update_hz=30.0), None, (math.nan, 0.0))


@pytest.mark.parametrize("f_update", [120.0, 60.0, 45.0, 30.0, 13.3, 7.0, 1.0, 0.1, 1.4, 11.2])
def test_updates_run_at_the_steps_of_the_floor_schedule(f_update):
    # the floor schedule: update k runs at the first step where
    # floor(step * f_update / SIM_HZ) reaches k; at 1.4 and 11.2 Hz, step * (f_update / SIM_HZ)
    # rounds below an integer that this order reaches (steps 600 and 75)
    steps = []
    for step in range(1200):
        if math.floor(step * f_update / SIM_HZ) >= len(steps):
            steps.append(step)
    runtime = _Shaped((8,))
    res = run_episode(runtime, SimConfig(f_update_hz=f_update), None, (0.05, 0.0))
    assert runtime.times == [step * DT for step in steps]
    assert res.inference_count == len(steps)


def test_sim_config_rejects_negative_seed():
    with pytest.raises(DataError, match="seed"):
        SimConfig(seed=-1)
    assert SimConfig(seed=0).seed == 0
    # one rule for every seed: SimConfig, sample_dr and random_policy
    for make in (lambda seed: SimConfig(seed=seed), sample_dr,
                 lambda seed: random_policy(PolicySpec((6, 4, 2)), seed)):
        for seed in (1.5, math.nan, 2.0, "3", None):
            with pytest.raises(DataError, match="seed must be an integer"):
                make(seed)
        for seed in (-1, np.int64(-2)):
            with pytest.raises(DataError, match="seed must be >= 0"):
                make(seed)
    # numpy ints are indexes: the same draw as the equal int, held as an int
    assert sample_dr(np.int64(5)) == sample_dr(np.uint8(5)) == sample_dr(5)
    assert type(SimConfig(seed=np.int64(7)).seed) is int


@pytest.mark.parametrize("make", [
    lambda: PlantParams(tau_joint=0.0),
    lambda: PlantParams(tau_vel=-0.1),
])
def test_plant_time_constants_must_be_positive(make):
    with pytest.raises(DataError, match="time constants"):
        make()


@pytest.mark.parametrize("name", ["mass", "friction", "damping", "stiffness"])
def test_dr_scaling_factors_must_be_positive(name):
    # a factor that is not > 0 is rejected, not clamped to a tiny positive one
    for bad in (0.0, -0.0, -1.0, -1e-300):
        with pytest.raises(DataError, match=f"DR scaling factors must be > 0, got .*{name} {bad}"):
            DRPerturbation(**{name: bad})
    assert getattr(DRPerturbation(**{name: 1e-300}), name) == 1e-300


def test_sim_config_validation():
    with pytest.raises(DataError):
        SimConfig(f_update_hz=240.0)
    with pytest.raises(DataError):
        SimConfig(f_update_hz=0.0)


@pytest.mark.parametrize("make", [
    lambda: SimConfig(f_update_hz=float("inf")),
    lambda: SimConfig(f_update_hz=float("nan")),
    lambda: PlantParams(tau_joint=float("-inf")),
    lambda: PlantParams(tau_vel=float("inf")),
    lambda: PlantParams(k_vel=float("nan")),
    lambda: DRPerturbation(dof_lower=float("nan")),
    lambda: DRPerturbation(mass=float("inf")),
])
def test_constructors_reject_non_finite(make):
    with pytest.raises(DataError, match="finite"):
        make()


def _policy_runtimes(seed=0):
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), seed,
                      weight_scale=0.1)
    calib = np.random.default_rng(1).normal(scale=0.5, size=(64, 24))
    qp = quantize_policy(p, QuantScheme.PER_FEATURE, calib)
    return PolicyRuntime(p), QuantizedRuntime(qp)


def test_codec_runtime_transparent_fp32():
    rt, _ = _policy_runtimes()
    sim = SimConfig(f_update_hz=60.0, seed=3)
    direct = run_episode(rt, sim, None, (0.05, 0.0))
    routed = run_episode(CodecRuntime(PolicyRuntime(rt.policy), "fp32"),
                         sim, None, (0.05, 0.0))
    assert direct.rows == routed.rows


def test_codec_runtime_int8_matches_local_kernel():
    _, qrt = _policy_runtimes()
    sim = SimConfig(f_update_hz=60.0, seed=3)
    direct = run_episode(qrt, sim, None, (0.05, 0.0))
    routed = run_episode(CodecRuntime(QuantizedRuntime(qrt.qp), "int8"),
                         sim, None, (0.05, 0.0))
    assert direct.rows == routed.rows


def test_codec_runtime_rejects_int8_for_fp32_runtime():
    rt, _ = _policy_runtimes()
    with pytest.raises(DataError):
        CodecRuntime(rt, "int8")


@pytest.mark.parametrize("dims", [(24, 16, 6), (20, 16, 8), (24, 16, 9)])
def test_codec_runtime_rejects_a_model_the_wire_cannot_carry(dims):
    # the wire carries 24 observations and 8 actions; the check runs once, when built
    p = random_policy(PolicySpec(dims, leaky_relu()), 0)
    qp = quantize_policy(p, QuantScheme.PER_FEATURE,
                         np.random.default_rng(1).normal(size=(64, dims[0])))
    message = (f"OBS_DIM=24 observations in and ACT_DIM=8 actions out; "
               f"the model's layer widths are {list(dims)}")
    for runtime, precision in ((PolicyRuntime(p), "fp32"), (QuantizedRuntime(qp), "int8")):
        with pytest.raises(DataError, match=re.escape(message)):
            CodecRuntime(runtime, precision)


def test_randomized_episode_deterministic_per_seed():
    ctrl = ScriptedGaitController(0.08)
    a = run_episode(ctrl, SimConfig(seed=4), DRConfig(), (0.08, 0.0))
    b = run_episode(ctrl, SimConfig(seed=4), DRConfig(), (0.08, 0.0))
    c = run_episode(ctrl, SimConfig(seed=5), DRConfig(), (0.08, 0.0))
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_csv_output(tmp_path):
    ctrl = ScriptedGaitController(0.08)
    res = run_episode(ctrl, SimConfig(f_update_hz=30.0, seed=0), None, (0.08, 0.0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,vx,vy,wz,reward_total,reward_lin,reward_ang,pen_lin,pen_ang,reward_air"
    assert len(lines) == res.steps + 1
