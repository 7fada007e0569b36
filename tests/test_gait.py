import numpy as np
import pytest

from microgait.cost import PowerParams, feasible_update_rate
from microgait.errors import DataError, DomainError
from microgait.gait import (
    GaitRegime,
    GaitTable,
    RewardCurve,
    load_gait_table,
    reward_at,
    select_gait,
)


@pytest.fixture(scope="module")
def table():
    return load_gait_table()


def test_curve_validation():
    with pytest.raises(DataError):
        RewardCurve(((0.0, 1.0),))
    with pytest.raises(DataError):
        RewardCurve(((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(DataError):
        RewardCurve(((0.0, -0.1), (1.0, 0.5)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite"):
            RewardCurve(((0.0, 0.1), (1.0, bad)))
        with pytest.raises(DataError, match="finite"):
            RewardCurve(((0.0, 0.1), (bad, 0.5)))


def test_reward_interpolation_and_clamping():
    curve = RewardCurve(((10.0, 0.2), (20.0, 0.8)))
    assert reward_at(curve, 15.0) == pytest.approx(0.5)
    assert reward_at(curve, 0.0) == 0.2
    assert reward_at(curve, 100.0) == 0.8
    with pytest.raises(DataError, match="finite"):
        reward_at(curve, float("nan"))
    with pytest.raises(DomainError, match=">= 0"):
        reward_at(curve, -5.0)


def test_select_gait_reference_frequency(table):
    regime, reward = select_gait(table, 47.62)
    assert regime is GaitRegime.TROT
    r_trot = reward_at(table.curves[GaitRegime.TROT], 47.62)
    r_int = reward_at(table.curves[GaitRegime.INTERMEDIATE], 47.62)
    r_gal = reward_at(table.curves[GaitRegime.GALLOP], 47.62)
    assert r_trot > r_int > r_gal
    assert reward == r_trot


@pytest.mark.parametrize("f", [90.0, 100.0, 110.0, 120.0, 500.0])
def test_gallop_dominates_fast_rates(table, f):
    assert select_gait(table, f)[0] is GaitRegime.GALLOP


def test_brute_force_oracle_agreement(table):
    rng = np.random.default_rng(0)
    for f in rng.uniform(0.0, 130.0, size=1000):
        regime, reward = select_gait(table, f)
        rewards = {g: reward_at(c, f) for g, c in table.curves.items()}
        assert reward == max(rewards.values())
        assert rewards[regime] == reward


def test_tie_breaks_toward_slower_gait():
    flat = RewardCurve(((0.0, 0.5), (100.0, 0.5)))
    table = GaitTable({g: flat for g in GaitRegime})
    assert select_gait(table, 50.0)[0] is GaitRegime.TROT


def test_select_gait_for_power(table):
    # budget that caps the clock at 10 MHz; ~95 Hz for ~105k cycles/update
    p = PowerParams(1.8, 0.0001, 0.0018)
    f_u = feasible_update_rate(p, 104998.0)
    regime, reward = select_gait(table, f_u)
    assert f_u == pytest.approx(1e7 / 104998)
    assert regime is GaitRegime.GALLOP
    assert reward == select_gait(table, f_u)[1]


def test_load_table_from_csv(tmp_path, table):
    path = tmp_path / "curves.csv"
    path.write_text("gait,f_update_hz,reward_ratio\n"
                    "trot,0,0.5\ntrot,100,0.9\n"
                    "intermediate,0,0.4\nintermediate,100,0.95\n"
                    "gallop,0,0.1\ngallop,100,1.0\n")
    t = load_gait_table(path)
    assert reward_at(t.curves[GaitRegime.TROT], 50.0) == pytest.approx(0.7)


def test_load_table_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("gait,f_update_hz\ntrot,0\n")
    with pytest.raises(DataError):
        load_gait_table(bad)
    bad.write_text("gait,f_update_hz,reward_ratio\npronk,0,0.5\n")
    with pytest.raises(DataError):
        load_gait_table(bad)
    bad.write_text("gait,f_update_hz,reward_ratio\ntrot,zero,0.5\n")
    with pytest.raises(DataError):
        load_gait_table(bad)
    # missing gallop rows
    bad.write_text("gait,f_update_hz,reward_ratio\ntrot,0,0.5\ntrot,10,0.6\n"
                   "intermediate,0,0.4\nintermediate,10,0.5\n")
    with pytest.raises(DataError):
        load_gait_table(bad)
