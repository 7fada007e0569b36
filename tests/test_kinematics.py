import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from microgait.errors import DataError, DomainError
from microgait.kinematics import LegGeometry, ik, load_geometry
from oracles import action_to_motor_targets, fk_oracle

UNIT = LegGeometry(l_x=1.0, l_y=1.0)


def test_geometry_validation():
    with pytest.raises(DataError):
        LegGeometry(l_x=0.0, l_y=1.0)
    with pytest.raises(DataError):
        LegGeometry(l_x=1.0, l_y=-2.0)
    with pytest.raises(DataError, match="finite"):
        LegGeometry(l_x=math.inf, l_y=1.0)
    with pytest.raises(DataError, match="finite"):
        LegGeometry(l_x=1.0, l_y=1.0, x_motor_ref=math.nan)


def test_hand_checked_solution():
    sol = ik(UNIT, 0.0, 0.0)
    assert sol.theta_y == 0.0
    assert sol.theta_x == pytest.approx(math.pi / 6)
    assert sol.x_motor == pytest.approx(-math.cos(math.pi / 6))
    assert sol.y_motor == pytest.approx(1.0)


def test_swing_angle_depends_only_on_x():
    for y in (-0.3, 0.0, 0.2):
        assert ik(UNIT, 0.4, y).theta_y == math.asin(0.4)


def test_workspace_errors_name_the_equation():
    with pytest.raises(DomainError, match="swing"):
        ik(UNIT, 1.5, 0.0)
    with pytest.raises(DomainError, match="lift"):
        ik(UNIT, 0.0, 2.0)


def test_non_finite_end_effector_is_data_error():
    with pytest.raises(DataError, match="finite"):
        ik(UNIT, math.nan, 0.0)


def test_boundary_is_inclusive():
    ik(UNIT, 1.0, 0.0)  # |asin arg| = 1 exactly: accepted
    with pytest.raises(DomainError):
        ik(UNIT, 1.0 + 1e-12, 0.0)


U = 2.0 ** -53  # float64 unit roundoff
# Rounding budget of one chain of float operations, in U times the chain's largest
# magnitude. A correctly rounded operation errs by at most U times its result, and
# libm's sin, cos and asin by at most 1 ulp (2U). Summed over fk_oracle then ik, the
# swing chain to asin's argument (times l_y) counts at most 6 U (|xr| + l_y), the lift
# chain (times l_x) 7 U (|yr| + l_x + l_y), and the closed-form and ik motor targets
# together 11 U (|ref| + l_x + l_y). K, fixed before the test ran, stays above the
# largest count, with room for the higher-order terms a first-order bound drops.
K = 16


def _round_trip_error_bounds(g, theta_x, theta_y):
    """First-order bounds on ik's errors after fk_oracle at (theta_x, theta_y):
    (theta_x, theta_y, x_motor, y_motor). asin multiplies its argument's error by
    1 / |cos theta|, and theta_y's error reaches the lift argument through
    0.5 l_y sin(theta_y) / l_x and the motor targets through the motor equations."""
    err_y = K * U * (abs(g.x_motor_ref) + g.l_y) / g.l_y / abs(math.cos(theta_y)) + K * U
    lift_arg = (K * U * (abs(g.y_motor_ref) + g.l_x + g.l_y)
                + 0.5 * g.l_y * abs(math.sin(theta_y)) * err_y) / g.l_x
    err_x = lift_arg / abs(math.cos(theta_x)) + K * U
    err_xm = (0.5 * g.l_y * abs(math.cos(theta_y)) * err_y + g.l_x * abs(math.sin(theta_x)) * err_x
              + K * U * (abs(g.x_motor_ref) + g.l_x + g.l_y))
    err_ym = g.l_y * abs(math.sin(theta_y)) * err_y + K * U * (abs(g.y_motor_ref) + g.l_x + g.l_y)
    return err_x, err_y, err_xm, err_ym


# stay 1e-3 off the +-pi/2 branch ends: asin conditioning diverges there
@given(st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
       st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
       st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
# at the range's edge, where theta_x came back 1.4455e-9 off
@example(math.pi / 2 - 1e-3, math.pi / 2 - 1e-3, 0.0625, 1.75, 0.0, 0.0)
def test_round_trip_property(theta_x, theta_y, l_x, l_y, xr, yr):
    g = LegGeometry(l_x=l_x, l_y=l_y, x_motor_ref=xr, y_motor_ref=yr)
    sol = ik(g, *fk_oracle(g, theta_x, theta_y))
    err_x, err_y, err_xm, err_ym = _round_trip_error_bounds(g, theta_x, theta_y)
    assert abs(sol.theta_x - theta_x) <= err_x
    assert abs(sol.theta_y - theta_y) <= err_y
    # the closed-form motor targets agree with ik on the principal branch
    [(x_m, y_m)] = action_to_motor_targets(np.array([theta_x, theta_y]), [g])
    assert abs(x_m - sol.x_motor) <= err_xm
    assert abs(y_m - sol.y_motor) <= err_ym


def test_action_to_motor_targets():
    geoms = [UNIT] * 4
    action = np.zeros(8)
    targets = action_to_motor_targets(action, geoms)
    assert len(targets) == 4
    sol = ik(UNIT, *fk_oracle(UNIT, 0.0, 0.0))
    for x_m, y_m in targets:
        assert x_m == pytest.approx(sol.x_motor)
        assert y_m == pytest.approx(sol.y_motor)
    with pytest.raises(DataError):
        action_to_motor_targets(np.zeros(7), geoms)


def test_motor_targets_at_and_beyond_branch_ends():
    # at theta_x = -pi/2 an arcsine inversion (ik of fk_oracle) rounds its argument past -1
    g = LegGeometry(l_x=0.1, l_y=0.1)
    [(x_m, y_m)] = action_to_motor_targets(np.array([-math.pi / 2, 0.0]), [g])
    assert x_m == pytest.approx(0.0, abs=1e-15)
    assert y_m == pytest.approx(-0.05)
    # beyond +-pi/2 the angle is kept, not folded onto the principal branch
    [(x_m, y_m)] = action_to_motor_targets(np.array([math.pi, 0.0]), [UNIT])
    assert (x_m, y_m) == pytest.approx((1.0, 0.5))
    with pytest.raises(DataError, match="finite"):
        action_to_motor_targets(np.array([math.inf, 0.0]), [UNIT])


def test_load_geometry(tmp_path):
    path = tmp_path / "leg.txt"
    path.write_text("l_x = 0.02\nl_y = 0.015  # swing link\nx_motor_ref = 0.001\n")
    g = load_geometry(path)
    assert (g.l_x, g.l_y, g.x_motor_ref, g.y_motor_ref) == (0.02, 0.015, 0.001, 0.0)


def test_load_geometry_errors(tmp_path):
    path = tmp_path / "leg.txt"
    path.write_text("l_x=0.02\n")
    with pytest.raises(DataError, match="l_y"):
        load_geometry(path)
    path.write_text("l_z=0.02\n")
    with pytest.raises(DataError):
        load_geometry(path)
    path.write_text("l_x=0.02\nl_y=0.015\ny_motor_ref=nan\n")
    with pytest.raises(DataError, match="leg.txt:3"):
        load_geometry(path)
