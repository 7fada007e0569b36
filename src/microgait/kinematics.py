"""Planar leg inverse kinematics: joint angles to prismatic motor targets.

Each leg has two orthogonal prismatic motors driving a two-linkage leg; the
controller emits target angles (theta_x, theta_y) per leg which are mapped to
motor positions on the host in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, DomainError
from .inputs import check_finite, read_key_values


@dataclass(frozen=True)
class LegGeometry:
    l_x: float
    l_y: float
    x_motor_ref: float = 0.0
    y_motor_ref: float = 0.0

    def __post_init__(self):
        check_finite("leg geometry", (self.l_x, self.l_y, self.x_motor_ref, self.y_motor_ref))
        if not (self.l_x > 0 and self.l_y > 0):
            raise DataError(f"linkage lengths must be > 0, got {self.l_x}, {self.l_y}")


@dataclass(frozen=True)
class IkSolution:
    theta_x: float
    theta_y: float
    x_motor: float
    y_motor: float


def _checked_asin(arg: float, which: str) -> float:
    if abs(arg) > 1.0:
        raise DomainError(
            f"end effector outside workspace: {which} arcsine argument {arg:.6g} "
            "outside [-1, 1]")
    return math.asin(arg)


def ik(g: LegGeometry, x_end: float, y_end: float) -> IkSolution:
    """Solve the leg's angle and motor-position equations (principal arcsine branch)."""
    check_finite("end effector", (x_end, y_end))
    theta_y = _checked_asin((x_end - g.x_motor_ref) / g.l_y, "swing (theta_y)")
    theta_x = _checked_asin(
        (y_end + (0.5 * g.l_y * math.cos(theta_y) - g.y_motor_ref)) / g.l_x,
        "lift (theta_x)")
    x_motor = x_end - 0.5 * g.l_y * math.sin(theta_y) - g.l_x * math.cos(theta_x)
    y_motor = y_end + g.l_y * math.cos(theta_y)
    return IkSolution(theta_x, theta_y, x_motor, y_motor)


GEOMETRY_KEYS = ("l_x", "l_y", "x_motor_ref", "y_motor_ref")


def load_geometry(path) -> LegGeometry:
    """Read a key = number geometry file for one leg; l_x and l_y are required."""
    return LegGeometry(**read_key_values(path, GEOMETRY_KEYS, ("l_x", "l_y")))
