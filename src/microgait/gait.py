"""Resource-aware gait selection over reward-ratio-vs-update-frequency curves.

The bundled curve dataset (data/gait_curves.csv) is synthetic: real measured
curves for a trained controller are not published, so the shipped table is
constrained only to reproduce the documented qualitative behavior (trot best
near 48 Hz, intermediate saturating near 60 Hz, gallop near 85 Hz).
"""
from __future__ import annotations

import csv
import enum
import importlib.resources
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DataError, DomainError
from .inputs import check_finite, read_text


class GaitRegime(enum.Enum):
    """Slowest first: select_gait scans in this order, so a tie goes to the slower, stabler gait."""

    TROT = "trot"
    INTERMEDIATE = "intermediate"
    GALLOP = "gallop"


@dataclass(frozen=True)
class RewardCurve:
    """Piecewise-linear reward ratio vs update frequency, clamped at the ends."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise DataError("reward curve needs at least 2 points")
        check_finite("reward curve points", self.points)
        freqs = [f for f, _ in self.points]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise DataError("curve frequencies must be strictly increasing")
        if any(r < 0 for _, r in self.points):
            raise DataError("reward ratios must be >= 0")


def reward_at(curve: RewardCurve, f_update_hz: float) -> float:
    """Reward ratio at an update rate >= 0; rates outside the curve take its end values."""
    check_finite("update rate", f_update_hz)
    if f_update_hz < 0:
        raise DomainError(f"update rate must be >= 0, got {f_update_hz}")
    pts = curve.points
    if f_update_hz <= pts[0][0]:
        return pts[0][1]
    if f_update_hz >= pts[-1][0]:
        return pts[-1][1]
    i = bisect_right([f for f, _ in pts], f_update_hz) - 1
    (f0, r0), (f1, r1) = pts[i], pts[i + 1]
    t = (f_update_hz - f0) / (f1 - f0)
    return r0 + t * (r1 - r0)


@dataclass(frozen=True)
class GaitTable:
    curves: dict[GaitRegime, RewardCurve]

    def __post_init__(self):
        missing = [g.value for g in GaitRegime if g not in self.curves]
        if missing:
            raise DataError(f"gait table missing curves for: {', '.join(missing)}")


def select_gait(table: GaitTable, f_update_hz: float) -> tuple[GaitRegime, float]:
    """Regime maximizing reward ratio at the given update frequency."""
    best, best_r = None, -1.0
    for g in GaitRegime:
        r = reward_at(table.curves[g], f_update_hz)
        if r > best_r:
            best, best_r = g, r
    return best, best_r


def load_gait_table(path=None) -> GaitTable:
    """Load gait,f_update_hz,reward_ratio CSV; defaults to the bundled dataset."""
    if path is None:
        ref = importlib.resources.files("microgait.data").joinpath("gait_curves.csv")
        text = ref.read_text()
    else:
        text = read_text(path)
    rows = list(csv.DictReader(text.splitlines()))
    if not rows or set(rows[0]) != {"gait", "f_update_hz", "reward_ratio"}:
        raise DataError("expected CSV header gait,f_update_hz,reward_ratio")
    by_gait: dict[GaitRegime, list[tuple[float, float]]] = {}
    for i, row in enumerate(rows, 2):
        try:
            gait = GaitRegime(row["gait"].strip().lower())
        except ValueError:
            raise DataError(f"row {i}: unknown gait {row['gait']!r}") from None
        try:
            f = float(row["f_update_hz"])
            r = float(row["reward_ratio"])
        except (TypeError, ValueError):
            raise DataError(f"row {i}: bad numeric value") from None
        by_gait.setdefault(gait, []).append((f, r))
    return GaitTable({g: RewardCurve(tuple(pts)) for g, pts in by_gait.items()})
