"""Cycle and power models linking inference cost, clock, and update rate.

Cycles per update decompose into MAC, requantization, activation, and fixed
overhead terms; per-feature quantization adds an extra parameter-load term
per neuron output. Active CPU power is modeled as linear in clock frequency,
which maps a power budget to a maximum feasible control-update frequency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import DataError, DomainError
from .inputs import check_finite, read_key_values
from .policy import PolicySpec, mac_count, activation_count, neuron_count
from .quant import QuantScheme

COEFF_NAMES = ("c_mac", "c_q", "c_phi", "c_load", "c0")


@dataclass(frozen=True)
class CycleCoeffs:
    """Cycles per operation (c0 is cycles per update of fixed overhead)."""

    c_mac: float
    c_q: float
    c_phi: float
    c_load: float = 0.0
    c0: float = 0.0

    def __post_init__(self):
        for name in COEFF_NAMES:
            check_finite(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")


@dataclass(frozen=True)
class PowerParams:
    v_volts: float
    i_per_mhz_amps: float   # active current per MHz at v_volts
    p_max_watts: float

    def __post_init__(self):
        check_finite("electrical parameters", (self.v_volts, self.i_per_mhz_amps, self.p_max_watts))
        if not (self.v_volts > 0 and self.i_per_mhz_amps > 0 and self.p_max_watts > 0):
            raise DataError("electrical parameters must all be > 0")


@dataclass(frozen=True)
class RateMeasurement:
    f_clk_hz: float
    f_update_hz: float
    scheme: QuantScheme
    spec: PolicySpec

    def __post_init__(self):
        if not (self.f_clk_hz > self.f_update_hz > 0):
            raise DataError("need f_clk > f_update > 0")


def cycles_decomposed(c: CycleCoeffs, spec: PolicySpec, scheme: QuantScheme) -> float:
    """Modeled cycles per update for a spec under a quantization scheme."""
    cycles = (c.c_mac * mac_count(spec)
              + c.c_q * neuron_count(spec)
              + c.c_phi * activation_count(spec)
              + c.c0)
    if scheme is QuantScheme.PER_FEATURE:
        cycles += c.c_load * neuron_count(spec)
    return cycles


def measured_cycles(m: RateMeasurement) -> float:
    """End-to-end cycles per update observed as f_clk / f_update."""
    return m.f_clk_hz / m.f_update_hz


def max_update_rate(f_clk_hz: float, cycles: float) -> float:
    check_finite("clock and cycles/update", (f_clk_hz, cycles))
    if cycles <= 0:
        raise DomainError(f"cycles/update must be > 0, got {cycles}")
    return f_clk_hz / cycles


def max_clock(p: PowerParams) -> float:
    return 1e6 * p.p_max_watts / (p.v_volts * p.i_per_mhz_amps)


def feasible_update_rate(p: PowerParams, cycles: float) -> float:
    return max_update_rate(max_clock(p), cycles)


def required_clock(cycles: float, f_target_hz: float) -> float:
    check_finite("cycles/update and target rate", (cycles, f_target_hz))
    if cycles <= 0:
        raise DomainError(f"cycles/update must be > 0, got {cycles}")
    if f_target_hz < 0:
        raise DomainError(f"target rate must be >= 0, got {f_target_hz}")
    return cycles * f_target_hz


def _design_row(spec: PolicySpec, scheme: QuantScheme) -> list[float]:
    n = neuron_count(spec)
    return [float(mac_count(spec)), float(n), float(activation_count(spec)),
            float(n if scheme is QuantScheme.PER_FEATURE else 0), 1.0]


def fit_coeffs(observations: list[tuple[PolicySpec, QuantScheme, float]]
               ) -> tuple[CycleCoeffs, float]:
    """Nonnegative least squares fit of the cycle decomposition.

    Returns the fitted coefficients and the residual 2-norm. Raises DataError
    when the design matrix cannot identify all five coefficients.
    """
    if len(observations) < len(COEFF_NAMES):
        raise DataError(
            f"need at least {len(COEFF_NAMES)} observations, got {len(observations)}")
    a = np.array([_design_row(spec, scheme) for spec, scheme, _ in observations])
    y = np.array([float(c) for _, _, c in observations])
    rank = np.linalg.matrix_rank(a)
    if rank < len(COEFF_NAMES):
        # name the coefficients with weight in the design null space
        _, _, vt = np.linalg.svd(a)
        null = vt[rank:]
        bad = [COEFF_NAMES[j] for j in range(len(COEFF_NAMES))
               if np.abs(null[:, j]).max(initial=0) > 1e-9]
        raise DataError(f"design matrix is rank-deficient; unidentifiable: {', '.join(bad)}")
    coeffs, residual = nnls(a, y)
    return CycleCoeffs(*coeffs), float(residual)


BUDGET_KEYS = ("f_clk_hz", "v_volts", "i_per_mhz_amps", "p_max_watts", "cycles_per_update")


def load_budget(path) -> dict[str, float]:
    """Read a key = number budget file; every key is optional."""
    return read_key_values(path, BUDGET_KEYS, ())
