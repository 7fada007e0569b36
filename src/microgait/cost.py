"""Cycle and power models linking inference cost, clock, and update rate.

Cycles per update decompose into MAC, requantization, activation, and fixed
overhead terms; per-feature quantization adds an extra parameter-load term
per neuron output. Active CPU power is modeled as linear in clock frequency,
which maps a power budget to a maximum feasible control-update frequency.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DataError, DomainError
from .inputs import check_finite, read_key_values
from .policy import PolicySpec
from .quant import QuantScheme, expected_counters

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


def _design_row(spec: PolicySpec, scheme: QuantScheme) -> list[float]:
    """The counts per update that the coefficients weight, in COEFF_NAMES order."""
    ops = expected_counters(spec, scheme)
    return [float(ops.macs), float(ops.requants), float(ops.activations),
            float(ops.param_loads), 1.0]


def cycles_decomposed(c: CycleCoeffs, spec: PolicySpec, scheme: QuantScheme) -> float:
    """Modeled cycles per update for a spec under a quantization scheme.

    The terms are added left to right in COEFF_NAMES order from +0.0, so the
    result does not depend on the Python version (sum() compensates from 3.12 on).
    """
    total = 0.0
    for k, n in zip(astuple(c), _design_row(spec, scheme)):
        total += k * n
    return _finite_result("cycles per update", total)


def measured_cycles(f_clk_hz: float, f_update_hz: float) -> float:
    """End-to-end cycles per update observed as f_clk / f_update."""
    check_finite("clock and update rate", (f_clk_hz, f_update_hz))
    if not (f_clk_hz > f_update_hz > 0):
        raise DataError("need f_clk > f_update > 0")
    return _finite_result("measured cycles per update", f_clk_hz / f_update_hz)


def _check_cycles(cycles: float) -> None:
    """The one domain check, and wording, for a finite cycles per update; the CLI calls it too."""
    if cycles <= 0:
        raise DomainError(f"cycles per update must be > 0, got {float(cycles)}")


def _finite_result(what: str, x: float) -> float:
    """x, or a DomainError when finite inputs take the model's result out of the float range."""
    if not np.isfinite(x):
        raise DomainError(f"{what} is not finite for these inputs")
    return x


def max_update_rate(f_clk_hz: float, cycles: float) -> float:
    check_finite("clock and cycles/update", (f_clk_hz, cycles))
    _check_cycles(cycles)
    if f_clk_hz <= 0:
        raise DomainError(f"clock must be > 0, got {f_clk_hz}")
    return _finite_result("update rate", f_clk_hz / cycles)


def max_clock(p: PowerParams) -> float:
    vi = p.v_volts * p.i_per_mhz_amps  # 0 when the product underflows
    return _finite_result("clock at the power budget", 1e6 * p.p_max_watts / vi if vi else np.inf)


def feasible_update_rate(p: PowerParams, cycles: float) -> float:
    return max_update_rate(max_clock(p), cycles)


def required_clock(cycles: float, f_target_hz: float) -> float:
    check_finite("cycles/update and target rate", (cycles, f_target_hz))
    _check_cycles(cycles)
    if f_target_hz < 0:
        raise DomainError(f"target rate must be >= 0, got {f_target_hz}")
    return _finite_result("required clock", cycles * f_target_hz)


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
    from scipy.optimize import nnls  # loaded here: no other path of the package needs scipy
    coeffs, residual = nnls(a, y)
    return CycleCoeffs(*coeffs), float(residual)


POWER_KEYS = ("v_volts", "i_per_mhz_amps", "p_max_watts")  # PowerParams' fields, in order
BUDGET_KEYS = ("f_clk_hz", *POWER_KEYS, "cycles_per_update")


def load_budget(path) -> tuple[float | None, float | None, PowerParams | None]:
    """Read a key = number budget file as (cycles_per_update, f_clk_hz, power);
    every key is optional, and an absent part is None. The power keys come together."""
    values = read_key_values(path, BUDGET_KEYS, ())
    missing = [k for k in POWER_KEYS if k not in values]
    if 0 < len(missing) < len(POWER_KEYS):
        raise DataError(f"{path}: power budget missing keys: {', '.join(missing)}")
    return (values.get("cycles_per_update"), values.get("f_clk_hz"),
            None if missing else PowerParams(*(values[k] for k in POWER_KEYS)))
