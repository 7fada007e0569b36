import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from microgait.cost import (
    CycleCoeffs,
    PowerParams,
    cycles_decomposed,
    feasible_update_rate,
    fit_coeffs,
    load_budget,
    max_clock,
    max_update_rate,
    measured_cycles,
    required_clock,
)
from microgait.errors import DataError, DomainError
from microgait.policy import PolicySpec
from microgait.quant import QuantScheme

SPEC = PolicySpec((24, 128, 64, 8))


def test_measured_cycles_reference_points():
    assert measured_cycles(5e6, 47.62) == pytest.approx(104998, abs=1)  # per-feature
    assert measured_cycles(5e6, 52.63) == pytest.approx(95003, abs=1)  # per-tensor


def test_required_clock_reference_points():
    assert 6.25e6 <= required_clock(104998, 60.0) <= 6.30e6
    assert 8.85e6 <= required_clock(104998, 85.0) <= 8.93e6


def test_cycles_decomposed_terms():
    c = CycleCoeffs(c_mac=8.0, c_q=10.0, c_phi=12.0, c_load=3.0, c0=500.0)
    base = 8.0 * 11776 + 10.0 * 200 + 12.0 * 192 + 500.0
    assert cycles_decomposed(c, SPEC, QuantScheme.PER_TENSOR) == base
    assert cycles_decomposed(c, SPEC, QuantScheme.PER_FEATURE) == base + 3.0 * 200


def test_cycles_decomposed_is_a_left_fold():
    # (4, 4, 4) has 32 MACs, 8 requants, 4 activations: the terms are 0, 1, 2^53, 0, 1
    c = CycleCoeffs(c_mac=0.0, c_q=1 / 8, c_phi=2.0 ** 51, c_load=0.0, c0=1.0)
    terms = (0.0, 1.0, 2.0 ** 53, 0.0, 1.0)
    fold = 0.0
    for term in terms:
        fold += term
    assert fold == 2.0 ** 53 != math.fsum(terms)  # a compensated sum gives 2^53 + 2
    assert cycles_decomposed(c, PolicySpec((4, 4, 4)), QuantScheme.PER_TENSOR) == fold


@given(st.floats(1e3, 1e9), st.floats(1.0, 1e7))
def test_clock_rate_round_trip(cycles, f_target):
    f_clk = required_clock(cycles, f_target)
    assert max_update_rate(f_clk, cycles) == pytest.approx(f_target, rel=1e-12)


def test_rate_domain_errors():
    with pytest.raises(DomainError):
        max_update_rate(5e6, 0.0)
    for f_clk in (0.0, -5e6):
        with pytest.raises(DomainError, match="clock must be > 0"):
            max_update_rate(f_clk, 1e5)
    with pytest.raises(DomainError):
        required_clock(-1.0, 60.0)
    with pytest.raises(DomainError):
        required_clock(1e5, -1.0)
    with pytest.raises(DataError):
        measured_cycles(100.0, 200.0)
    # finite inputs whose result leaves the float range: v * i underflows to 0,
    # or the quotient, product or sum overflows
    with pytest.raises(DomainError, match="cycles per update is not finite"):
        cycles_decomposed(CycleCoeffs(1e308, 1e308, 1e308), SPEC, QuantScheme.PER_TENSOR)
    with pytest.raises(DomainError, match="measured cycles per update is not finite"):
        measured_cycles(1e300, 1e-300)
    for p in (PowerParams(1e-200, 1e-200, 1.0), PowerParams(1e-300, 1e-300, 1e300)):
        with pytest.raises(DomainError, match="clock at the power budget is not finite"):
            max_clock(p)
    with pytest.raises(DomainError, match="update rate is not finite"):
        feasible_update_rate(PowerParams(1.0, 1.0, 1e300), 1e-300)
    with pytest.raises(DomainError, match="required clock is not finite"):
        required_clock(1e300, 1e300)


def test_power_model():
    p = PowerParams(v_volts=1.8, i_per_mhz_amps=0.0001, p_max_watts=0.0018)
    assert max_clock(p) == pytest.approx(10e6)
    assert feasible_update_rate(p, 1e5) == pytest.approx(100.0)
    with pytest.raises(DataError):
        PowerParams(0.0, 1.0, 1.0)


def _varied_specs():
    return [PolicySpec(d) for d in
            [(24, 128, 64, 8), (24, 64, 8), (24, 8), (12, 32, 16, 4), (8, 8, 8)]]


def test_fit_recovers_known_coefficients():
    true = CycleCoeffs(c_mac=7.5, c_q=11.0, c_phi=14.0, c_load=2.5, c0=800.0)
    obs = []
    for spec in _varied_specs():
        for scheme in QuantScheme:
            obs.append((spec, scheme, cycles_decomposed(true, spec, scheme)))
    fitted, residual = fit_coeffs(obs)
    assert residual == pytest.approx(0.0, abs=1e-6)
    for name in ("c_mac", "c_q", "c_phi", "c_load", "c0"):
        assert getattr(fitted, name) == pytest.approx(getattr(true, name), rel=1e-6)


def test_fit_rejects_rank_deficiency():
    true = CycleCoeffs(7.5, 11.0, 14.0, 2.5, 800.0)
    # only per-tensor rows: c_load never enters the design matrix
    obs = [(spec, QuantScheme.PER_TENSOR, cycles_decomposed(true, spec, QuantScheme.PER_TENSOR))
           for spec in _varied_specs()]
    with pytest.raises(DataError, match="c_load"):
        fit_coeffs(obs)
    with pytest.raises(DataError):
        fit_coeffs(obs[:3])


def test_load_budget(tmp_path):
    path = tmp_path / "budget.txt"
    path.write_text("# comment\nf_clk_hz = 5e6\n\n")
    assert load_budget(path) == (None, 5e6, None)
    path.write_text("cycles_per_update = 104998\nv_volts = 1.8\ni_per_mhz_amps = 0.0001\n"
                    "p_max_watts = 0.0018\n")
    assert load_budget(path) == (104998.0, None, PowerParams(1.8, 0.0001, 0.0018))


def test_load_budget_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense line\n")
    with pytest.raises(DataError):
        load_budget(bad)
    bad.write_text("mystery_key=1\n")
    with pytest.raises(DataError):
        load_budget(bad)
    bad.write_text("f_clk_hz=not_a_number\n")
    with pytest.raises(DataError):
        load_budget(bad)
    bad.write_text("f_clk_hz=5e6\ncycles_per_update=inf\n")
    with pytest.raises(DataError, match="bad.txt:2"):
        load_budget(bad)
    bad.write_text("v_volts=1.8\np_max_watts=0.0018\n")
    with pytest.raises(DataError, match="power budget missing keys: i_per_mhz_amps$"):
        load_budget(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(DataError):
        CycleCoeffs(c_mac=bad, c_q=1.0, c_phi=1.0)
    with pytest.raises(DataError):
        CycleCoeffs(c_mac=1.0, c_q=1.0, c_phi=1.0, c0=bad)
    with pytest.raises(DataError):
        PowerParams(v_volts=1.8, i_per_mhz_amps=0.0001, p_max_watts=bad)
    with pytest.raises(DataError):
        max_update_rate(5e6, bad)
    with pytest.raises(DataError):
        max_update_rate(bad, 1e5)
    with pytest.raises(DataError):
        required_clock(bad, 60.0)
    with pytest.raises(DataError):
        required_clock(1e5, bad)
    with pytest.raises(DataError):
        measured_cycles(bad, 60.0)
    with pytest.raises(DataError):
        measured_cycles(5e6, bad)
