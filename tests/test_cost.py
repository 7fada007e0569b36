import numpy as np
import pytest
from hypothesis import given, strategies as st

from microgait import (
    CycleCoeffs,
    DataError,
    DomainError,
    PolicySpec,
    PowerParams,
    QuantScheme,
    RateMeasurement,
    cycles_decomposed,
    feasible_update_rate,
    fit_coeffs,
    max_clock,
    max_update_rate,
    measured_cycles,
    required_clock,
)
from microgait.cost import load_budget

SPEC = PolicySpec((24, 128, 64, 8))


def test_measured_cycles_reference_points():
    m1 = RateMeasurement(5e6, 47.62, QuantScheme.PER_FEATURE, SPEC)
    m2 = RateMeasurement(5e6, 52.63, QuantScheme.PER_TENSOR, SPEC)
    assert measured_cycles(m1) == pytest.approx(104998, abs=1)
    assert measured_cycles(m2) == pytest.approx(95003, abs=1)


def test_required_clock_reference_points():
    assert 6.25e6 <= required_clock(104998, 60.0) <= 6.30e6
    assert 8.85e6 <= required_clock(104998, 85.0) <= 8.93e6


def test_cycles_decomposed_terms():
    c = CycleCoeffs(c_mac=8.0, c_q=10.0, c_phi=12.0, c_load=3.0, c0=500.0)
    base = 8.0 * 11776 + 10.0 * 200 + 12.0 * 192 + 500.0
    assert cycles_decomposed(c, SPEC, QuantScheme.PER_TENSOR) == base
    assert cycles_decomposed(c, SPEC, QuantScheme.PER_FEATURE) == base + 3.0 * 200


@given(st.floats(1e3, 1e9), st.floats(1.0, 1e7))
def test_clock_rate_round_trip(cycles, f_target):
    f_clk = required_clock(cycles, f_target)
    assert max_update_rate(f_clk, cycles) == pytest.approx(f_target, rel=1e-12)


def test_rate_domain_errors():
    with pytest.raises(DomainError):
        max_update_rate(5e6, 0.0)
    with pytest.raises(DomainError):
        required_clock(-1.0, 60.0)
    with pytest.raises(DomainError):
        required_clock(1e5, -1.0)
    with pytest.raises(DataError):
        RateMeasurement(100.0, 200.0, QuantScheme.PER_TENSOR, SPEC)


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
    path.write_text("# comment\nf_clk_hz = 5e6\np_max_watts=0.0018\n\n")
    values = load_budget(path)
    assert values == {"f_clk_hz": 5e6, "p_max_watts": 0.0018}


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
