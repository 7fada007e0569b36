"""Fuzzing of the file loaders: the two binary policy loaders and the three
text loaders (budget, leg geometry, gait curves).

A truncated, corrupted or padded file either loads or raises DataError or
DomainError; a quantized policy that loads gives finite actions.
"""
import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgait import (
    DataError,
    DomainError,
    PolicySpec,
    QuantScheme,
    elu,
    fused_infer_dequant,
    leaky_relu,
    load_gait_table,
    load_policy,
    load_quantized,
    quantize_policy,
    random_policy,
    save_policy,
    save_quantized,
)
from microgait.cost import load_budget
from microgait.kinematics import load_geometry

DIMS = (6, 5, 3)
# one valid file per text loader, UTF-8 with a comment and a non-ASCII character
TEXT_FILES = {
    "budget": (load_budget, "# budget, \u00b5C class\ncycles_per_update = 104998\n"
               "f_clk_hz = 5e6\nv_volts = 1.8\ni_per_mhz_amps = 0.0001\np_max_watts = 0.0018\n"),
    "geometry": (load_geometry, "# leg \u00b5-geometry, m\nl_x = 0.02\nl_y = 0.015\n"
                 "x_motor_ref = 0.001\ny_motor_ref = -0.002\n"),
    "gait_curves": (load_gait_table, importlib.resources.files("microgait.data")
                    .joinpath("gait_curves.csv").read_text(encoding="utf-8")),
}


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """One truncation, byte flip or insertion of `data`, drawn from the strategy."""
    kind = draw(st.sampled_from(("truncate", "flip", "insert")))
    pos = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
    return data[:pos] + draw(st.binary(min_size=1, max_size=8)) + data[pos:]


def _saved(tmp_path_factory, name, save, obj) -> bytes:
    path = tmp_path_factory.mktemp("good") / name
    save(obj, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def policy_bytes(tmp_path_factory):
    return _saved(tmp_path_factory, "p.bin", save_policy,
                  random_policy(PolicySpec(DIMS, elu()), 3))


@pytest.fixture(scope="module", params=list(QuantScheme), ids=lambda s: s.name.lower())
def quantized_bytes(request, tmp_path_factory):
    p = random_policy(PolicySpec(DIMS, leaky_relu()), 3)
    calib = np.random.default_rng(4).normal(size=(32, DIMS[0]))
    return _saved(tmp_path_factory, "q.bin", save_quantized,
                  quantize_policy(p, request.param, calib))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_policy_fuzz(tmp_path_factory, policy_bytes, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_p.bin"
    path.write_bytes(data.draw(mutations(policy_bytes)))
    try:
        load_policy(path)
    except (DataError, DomainError):
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_quantized_fuzz(tmp_path_factory, quantized_bytes, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_q.bin"
    path.write_bytes(data.draw(mutations(quantized_bytes)))
    try:
        qp = load_quantized(path)
    except (DataError, DomainError):
        return
    assert np.isfinite(fused_infer_dequant(qp, np.zeros(qp.spec.input_dim))).all()


@pytest.mark.parametrize("name", list(TEXT_FILES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_text_loader_fuzz(tmp_path_factory, name, data):
    load, text = TEXT_FILES[name]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{name}.txt"
    good = text.encode("utf-8")
    path.write_bytes(good)
    load(path)  # the unmutated file loads
    path.write_bytes(data.draw(mutations(good)))
    try:
        load(path)
    except (DataError, DomainError):
        pass
