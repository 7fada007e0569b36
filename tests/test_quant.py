import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgait import (
    DataError,
    DomainError,
    PolicySpec,
    QuantScheme,
    RequantParams,
    derive_requant,
    infer_fp32,
    leaky_relu,
    load_quantized,
    quantize_policy,
    random_policy,
    save_quantized,
    sqnr_db,
)
from microgait.kernel import requantize
from microgait.quant import encode_ratio, fp32_payload_bytes, int8_payload_bytes
from oracles import dequantize_weights, requant_layer, requantize_unbounded


def _calib(seed, n=64, dim=24):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _quantized(seed, scheme, dims=(24, 128, 64, 8), spread=0.0):
    p = random_policy(PolicySpec(dims, leaky_relu()), seed, row_scale_spread=spread)
    return p, quantize_policy(p, scheme, _calib(1000 + seed, dim=dims[0]))


def _requantize(acc, rp):
    """The kernel's requantize step on one accumulator."""
    return int(requantize(np.array([acc], dtype=np.int64), requant_layer(rp))[0])


def test_requantize_hand_cases():
    assert _requantize(0, RequantParams(12345, 7, 0)) == 0
    assert _requantize(2 ** 30, RequantParams(1, 0, 0)) == 127        # saturates
    assert _requantize(5, RequantParams(3, 1, -2)) == 6               # ((15+1)>>1)-2
    assert _requantize(-(2 ** 30), RequantParams(1, 0, 0)) == -128


def test_requant_params_validation():
    with pytest.raises(DataError):
        RequantParams(1, 32)
    with pytest.raises(DataError):
        RequantParams(2 ** 31, 0)
    with pytest.raises(DataError):
        RequantParams(1, 0, 200)
    assert RequantParams(1, 0).round_term == 0
    assert RequantParams(1, 5).round_term == 16


@given(st.integers(-(2 ** 31) + 1, 2 ** 31 - 1),
       st.integers(0, 2 ** 31 - 1),
       st.integers(0, 31),
       st.integers(-128, 127))
def test_requantize_matches_unbounded_oracle(acc, mult, shift, zp):
    rp = RequantParams(mult, shift, zp)
    assert _requantize(acc, rp) == requantize_unbounded(acc, mult, shift, zp)


@given(st.integers(-(2 ** 31) + 1, 2 ** 31 - 2),
       st.integers(1, 2 ** 31 - 1),
       st.integers(0, 31))
def test_requantize_monotone_in_accumulator(acc, mult, shift):
    rp = RequantParams(mult, shift, 0)
    lo, hi = requantize(np.array([acc, acc + 1], dtype=np.int64), requant_layer(rp))
    assert hi >= lo


def test_encode_ratio_canonical_dyadics():
    assert encode_ratio(0.5) == (2 ** 30, 31)
    assert encode_ratio(1.0) == (2 ** 30, 30)


@given(st.floats(2 ** -7, 2 ** 20, allow_nan=False, allow_infinity=False))
def test_encode_ratio_precision(ratio):
    mult, shift = encode_ratio(ratio)
    assert 0 < mult < 2 ** 31 and 0 <= shift <= 31
    assert abs(mult / 2 ** shift - ratio) <= 2 ** -24 * ratio


def test_encode_ratio_point_three():
    mult, shift = encode_ratio(0.3)
    assert abs(mult / 2 ** shift - 0.3) <= 2 ** -24 * 0.3


def test_encode_ratio_rejects_extremes():
    with pytest.raises(DomainError):
        encode_ratio(0.0)
    with pytest.raises(DomainError):
        encode_ratio(2.0 ** 31)
    with pytest.raises(DomainError):
        encode_ratio(2.0 ** -40)


def test_derive_requant_validation():
    with pytest.raises(DomainError):
        derive_requant(0.0, 1.0, 1.0)
    rp = derive_requant(0.02, 0.005, 0.03, zero_point=-5)
    assert rp.zero_point == -5
    assert abs(rp.mult / 2 ** rp.shift - 0.02 * 0.005 / 0.03) < 1e-6


def test_quantize_rejects_elu():
    p = random_policy(PolicySpec((24, 8)), 0)   # default activation is ELU
    with pytest.raises(DomainError):
        quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0))


def test_quantize_rejects_bad_calib():
    p = random_policy(PolicySpec((24, 8), leaky_relu()), 0)
    with pytest.raises(DataError):
        quantize_policy(p, QuantScheme.PER_TENSOR, np.zeros((0, 24)))
    with pytest.raises(DataError):
        quantize_policy(p, QuantScheme.PER_TENSOR, np.zeros((4, 23)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_calib_row(bad):
    p = random_policy(PolicySpec((24, 8), leaky_relu()), 0)
    calib = _calib(0)
    calib[2] = bad
    with pytest.raises(DataError, match="observation range .* is not finite"):
        quantize_policy(p, QuantScheme.PER_FEATURE, calib)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # numpy's, before the DataError
def test_quantize_rejects_layer_output_that_overflows_float32():
    p = random_policy(PolicySpec((24, 16, 8), leaky_relu()), 0)
    p.weights[0][:] = 3e38  # finite in float32; a dot product with it is not
    with pytest.raises(DataError, match="layer 0 output range .* is not finite"):
        quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0))


def test_constant_weight_tensor_per_tensor():
    spec = PolicySpec((4, 3), leaky_relu())
    from microgait import Fp32Policy
    w = np.full((3, 4), -0.25)
    p = Fp32Policy(spec, [w], [np.zeros(3)])
    qp = quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0, dim=4))
    assert np.all(np.abs(qp.layers[0].weights) == 127)
    assert qp.layers[0].weight_scales[0] == pytest.approx(0.25 / 127)


def test_per_feature_row_scales_differ():
    spec = PolicySpec((4, 2), leaky_relu())
    from microgait import Fp32Policy
    w = np.array([[0.5, 0.1, 0.2, 0.3], [0.005, 0.001, 0.002, 0.003]])
    p = Fp32Policy(spec, [w], [np.zeros(2)])
    qf = quantize_policy(p, QuantScheme.PER_FEATURE, _calib(0, dim=4))
    qt = quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0, dim=4))
    s = qf.layers[0].weight_scales
    assert s[0] / s[1] == pytest.approx(100.0)
    assert qt.layers[0].weight_scales.size == 1


def test_all_zero_row_gets_unit_scale():
    spec = PolicySpec((4, 2), leaky_relu())
    from microgait import Fp32Policy
    w = np.array([[0.5, 0.1, 0.2, 0.3], [0.0, 0.0, 0.0, 0.0]])
    p = Fp32Policy(spec, [w], [np.zeros(2)])
    qf = quantize_policy(p, QuantScheme.PER_FEATURE, _calib(0, dim=4))
    assert qf.layers[0].weight_scales[1] == 1.0
    assert np.all(qf.layers[0].weights[1] == 0)


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_weight_round_trip_error_bound(scheme):
    p, qp = _quantized(3, scheme, spread=0.8)
    for layer, w in zip(qp.layers, p.weights):
        err = np.abs(dequantize_weights(layer) - w)
        scales = layer.weight_scales
        bound = (scales[:, None] if scales.size > 1 else scales[0]) / 2
        assert np.all(err <= bound + 1e-12)


def test_per_feature_weight_error_never_worse_per_row():
    p, qf = _quantized(5, QuantScheme.PER_FEATURE, spread=1.0)
    _, qt = _quantized(5, QuantScheme.PER_TENSOR, spread=1.0)
    for lf, lt, w in zip(qf.layers, qt.layers, p.weights):
        ef = np.abs(dequantize_weights(lf) - w).max(axis=1)
        et = np.abs(dequantize_weights(lt) - w).max(axis=1)
        assert np.all(ef <= et + 1e-12)


def test_sqnr_values():
    ref = np.array([3.0, 4.0])
    assert sqnr_db(ref, ref) == math.inf
    assert sqnr_db(ref, np.array([3.0, 4.5])) == pytest.approx(10 * math.log10(100.0))
    with pytest.raises(DomainError):
        sqnr_db(np.zeros(4), np.ones(4))
    with pytest.raises(DataError):
        sqnr_db(np.zeros(4), np.zeros(3))


@pytest.mark.parametrize("ref, tst", [
    ([1.0, math.nan], [1.0, 1.0]),
    ([1.0, 1.0], [math.nan, 1.0]),
    ([1.0, 2.0], [1.0, math.inf]),
    ([-math.inf, 2.0], [1.0, 2.0]),
])
def test_sqnr_rejects_non_finite(ref, tst):
    with pytest.raises(DataError):
        sqnr_db(ref, tst)


def test_payload_byte_counts():
    spec = PolicySpec((24, 128, 64, 8), leaky_relu())
    assert fp32_payload_bytes(spec) == 47904
    _, qf = _quantized(0, QuantScheme.PER_FEATURE)
    _, qt = _quantized(0, QuantScheme.PER_TENSOR)
    # weights 11776 + biases 4*200 + requant 6*200 or 6*3
    assert int8_payload_bytes(qf) == 11776 + 800 + 1200
    assert int8_payload_bytes(qt) == 11776 + 800 + 18


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_save_load_round_trip(tmp_path, scheme):
    _, qp = _quantized(9, scheme)
    path = tmp_path / "q.bin"
    save_quantized(qp, path)
    back = load_quantized(path)
    assert back.scheme == qp.scheme
    assert back.spec.layer_dims == qp.spec.layer_dims
    assert (back.obs_zp, back.act_mult, back.act_shift) == \
        (qp.obs_zp, qp.act_mult, qp.act_shift)
    assert back.obs_scale == pytest.approx(qp.obs_scale, rel=1e-6)
    for a, b in zip(back.layers, qp.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.requant == b.requant
        np.testing.assert_allclose(a.weight_scales, b.weight_scales, rtol=1e-6)


def test_load_quantized_rejects_garbage(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"TGQ1" + bytes(3))
    with pytest.raises(DataError):
        load_quantized(path)
    path.write_bytes(b"XXXX")
    with pytest.raises(DataError):
        load_quantized(path)


# TGQ1 header: magic, u8 scheme, u8 dim count, u16 dims, then "<fIBfb" alpha,
# act_mult, act_shift, obs_scale, obs_zp
SCHEME_OFFSET = 4
HEADER_FIELDS = ("alpha", "act_mult", "act_shift", "obs_scale", "obs_zp")


def _pack_header_field(data, dims, field, value):
    i = HEADER_FIELDS.index(field)
    offset = 6 + 2 * len(dims) + struct.calcsize("<" + "fIBfb"[:i])
    struct.pack_into("<" + "fIBfb"[i], data, offset, value)


def _saved_bytes(tmp_path, qp):
    path = tmp_path / "good.bin"
    save_quantized(qp, path)
    return bytearray(path.read_bytes())


def test_load_rejects_requant_table_that_does_not_match_scheme(tmp_path):
    path = tmp_path / "mixed.bin"
    # a per-feature file whose tables have the single per-tensor entry
    _, qt = _quantized(2, QuantScheme.PER_TENSOR)
    data = _saved_bytes(tmp_path, qt)
    data[SCHEME_OFFSET] = QuantScheme.PER_FEATURE.value
    path.write_bytes(data)
    with pytest.raises(DataError, match="layer 0 requant table has 1 entries"):
        load_quantized(path)
    # and the reverse: a per-tensor file carrying per-feature tables
    _, qf = _quantized(2, QuantScheme.PER_FEATURE)
    data = _saved_bytes(tmp_path, qf)
    data[SCHEME_OFFSET] = QuantScheme.PER_TENSOR.value
    path.write_bytes(data)
    with pytest.raises(DataError, match="requant table"):
        load_quantized(path)


@pytest.mark.parametrize("field, value", [
    ("act_shift", 32), ("act_shift", 255), ("act_mult", 2 ** 32 - 1),
    ("obs_scale", math.nan), ("obs_scale", math.inf), ("obs_scale", 0.0),
    ("obs_scale", -0.5),
])
def test_load_rejects_bad_header_values(tmp_path, field, value):
    _, qp = _quantized(4, QuantScheme.PER_TENSOR)
    data = _saved_bytes(tmp_path, qp)
    _pack_header_field(data, qp.spec.layer_dims, field, value)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError):
        load_quantized(path)


def _first_layer_offset(qp):
    return 6 + 2 * len(qp.spec.layer_dims) + struct.calcsize("<fIBfb")


def _scale_table_offset(qp, index):
    """Byte offset of layer `index`'s f32 scale table: input, output, then weight scales."""
    off = _first_layer_offset(qp)
    for layer in qp.layers[:index]:
        off += (layer.weights.size + 4 * layer.bias.size + 2 + 4 * (2 + len(layer.weight_scales))
                + 2 + 2 + 6 * len(layer.requant))
    layer = qp.layers[index]
    return off + layer.weights.size + 4 * layer.bias.size + 2


@pytest.mark.parametrize("index, slot, value", [
    (2, 1, 0.0), (2, 1, -1.0), (2, 1, math.nan), (2, 1, math.inf),  # last output scale
    (0, 0, 0.0), (1, 2, -1.0), (1, 3, math.inf),
])
def test_load_rejects_bad_layer_scales(tmp_path, index, slot, value):
    _, qp = _quantized(4, QuantScheme.PER_FEATURE)
    data = _saved_bytes(tmp_path, qp)
    off = _scale_table_offset(qp, index) + 4 * slot
    layer = qp.layers[index]
    table = [layer.input_scale, layer.output_scale, *layer.weight_scales]
    assert struct.unpack_from("<f", data, off)[0] == np.float32(table[slot])
    struct.pack_into("<f", data, off, value)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match="scales must be finite and > 0"):
        load_quantized(path)


def test_load_rejects_int32_min_bias(tmp_path):
    # |INT32_MIN| wraps in int32, so the headroom check must widen before abs()
    _, qp = _quantized(4, QuantScheme.PER_TENSOR)
    data = _saved_bytes(tmp_path, qp)
    first_bias = _first_layer_offset(qp) + qp.layers[0].weights.size
    struct.pack_into("<i", data, first_bias, -2 ** 31)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DomainError, match="int32 accumulator"):
        load_quantized(path)


def test_quantized_policy_is_frozen():
    # each layer's kernel tables are built at construction; assignment would leave them stale
    _, qf = _quantized(2, QuantScheme.PER_FEATURE)
    _, qt = _quantized(3, QuantScheme.PER_FEATURE)
    assert isinstance(qf.layers, tuple) and isinstance(qf.layers[0].requant, tuple)
    for obj, field, value in ((qf, "layers", qt.layers), (qf, "act_shift", 3),
                              (qf, "scheme", QuantScheme.PER_TENSOR),
                              (qf.layers[0], "requant", qt.layers[0].requant)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, value)


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_kernel_tables_built_at_construction(scheme):
    _, qp = _quantized(6, scheme)
    for layer in qp.layers:
        n_out, n_in = layer.weights.shape
        assert layer.weights_t.shape == (n_in, n_out) and layer.weights_t.dtype == np.float64
        np.testing.assert_array_equal(layer.weights_t, layer.weights.T)
        assert layer.bias_f64.dtype == np.float64
        np.testing.assert_array_equal(layer.bias_f64, layer.bias)
        assert layer.mult.shape == ((n_out,) if scheme is QuantScheme.PER_FEATURE else (1,))
        assert layer.mult.tolist() == [rp.mult for rp in layer.requant]
        assert layer.shift.tolist() == [rp.shift for rp in layer.requant]
        assert layer.offset.tolist() == [rp.round_term + rp.zero_point * 2 ** rp.shift
                                         for rp in layer.requant]


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_fused_output_tracks_fp32(scheme):
    from microgait import fused_infer_dequant
    p, qp = _quantized(11, scheme)
    calib = _calib(1011)
    ref = np.array([infer_fp32(p, row) for row in calib])
    tst = np.array([fused_infer_dequant(qp, row) for row in calib])
    assert sqnr_db(ref, tst) > 15.0
