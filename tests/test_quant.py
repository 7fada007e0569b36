import dataclasses
import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgait import quant
from microgait.errors import DataError, DomainError
from microgait.kernel import requantize
from microgait.policy import BLOCK_ROWS, PolicySpec, infer_fp32, leaky_relu, random_policy
from microgait.quant import (
    QuantizedPolicy,
    QuantScheme,
    dequantize_action,
    derive_requant,
    encode_ratio,
    fp32_payload_bytes,
    int8_payload_bytes,
    load_quantized,
    quantize_policy,
    save_quantized,
    sqnr_db,
)
from oracles import (RequantParams, dequantize_weights, encode_ratio_loop, layer_from_params,
                     quantize_whole_matrix, requant_layer, requantize_unbounded)


def _calib(seed, n=64, dim=24):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _quantized(seed, scheme, dims=(24, 128, 64, 8), spread=0.0, alpha=0.01):
    p = random_policy(PolicySpec(dims, leaky_relu(alpha)), seed, row_scale_spread=spread)
    return p, quantize_policy(p, scheme, _calib(1000 + seed, dim=dims[0]))


def _requantize(acc, rp):
    """The kernel's requantize step on one accumulator."""
    return int(requantize(np.array([acc], dtype=np.int64), requant_layer(rp))[0])


def test_requantize_hand_cases():
    assert _requantize(0, RequantParams(12345, 7, 0)) == 0
    assert _requantize(2 ** 30, RequantParams(1, 0, 0)) == 127        # saturates
    assert _requantize(5, RequantParams(3, 1, -2)) == 6               # ((15+1)>>1)-2
    assert _requantize(-(2 ** 30), RequantParams(1, 0, 0)) == -128


@pytest.mark.parametrize("acc", [2 ** 31 - 1, -(2 ** 31 - 1)])
@pytest.mark.parametrize("shift", [0, 31])
@pytest.mark.parametrize("zp", [127, -127])
def test_requantize_saturates_indices_far_past_the_table(acc, shift, zp):
    # the largest multiplier on the largest accumulator puts the table index
    # about 2^62 (shift 0) or 2^31 (shift 31) past either end of the 256 codes
    rp = RequantParams(2 ** 31 - 1, shift, zp)
    assert _requantize(acc, rp) == requantize_unbounded(acc, rp.mult, shift, zp) == \
        (127 if acc > 0 else -128)


def _one_layer_policy(params, alpha=0.01):
    layer = layer_from_params(params)
    return QuantizedPolicy(PolicySpec((1, len(params)), leaky_relu(alpha)),
                           QuantScheme.PER_FEATURE, [layer], 1.0, 0)


def test_requant_params_validation():
    ok = RequantParams(1, 0)
    for zp in (-128, 0, 127):  # one zero-point per table, as an int8 tensor has one
        _one_layer_policy([RequantParams(1, 0, zp), RequantParams(2 ** 31 - 1, 31, zp),
                           RequantParams(0, 0, zp)])
    with pytest.raises(DataError, match=r"layer 0 requant entry 2: multiplier and shift \(1, 32\) "
                                        r"outside \[0, 2\^31\) x \[0, 31\]"):
        _one_layer_policy([ok, ok, RequantParams(1, 32)])
    with pytest.raises(DataError, match=r"layer 0 requant entry 1: multiplier and shift \(-1, 0\)"):
        _one_layer_policy([ok, RequantParams(-1, 0)])
    # an entry the file's i4, u1, i1 record cannot hold
    for bad in (RequantParams(2 ** 31, 0), RequantParams(1, 0, 200), RequantParams(1, 256)):
        with pytest.raises(DataError, match="does not fit the requant record"):
            layer_from_params([bad])
    assert RequantParams(1, 0).round_term == 0
    assert RequantParams(1, 5).round_term == 16
    assert layer_from_params([RequantParams(1, 0), RequantParams(1, 5)]).offset.tolist() == \
        [0 + (128 << 0), 16 + (128 << 5)]


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
    # 2^-32 * 2^31 = 0.5 rounds to multiplier 0; the next float up rounds to 1
    with pytest.raises(DomainError, match=r"at most 2\^-32 and not representable"):
        encode_ratio(2.0 ** -32)
    assert encode_ratio(math.nextafter(2.0 ** -32, 1.0)) == (1, 31)
    # from 2^31 - 0.5 up even shift 0 rounds to 2^31, which no shift in [0, 31] fits
    for ratio in (2.0 ** 31 - 0.5, 2.0 ** 31 - 0.25):
        with pytest.raises(DomainError, match="overflows the 31-bit multiplier"):
            encode_ratio(ratio)
    assert encode_ratio(2.0 ** 31 - 1) == (2 ** 31 - 1, 0)


def test_derive_requant_validation():
    with pytest.raises(DomainError, match="input_scale must be > 0"):
        derive_requant(0.0, [1.0], 1.0)
    with pytest.raises(DomainError, match="weight_scales must be > 0"):
        derive_requant(1.0, [1.0, -1.0], 1.0)
    with pytest.raises(DomainError, match="output_scale must be > 0"):
        derive_requant(1.0, [1.0], math.nan)
    table = derive_requant(0.02, [0.005, 0.01], 0.03, zero_point=-5)
    assert table.dtype == quant.REQUANT_DTYPE and table.shape == (2,)
    assert quant.REQUANT_DTYPE.type is np.void and quant.REQUANT_DTYPE.itemsize == 6  # no np.record
    assert table["zero_point"].tolist() == [-5, -5]
    for (mult, shift, _), ws in zip(table.tolist(), (0.005, 0.01)):
        assert (mult, shift) == encode_ratio_loop(0.02 * ws / 0.03)
        assert abs(mult / 2 ** shift - 0.02 * ws / 0.03) < 1e-6


def _encoded(ratio):
    """encode_ratio_loop's (mult, shift), or its exception's type and message."""
    try:
        return encode_ratio_loop(ratio)
    except DomainError as exc:
        return type(exc), str(exc)


def _assert_encodes_like_loop(ratios):
    """encode_ratio on the whole array, and on each ratio alone, agrees with
    the loop; a rejected array is named by its first rejected ratio."""
    want = [_encoded(r) for r in ratios]
    for r, w in zip(ratios, want):
        try:
            got = tuple(int(v) for v in encode_ratio(r))
        except DomainError as exc:
            got = type(exc), str(exc)
        assert got == w, r
    rejected = [w for w in want if isinstance(w[0], type)]
    if rejected:
        with pytest.raises(DomainError) as info:
            encode_ratio(np.array(ratios))
        assert str(info.value) == rejected[0][1]
    else:
        mult, shift = encode_ratio(np.array(ratios))
        assert mult.dtype == shift.dtype == np.int64
        assert list(zip(mult.tolist(), shift.tolist())) == want


# log-uniform over [2^-35, 2^31.5): below 2^-32 every ratio is rejected,
# above 2^31 - 0.5 every ratio overflows
_log_ratios = st.floats(-35.0, 31.5, exclude_max=True).map(lambda e: 2.0 ** e)


@settings(max_examples=300, deadline=None)
@given(st.lists(_log_ratios, min_size=1, max_size=40))
def test_encode_ratio_matches_scalar_loop(ratios):
    _assert_encodes_like_loop(ratios)


EDGE_RATIOS = [2.0 ** -32, math.nextafter(2.0 ** -32, 1.0), 2.0 ** 31 - 0.75, 2.0 ** 31 - 0.5,
               2.0 ** 31 - 1, 0.5, 1.0, 0.3, 0.01]


@pytest.mark.parametrize("ratio", EDGE_RATIOS + [0.0, -1.0, math.nan, math.inf, 2.0 ** 40])
def test_encode_ratio_edges_match_scalar_loop(ratio):
    _assert_encodes_like_loop([ratio])
    _assert_encodes_like_loop([0.3, ratio, 2.0 ** -40])


def test_encode_ratio_matches_scalar_loop_on_many_ratios():
    ratios = 2.0 ** np.random.default_rng(0).uniform(-31.9, 30.9, size=20_000)
    mult, shift = encode_ratio(ratios)
    assert list(zip(mult.tolist(), shift.tolist())) == [encode_ratio_loop(r) for r in ratios]


def test_requantize_oracle_takes_numpy_ints_unbounded():
    # np.int32 times an int in numpy arithmetic would wrap: (2^31 - 1)^2 = 1 mod 2^32
    big = 2 ** 31 - 1
    want = requantize_unbounded(big, big, 31, 0)
    assert want == 127
    assert requantize_unbounded(np.int32(big), np.int32(big), np.uint8(31), np.int8(0)) == want
    assert requantize_unbounded(big, np.int32(big), 31, 0) == want


def test_build_save_load_encodes_once_per_layer(tmp_path, monkeypatch):
    # each layer's requant table is derived in one call, so per-neuron Python
    # work on the build and load path would show here as extra calls; each
    # model built, here by quantize_policy and by the loader, encodes its slope
    calls = []

    def counting(ratio):
        calls.append(np.shape(ratio))
        return encode_ratio(ratio)

    monkeypatch.setattr(quant, "encode_ratio", counting)
    _, qp = _quantized(0, QuantScheme.PER_FEATURE)
    save_quantized(qp, tmp_path / "q.bin")
    back = load_quantized(tmp_path / "q.bin")
    assert len(calls) <= qp.spec.num_layers + 2
    assert sorted(calls) == [(), (), (8,), (64,), (128,)]
    assert [len(layer.requant) for layer in back.layers] == [128, 64, 8]


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


def test_quantize_rejects_calibration_of_more_than_two_dimensions():
    # a (2, 24, 24) array was quantized as if it were 48 rows
    p = random_policy(PolicySpec((24, 8), leaky_relu()), 0)
    with pytest.raises(DataError, match=r"got shape \(2, 24, 24\)"):
        quantize_policy(p, QuantScheme.PER_TENSOR, np.zeros((2, 24, 24)))
    # one 1-D row is one calibration row
    row = _calib(0)[0]
    one = quantize_policy(p, QuantScheme.PER_TENSOR, row)
    two = quantize_policy(p, QuantScheme.PER_TENSOR, row[None, :])
    assert (one.obs_scale, one.obs_zp) == (two.obs_scale, two.obs_zp)
    assert one.layers[0].bias.tobytes() == two.layers[0].bias.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_calib_row(bad):
    p = random_policy(PolicySpec((24, 8), leaky_relu()), 0)
    calib = _calib(0)
    calib[2] = bad
    with pytest.raises(DataError, match="observation range .* is not finite"):
        quantize_policy(p, QuantScheme.PER_FEATURE, calib)


def test_quantize_rejects_a_bias_that_overflows_int32():
    # weights of 1e-12 put a bias's scale, input_scale * weight_scale, near 1e-16
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu()), 0)
    p.weights[0][:] = 1e-12
    with pytest.raises(DomainError, match="^layer 0 quantized bias overflows int32$"):
        quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # numpy's, before the DataError
def test_quantize_rejects_layer_output_that_overflows_float32():
    p = random_policy(PolicySpec((24, 16, 8), leaky_relu()), 0)
    p.weights[0][:] = 3e38  # finite in float32; a dot product with it is not
    with pytest.raises(DataError, match="layer 0 output range .* is not finite"):
        quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0))


# a row of the last block meets +3e38 and -3e38 weights with inputs of 2; the
# check runs in a fresh process under each BLAS kernel, and prints the product
# that quantize_policy sees in that row and its error
_NAN_RANGE_CHECK = """
import numpy as np
from microgait.errors import DataError
from microgait.policy import BLOCK_ROWS, PolicySpec, leaky_relu, random_policy
from microgait.quant import QuantScheme, quantize_policy
p = random_policy(PolicySpec((24, 16, 8), leaky_relu()), 0)
p.weights[0][0, :2] = 3e38, -3e38
calib = np.zeros((2 * BLOCK_ROWS + 3, 24), dtype=np.float32)
calib[-1, :2] = 2
with np.errstate(all="ignore"):
    product = (calib @ p.weights[0].T)[-1, 0]
try:
    quantize_policy(p, QuantScheme.PER_TENSOR, calib)
except DataError as exc:
    print(product, exc)
"""


def test_quantize_rejects_a_nan_in_one_row_of_the_last_block(run_python, blas_coretype):
    run = run_python(_NAN_RANGE_CHECK, timeout=60, OPENBLAS_CORETYPE=blas_coretype)
    assert run.returncode == 0, run.stderr
    product, message = run.stdout.strip().split(" ", 1)
    # a kernel that rounds each product alone sums inf and -inf to NaN; one that
    # fuses the multiply-add adds the exact -6e38 to inf and keeps inf
    if blas_coretype == "Prescott":
        assert product == "nan"
    if product == "nan":
        assert message == "layer 0 output range [nan, nan] is not finite"
    assert re.fullmatch(r"layer 0 output range \[.*\] is not finite", message), message


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 3])
@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_range_pass_matches_whole_matrix_oracle(tmp_path, scheme, rows):
    p = random_policy(PolicySpec((24, 128, 64, 8), leaky_relu(0.1)), rows, row_scale_spread=0.5)
    calib = np.random.default_rng(rows).normal(0.0, 0.5, size=(rows, 24)).astype(np.float32)
    before = calib.copy()
    got = quantize_policy(p, scheme, calib)
    assert calib.tobytes() == before.tobytes()
    want = quantize_whole_matrix(p, scheme, calib)
    assert (got.obs_scale, got.obs_zp) == (want.obs_scale, want.obs_zp)
    # the slope of the float32 alpha, encoded by the frozen scalar encoder
    assert (got.act_mult, got.act_shift) == encode_ratio_loop(float(np.float32(0.1)))
    for g, w in zip(got.layers, want.layers, strict=True):
        assert (g.output_scale, g.output_zp) == (w.output_scale, w.output_zp)
        assert g.requant.tobytes() == w.requant.tobytes()
        assert g.bias.tobytes() == w.bias.tobytes()
    save_quantized(got, tmp_path / "got.bin")
    save_quantized(want, tmp_path / "want.bin")
    assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


def test_constant_weight_tensor_per_tensor():
    spec = PolicySpec((4, 3), leaky_relu())
    from microgait.policy import Fp32Policy
    w = np.full((3, 4), -0.25)
    p = Fp32Policy(spec, [w], [np.zeros(3)])
    qp = quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0, dim=4))
    assert np.all(np.abs(qp.layers[0].weights) == 127)
    assert qp.layers[0].weight_scales[0] == pytest.approx(0.25 / 127)


def test_per_feature_row_scales_differ():
    spec = PolicySpec((4, 2), leaky_relu())
    from microgait.policy import Fp32Policy
    w = np.array([[0.5, 0.1, 0.2, 0.3], [0.005, 0.001, 0.002, 0.003]])
    p = Fp32Policy(spec, [w], [np.zeros(2)])
    qf = quantize_policy(p, QuantScheme.PER_FEATURE, _calib(0, dim=4))
    qt = quantize_policy(p, QuantScheme.PER_TENSOR, _calib(0, dim=4))
    s = qf.layers[0].weight_scales
    assert s[0] / s[1] == pytest.approx(100.0)
    assert qt.layers[0].weight_scales.size == 1


def test_all_zero_row_gets_unit_scale():
    spec = PolicySpec((4, 2), leaky_relu())
    from microgait.policy import Fp32Policy
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
        assert a.requant.tobytes() == b.requant.tobytes()
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


@pytest.mark.parametrize("act_mult, act_shift", [
    (0, 31),          # slope 0: every negative hidden accumulator would read 0
    (10737418, 30),   # alpha 0.01's slope, in a form encode_ratio never gives
])
def test_load_rejects_slope_that_differs_from_alpha(tmp_path, act_mult, act_shift):
    # the kernel reads the slope, the spec and the FP32 pass the alpha
    _, qp = _quantized(3, QuantScheme.PER_FEATURE)
    assert (qp.act_mult, qp.act_shift) == (21474836, 31)
    data = _saved_bytes(tmp_path, qp)
    _pack_header_field(data, qp.spec.layer_dims, "act_mult", act_mult)
    _pack_header_field(data, qp.spec.layer_dims, "act_shift", act_shift)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf"activation slope {act_mult}, {act_shift} differs from "
                                        rf"alpha 0\.0099999\d*'s 21474836, 31"):
        load_quantized(path)


@pytest.mark.parametrize("alpha", [1e-12, 2.0 ** -32])
def test_load_rejects_alpha_no_slope_encodes(tmp_path, alpha):
    # a float32 alpha ActivationSpec accepts, at most 2^-32
    _, qp = _quantized(3, QuantScheme.PER_TENSOR)
    data = _saved_bytes(tmp_path, qp)
    _pack_header_field(data, qp.spec.layer_dims, "alpha", alpha)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DomainError, match=r"is at most 2\^-32 and not representable"):
        load_quantized(path)


def test_model_holds_the_slope_of_its_float32_alpha(tmp_path):
    # 0.3 and its float32 value 0.30000001192... encode to different slopes;
    # the FP32 pass and the file hold the float32 value, and so does the slope
    _, qp = _quantized(3, QuantScheme.PER_FEATURE, alpha=0.3)
    assert encode_ratio(0.3) == (644245094, 31)
    assert (qp.act_mult, qp.act_shift) == (644245120, 31)
    save_quantized(qp, tmp_path / "q.bin")
    back = load_quantized(tmp_path / "q.bin")
    assert back.spec.hidden_activation.alpha == float(np.float32(0.3))
    assert (back.act_mult, back.act_shift) == (644245120, 31)


def test_quantized_policy_rejects_an_elu_spec():
    # the kernel runs only leaky-relu, so an ELU spec would describe another network
    _, qp = _quantized(2, QuantScheme.PER_TENSOR)
    with pytest.raises(DataError, match="the integer kernel runs leaky-relu, not elu"):
        dataclasses.replace(qp, spec=PolicySpec(qp.spec.layer_dims))


@settings(max_examples=500)
@given(st.one_of(st.sampled_from([2.0 ** -32, float(np.nextafter(np.float32(2.0 ** -32), 1)),
                                  2.0 ** -31, 0.01, float(np.float32(1 - 2 ** -24)), 1.0]),
                 st.floats(0.0, 1.0, exclude_min=True, width=32)))
def test_float32_alpha_slope_needs_no_range_check(alpha):
    """For a float32 alpha in (0, 1] that encode_ratio accepts, act_shift is
    30 or 31 and 1 <= act_mult <= 2^act_shift, act_mult < 2^31, so a model
    needs no range check of its slope; the model's pair is the encoder's."""
    try:
        mult, shift = (int(v) for v in encode_ratio(alpha))
    except DomainError:
        assert alpha <= 2.0 ** -32
        return
    assert shift in (30, 31) and 1 <= mult <= 2 ** shift and mult < 2 ** 31
    assert (shift == 30) == (alpha == 1.0)
    qp = _one_layer_policy([RequantParams(1, 0)], alpha)
    assert (qp.act_mult, qp.act_shift) == (mult, shift)


def _first_layer_offset(qp):
    return 6 + 2 * len(qp.spec.layer_dims) + struct.calcsize("<fIBfb")


def _scale_table_offset(qp, index):
    """Byte offset of layer `index`'s f32 scale table: input, output, then weight scales,
    followed by the i8 input and output zero-points."""
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
    in_scale = qp.layers[index - 1].output_scale if index else qp.obs_scale
    table = [in_scale, layer.output_scale, *layer.weight_scales]
    assert struct.unpack_from("<f", data, off)[0] == np.float32(table[slot])
    struct.pack_into("<f", data, off, value)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    # slot 0 repeats the input tensor's scale, which no layer holds
    message = "input scale and zero-point" if slot == 0 else "scales must be finite and > 0"
    with pytest.raises(DataError, match=message):
        load_quantized(path)


@pytest.mark.parametrize("index, field", [(1, "scale"), (1, "zero-point"),
                                          (0, "scale"), (0, "zero-point")])
@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_load_rejects_input_copy_that_differs_from_the_tensor_before(
        tmp_path, scheme, index, field):
    # a layer's stored input pair repeats the observation's (layer 0) or the
    # previous layer's output pair; the kernel reads neither copy
    _, qp = _quantized(4, scheme)
    data = _saved_bytes(tmp_path, qp)
    off = _scale_table_offset(qp, index)
    if field == "scale":
        (scale,) = struct.unpack_from("<f", data, off)
        struct.pack_into("<f", data, off, 3 * scale)
    else:
        off += 4 * (2 + len(qp.layers[index].weight_scales))
        (zp,) = struct.unpack_from("<b", data, off)
        struct.pack_into("<b", data, off, (zp + 37 + 128) % 256 - 128)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    before = "layer 0 output" if index else "observation"
    with pytest.raises(DataError, match=f"layer {index} input scale and zero-point .* "
                                        f"differ from the {before}'s"):
        load_quantized(path)


def _requant_entry_offset(qp, index, entry):
    """Byte offset of entry `entry` of layer `index`'s requant table."""
    layer = qp.layers[index]
    return _scale_table_offset(qp, index) + 4 * (2 + len(layer.weight_scales)) + 2 + 2 + 6 * entry


# a record is "<iBb": the multiplier at byte 0, the shift at byte 4
@pytest.mark.parametrize("fmt, at, value, message", [
    ("<i", 0, -5, r"layer 2 requant entry 5: multiplier and shift \(-5, \d+\) outside"),
    ("<i", 0, -2 ** 31, r"layer 2 requant entry 5: multiplier and shift \(-2147483648, \d+\) "),
    ("<B", 4, 40, r"layer 2 requant entry 5: multiplier and shift \(\d+, 40\) outside"),
    ("<B", 4, 255, r"layer 2 requant entry 5: multiplier and shift \(\d+, 255\) outside"),
])
def test_load_names_the_bad_requant_entry(tmp_path, fmt, at, value, message):
    _, qp = _quantized(4, QuantScheme.PER_FEATURE)
    data = _saved_bytes(tmp_path, qp)
    off = _requant_entry_offset(qp, 2, 5)
    entry = qp.layers[2].requant[5]
    assert struct.unpack_from("<iBb", data, off) == entry.item()
    struct.pack_into(fmt, data, off + at, value)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match=message):
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


def _with_first_layer(qp, **change):
    return dataclasses.replace(qp, layers=(dataclasses.replace(qp.layers[0], **change),
                                           *qp.layers[1:]))


# each of these the file format cannot hold, so the model is refused when built
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda qp: dataclasses.replace(qp, obs_zp=200),
                 "obs_zp 200 outside int8 range", id="obs-zp"),
    pytest.param(lambda qp: _with_first_layer(qp, requant=[(1, 0, 5), (1, 0, -3)]),
                 r"requant table holds zero-points \[-3, 5\], a layer's output has one",
                 id="two-zero-points"),
    pytest.param(lambda qp: _with_first_layer(qp, weight_scales=np.ones(3)),
                 "layer 0 requant table has 1 entries and 3 weight scales, per_tensor needs 1",
                 id="weight-scales"),
])
def test_model_the_file_cannot_hold_is_rejected_when_built(build, message):
    _, qp = _quantized(2, QuantScheme.PER_TENSOR)
    with pytest.raises(DataError, match=message):
        build(qp)


# none of these reaches the file: the loader's own checks reject each first
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda qp: dataclasses.replace(qp, layers=qp.layers[:-1]),
                 "quantized layer count does not match spec", id="layer-count"),
    pytest.param(lambda qp: dataclasses.replace(qp, obs_scale=math.nan),
                 "obs_scale must be finite and > 0, got nan", id="obs-scale-nan"),
    pytest.param(lambda qp: dataclasses.replace(qp, obs_scale=0.0),
                 "obs_scale must be finite and > 0, got 0.0", id="obs-scale-0"),
    pytest.param(lambda qp: _with_first_layer(qp, weights=qp.layers[0].weights[:, 1:]),
                 r"layer 0 weight shape \(128, 23\) != \(128, 24\)", id="weight-shape"),
])
def test_inconsistent_model_is_rejected_when_built(build, message):
    _, qp = _quantized(2, QuantScheme.PER_TENSOR)
    with pytest.raises(DataError, match=message):
        build(qp)


def _output_zp_offset(qp, index):
    """Byte offset of layer `index`'s stored output zero-point, after its input copy."""
    return _scale_table_offset(qp, index) + 4 * (2 + len(qp.layers[index].weight_scales)) + 1


@pytest.mark.parametrize("index", [1, 2])
@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_load_rejects_output_zero_point_that_differs_from_its_table(tmp_path, scheme, index):
    # the kernel reads the table's zero-point; the next layer's bias fold, or
    # the action table, the stored one. A hidden layer's next input copy moves
    # with it, so the stored pairs agree with each other
    _, qp = _quantized(4, scheme)
    data = _saved_bytes(tmp_path, qp)
    zp = qp.layers[index].output_zp
    moved = (zp + 37 + 128) % 256 - 128
    struct.pack_into("<b", data, _output_zp_offset(qp, index), moved)
    if index + 1 < len(qp.layers):
        struct.pack_into("<b", data, _output_zp_offset(qp, index + 1) - 1, moved)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf"layer {index} output zero-point {moved} differs "
                                        rf"from its requant table's \[{zp}\]"):
        load_quantized(path)


def test_load_rejects_output_table_whose_zero_points_moved(tmp_path):
    # every action would move by 40 output steps: the kernel requantizes onto
    # the table's zero-point, and the action table dequantizes from the stored one
    _, qp = _quantized(4, QuantScheme.PER_FEATURE)
    out = qp.layers[-1]
    data = _saved_bytes(tmp_path, qp)
    for entry in range(len(out.requant)):  # a record is "<iBb": the zero-point at byte 5
        struct.pack_into("<b", data, _requant_entry_offset(qp, 2, entry) + 5, out.output_zp + 40)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf"layer 2 output zero-point {out.output_zp} differs "
                                        rf"from its requant table's \[{out.output_zp + 40}\]"):
        load_quantized(path)


@pytest.mark.parametrize("n_scales", [0, 1])
def test_load_rejects_scale_table_without_input_and_output_scale(tmp_path, n_scales):
    _, qp = _quantized(4, QuantScheme.PER_TENSOR)
    data = _saved_bytes(tmp_path, qp)
    off = _scale_table_offset(qp, 0)
    struct.pack_into("<H", data, off - 2, n_scales)
    del data[off + 4 * n_scales:off + 4 * (2 + len(qp.layers[0].weight_scales))]
    path = tmp_path / "short.bin"
    path.write_bytes(data)
    with pytest.raises(DataError, match=f"layer 0 scale table has {n_scales} entries"):
        load_quantized(path)


def test_quantized_policy_is_frozen():
    # each layer's kernel tables are built at construction; assignment would leave them stale
    _, qf = _quantized(2, QuantScheme.PER_FEATURE)
    _, qt = _quantized(3, QuantScheme.PER_FEATURE)
    assert isinstance(qf.layers, tuple)
    with pytest.raises(ValueError, match="read-only"):
        qf.layers[0].requant[0] = (1, 0, 0)
    for obj, field, value in ((qf, "layers", qt.layers), (qf, "act_shift", 3),
                              (qf, "scheme", QuantScheme.PER_TENSOR),
                              (qf.layers[0], "requant", qt.layers[0].requant)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, value)


def test_models_compare_and_hash_by_identity():
    # their ndarray fields have no one truth value, so a model equals only itself
    (pa, qa), (pb, qb) = (_quantized(4, QuantScheme.PER_FEATURE) for _ in range(2))
    for a, b in ((pa, pb), (qa, qb), (qa.layers[0], qb.layers[0])):
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


def test_quantized_policy_keeps_the_checked_spec():
    p, qp = _quantized(5, QuantScheme.PER_TENSOR)
    assert qp.spec is p.spec


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_kernel_tables_built_at_construction(scheme):
    _, qp = _quantized(6, scheme)
    for layer in qp.layers:
        n_out, n_in = layer.weights.shape
        # float32 holds every partial sum of int8 x int8 products exactly up to fan-in 1024
        assert layer.weights_t.shape == (n_in, n_out)
        assert layer.weights_t.dtype == (np.float32 if n_in <= 1024 else np.float64)
        np.testing.assert_array_equal(layer.weights_t, layer.weights.T)
        assert layer.bias_i64.dtype == np.int64
        np.testing.assert_array_equal(layer.bias_i64, layer.bias)
        # one table entry per output under both schemes; the per-tensor
        # requant table itself keeps its one entry, which the file stores
        per_tensor = scheme is QuantScheme.PER_TENSOR
        assert len(layer.requant) == (1 if per_tensor else n_out)
        rq = [RequantParams(*entry) for entry in layer.requant.tolist()]
        rq = rq * n_out if per_tensor else rq
        for table in (layer.mult, layer.shift, layer.offset):
            assert table.shape == (n_out,) and table.dtype == np.int64
        assert layer.mult.tolist() == [rp.mult for rp in rq]
        assert layer.shift.tolist() == [rp.shift for rp in rq]
        # the index offset: the shifted sum is the code's index in the kernel's table
        assert layer.offset.tolist() == [rp.round_term + (rp.zero_point + 128) * 2 ** rp.shift
                                         for rp in rq]
    # the action table holds every int8 code's dequantized value, bit for bit
    out = qp.layers[-1]
    assert out.output_zp != 0
    codes = np.arange(-128, 128).astype(np.int8)
    table = qp.action_table
    assert table.shape == (256,) and table.dtype == np.float64 and not table.flags.writeable
    want = dequantize_action(codes, out.output_scale, out.output_zp)
    assert table.take(codes, mode="wrap").view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # the output bias folded into the output requant addend, in Python ints
    addend = qp.out_addend
    assert addend.dtype == np.int64 and not addend.flags.writeable
    assert addend.tolist() == [m * b + o for m, b, o in
                               zip(out.mult.tolist(), out.bias.tolist(), out.offset.tolist())]


def test_shared_0d_operands_are_read_only():
    from microgait import kernel
    _, qp = _quantized(6, QuantScheme.PER_FEATURE)
    for operand, dtype in ((qp.act_mult_0d, np.int64), (qp.act_shift_0d, np.int64),
                           (qp.obs_scale_0d, np.float64), (qp.obs_zp_0d, np.float64),
                           (kernel._OBS_MIN, np.float64), (kernel._OBS_MAX, np.float64)):
        assert operand.shape == () and operand.dtype == dtype
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 0
    # requantize's saturating tables: code i - 128 at index i, int8 for the
    # output layer and float32 for hidden layers
    for codes, dtype in ((kernel._INT8_CODES, np.int8), (kernel._F32_CODES, np.float32)):
        assert codes.shape == (256,) and codes.dtype == dtype
        assert codes.tolist() == [i - 128 for i in range(256)]
        with pytest.raises(ValueError, match="read-only"):
            codes[...] = 0
    assert (int(qp.act_mult_0d), int(qp.act_shift_0d)) == (qp.act_mult, qp.act_shift)
    assert (float(qp.obs_scale_0d), float(qp.obs_zp_0d)) == (qp.obs_scale, qp.obs_zp)


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_load_rejects_empty_requant_table(tmp_path, scheme):
    # a layer whose requant table has no entry and whose scale table has no
    # weight scale, so only the table-length check can reject it
    _, qp = _quantized(2, scheme)
    empty = dataclasses.replace(qp.layers[0], weight_scales=np.ones(0), requant=[])
    assert empty.mult.shape == (0,)
    fields = {f.name: getattr(qp, f.name) for f in dataclasses.fields(qp)}
    save_quantized(types.SimpleNamespace(**{**fields, "layers": (empty, *qp.layers[1:])}),
                   tmp_path / "empty.bin")
    with pytest.raises(DataError, match="layer 0 requant table has 0 entries"):
        load_quantized(tmp_path / "empty.bin")


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_fused_output_tracks_fp32(scheme):
    from microgait.kernel import fused_infer_dequant
    p, qp = _quantized(11, scheme)
    calib = _calib(1011)
    ref = np.array([infer_fp32(p, row) for row in calib])
    tst = np.array([fused_infer_dequant(qp, row) for row in calib])
    assert sqnr_db(ref, tst) > 15.0
