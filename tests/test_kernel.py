import math
import ctypes
import os
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microgait.errors import DataError
from microgait.kernel import fused_infer_dequant, infer_int8, quantize_obs
from microgait.policy import BLOCK_ROWS, PolicySpec, leaky_relu, random_policy
from microgait.quant import (
    OpCounters,
    QuantizedLayer,
    QuantizedPolicy,
    QuantScheme,
    encode_ratio,
    expected_counters,
    load_quantized,
    quantize_policy,
    save_quantized,
)
from oracles import RequantParams, int8_forward_bigint, requantize_unbounded

# Near the largest fan-in the int32 headroom check admits (66311 with zero
# bias): partial sums of int8 x int8 products reach ~2^30 here, far past the
# 2^24 where float32 accumulation stops being exact.
WIDE_FAN_IN = 66_000


def _quantized(seed, scheme, dims=(24, 128, 64, 8)):
    p = random_policy(PolicySpec(dims, leaky_relu()), seed, row_scale_spread=0.5)
    calib = np.random.default_rng(1000 + seed).normal(size=(64, dims[0]))
    return quantize_policy(p, scheme, calib)


def _random_qp(rng, dims, scheme):
    """A QuantizedPolicy with random int8 weights, biases within the headroom
    and requant scales that spread typical outputs over the int8 range."""
    per_feature = scheme is QuantScheme.PER_FEATURE
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        room = min(2 ** 31 - 1 - n_in * 127 * 255, 2 ** 20)
        typical = 73 * 74 * math.sqrt(n_in)  # rms of a sum of n_in random int8 products
        ratios = 64 / typical * rng.uniform(0.25, 4.0, size=n_out if per_feature else 1)
        zp = int(rng.integers(-128, 128))  # one per layer: an int8 tensor has one zero-point
        requant = [RequantParams(*encode_ratio(float(r)), zp) for r in ratios]
        layers.append(QuantizedLayer(
            weights=rng.integers(-127, 128, size=(n_out, n_in), dtype=np.int8),
            bias=rng.integers(-room, room + 1, size=n_out).astype(np.int32),
            weight_scales=np.ones(len(requant)), output_scale=1.0, requant=requant))
    act_mult, act_shift = encode_ratio(float(rng.uniform(0.01, 1.0)))
    return QuantizedPolicy(PolicySpec(tuple(dims), leaky_relu()), scheme, layers,
                           1.0, 0, act_mult, act_shift)


def test_expected_counters_reference():
    spec = PolicySpec((24, 128, 64, 8))
    pf = expected_counters(spec, QuantScheme.PER_FEATURE)
    pt = expected_counters(spec, QuantScheme.PER_TENSOR)
    assert (pf.macs, pf.activations, pf.requants, pf.param_loads) == (11776, 192, 200, 200)
    assert (pt.macs, pt.activations, pt.requants, pt.param_loads) == (11776, 192, 200, 0)


def test_quantize_obs_rounds_and_clips():
    q = quantize_obs(np.array([0.0, 0.26, -100.0, 100.0]), 0.5, 3)
    np.testing.assert_array_equal(q, np.array([3, 4, -128, 127], dtype=np.int8))
    assert q.dtype == np.int8


def test_quantize_obs_leaves_float64_input_unchanged():
    obs = np.array([[0.0, 0.26, -100.0], [1.5, -0.74, 100.0]])
    before = obs.copy()
    quantize_obs(obs, 0.5, 3)
    quantize_obs(obs[0], 0.5, 3)
    np.testing.assert_array_equal(obs, before)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(list(QuantScheme)))
def test_quantize_obs_same_bits_with_0d_operands(seed, scheme):
    # the policy's 0-d operands and the Python numbers they hold quantize alike
    qp = _quantized(seed % 3, scheme, dims=(24, 8))
    obs = np.random.default_rng(seed).normal(scale=4.0, size=(3, 24))
    for x in (obs, obs[0], obs[0].astype(np.float32)):
        want = quantize_obs(x, qp.obs_scale, qp.obs_zp)
        got = quantize_obs(x, qp.obs_scale_0d, qp.obs_zp_0d)
        assert got.dtype == np.int8 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@settings(max_examples=25, deadline=None)
@given(slot=st.integers(0, (BLOCK_ROWS + 5) * 24 - 1))
@example(slot=2 * 24 + 5)
def test_quantize_obs_rejects_non_finite(bad, slot):
    with pytest.raises(DataError, match="non-finite"):
        quantize_obs(np.full(24, bad), 0.5, 0)
    obs = np.zeros(24)
    obs[slot % 24] = bad
    with pytest.raises(DataError, match="non-finite"):
        quantize_obs(obs, 0.5, 0)
    obs = np.zeros((BLOCK_ROWS + 5, 24))
    obs.flat[slot] = bad
    with pytest.raises(DataError, match="non-finite"):
        quantize_obs(obs, 0.5, 0)


def test_infer_rejects_wrong_input():
    qp = _quantized(0, QuantScheme.PER_TENSOR)
    for bad in (np.zeros(24, dtype=np.int32), np.zeros((4, 24), dtype=np.float64),
                np.zeros(23, dtype=np.int8), np.zeros((4, 25), dtype=np.int8),
                np.zeros((2, 4, 24), dtype=np.int8), np.int8(0)):
        with pytest.raises(DataError):
            infer_int8(qp, bad)


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(list(QuantScheme)),
       widths=st.lists(st.integers(1, 40), min_size=2, max_size=4),
       wide=st.booleans(),
       batch=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batch_equals_stacked_single_calls(scheme, widths, wide, batch, seed):
    rng = np.random.default_rng(seed)
    dims = [WIDE_FAN_IN, min(widths[1], 4)] + widths[2:] if wide else widths
    qp = _random_qp(rng, dims, scheme)
    obs = rng.integers(-128, 128, size=(batch, dims[0]), dtype=np.int8)
    if batch:
        # saturated inputs matching the signs of the first weight row push
        # the first accumulator to its largest magnitude
        obs[0] = np.where(qp.layers[0].weights[0] >= 0, 127, -128)

    got, counters = infer_int8(qp, obs)

    assert got.dtype == np.int8 and got.shape == (batch, dims[-1])
    expected = expected_counters(qp.spec, scheme)
    assert counters == OpCounters(*(batch * v for v in astuple(expected)))
    singles = [infer_int8(qp, row) for row in obs]
    for row_got, (want, ops) in zip(got, singles):
        np.testing.assert_array_equal(row_got, want)
        assert ops == expected
    for i in rng.choice(batch, size=min(batch, 2), replace=False):
        np.testing.assert_array_equal(got[i], int8_forward_bigint(qp, obs[i]))


@pytest.mark.parametrize("scheme", list(QuantScheme))
def test_actions_carry_the_wire_int8_dtype_object(scheme):
    # wire's encoder skips its value check only for the payload dtype object itself
    qp = _quantized(2, scheme)
    obs = np.random.default_rng(2).integers(-128, 128, size=(BLOCK_ROWS + 1, 24), dtype=np.int8)
    for x in (obs[0], obs):
        assert infer_int8(qp, x)[0].dtype is np.dtype("<i1")


@pytest.mark.parametrize("scheme", list(QuantScheme))
@pytest.mark.parametrize("batch", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
def test_blocked_batch_equals_single_calls(scheme, batch):
    rng = np.random.default_rng(batch)
    qp = _random_qp(rng, [37, 29, 11, 5], scheme)
    obs = rng.integers(-128, 128, size=(batch, 37), dtype=np.int8)

    got, counters = infer_int8(qp, obs)

    expected = expected_counters(qp.spec, scheme)
    assert counters == OpCounters(*(batch * v for v in astuple(expected)))
    np.testing.assert_array_equal(got, np.stack([infer_int8(qp, row)[0] for row in obs]))
    # rows on each side of every block boundary, and the last row
    for i in {0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, batch - 1}:
        if i < batch:
            np.testing.assert_array_equal(got[i], int8_forward_bigint(qp, obs[i]))


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_rows():
    qp = _quantized(6, QuantScheme.PER_FEATURE)
    obs = np.random.default_rng(4).integers(-128, 128, size=(8 * BLOCK_ROWS, 24), dtype=np.int8)
    one_block, eight_blocks = (_traced_peak(infer_int8, qp, rows) for rows in (obs[:BLOCK_ROWS], obs))
    assert eight_blocks <= 2 * one_block, f"peak {eight_blocks} B for 8 blocks, {one_block} B for one"


def test_quantize_memory_grows_by_two_layer_outputs_per_row():
    """The calibration pass holds a layer's float32 input and output, and
    adds the bias and activates over row blocks in place, so from 1 to 8 blocks
    of rows the traced peak grows by at most 4 * max(n_i + n_(i+1)) bytes per
    row (768 on this network), plus 5% slack."""
    dims = (24, 128, 64, 8)
    p = random_policy(PolicySpec(dims, leaky_relu()), 6)
    calib = np.random.default_rng(4).normal(size=(8 * BLOCK_ROWS, 24)).astype(np.float32)
    per_row = 4 * max(a + b for a, b in zip(dims, dims[1:]))
    one_block, eight_blocks = (_traced_peak(quantize_policy, p, QuantScheme.PER_FEATURE, rows)
                               for rows in (calib[:BLOCK_ROWS], calib))
    growth = (eight_blocks - one_block) / (7 * BLOCK_ROWS)
    assert growth <= 1.05 * per_row, f"peak grows {growth:.0f} B per row, bound {per_row} B"


def _identity_model(w: np.ndarray, bias: int) -> QuantizedPolicy:
    """One layer with weight row w and one output, whose identity requant
    passes an accumulator in the int8 range through unchanged."""
    layer = QuantizedLayer(
        weights=w[None, :].copy(), bias=np.array([bias], dtype=np.int32),
        weight_scales=np.ones(1), output_scale=1.0, requant=[RequantParams(1, 0, 0)])
    return QuantizedPolicy(PolicySpec((len(w), 1), leaky_relu()), QuantScheme.PER_TENSOR,
                           [layer], 1.0, 0, 1, 7)


def test_accumulation_exact_where_partial_sums_cancel():
    """Partial sums climb to about 2^28 and cancel to a small accumulator that the
    identity requant passes through unchanged, so any rounding in the
    accumulation shows in the output."""
    rng = np.random.default_rng(12)
    n_in = WIDE_FAN_IN
    w = rng.integers(-127, 128, size=n_in, dtype=np.int8)
    x = np.where(w >= 0, 127, -128).astype(np.int8)
    half = n_in // 2
    x[half:] = np.where(w[half:] >= 0, -128, 127)
    dot = int(np.dot(w.astype(np.int64), x.astype(np.int64)))
    for target in (-77, 0, 1, 100):
        qp = _identity_model(w, target - dot)
        for obs in (x, np.stack([x, x])):
            got, _ = infer_int8(qp, obs)
            assert np.all(got == target)
        assert int8_forward_bigint(qp, x)[0] == target


# The widest fan-in whose accumulation runs in float32: an int8 x int8 product
# is at most 2^14 in magnitude (-128 x -128), so every partial sum of 1024 of
# them is an integer of at most 2^24, which float32 holds exactly.
F32_FAN_IN = 1024


@pytest.mark.parametrize("n_in, dtype", [(1, np.float32), (F32_FAN_IN, np.float32),
                                         (F32_FAN_IN + 1, np.float64),
                                         (WIDE_FAN_IN, np.float64)])
def test_accumulator_dtype_follows_fan_in(n_in, dtype):
    layer = _identity_model(np.zeros(n_in, dtype=np.int8), 0).layers[0]
    assert layer.weights_t.dtype == dtype and layer.weights_t.shape == (n_in, 1)
    assert layer.bias_i64.dtype == np.int64


def _edge_rows(n_in):
    """(w, x) pairs of fan-in n_in whose partial sums run to the edge of float32's integers."""
    saturated = np.full(n_in, -128, dtype=np.int8)  # every product +2^14: w . x = n_in * 2^14
    # all but the last product +2^14, the last -127 x 127: an odd w . x just below
    # (n_in - 1) * 2^14, where float32's spacing at fan-in 1024 is 1
    w_odd, x_odd = saturated.copy(), saturated.copy()
    w_odd[-1], x_odd[-1] = -127, 127
    # 509 products +2^14 climb to 8,339,456 (0.994 x 2^23, the most a dot that
    # cancels can reach at fan-in 1024), 514 products -128 x 127 bring it to
    # -16,128, and 127 x 127 ends it at 1
    w_cancel, x_cancel = saturated.copy(), saturated.copy()
    x_cancel[509:] = 127
    w_cancel[-1] = x_cancel[-1] = 127
    return {"saturated": (saturated, saturated), "odd": (w_odd, x_odd),
            "cancelling": (w_cancel, x_cancel)}


@pytest.mark.parametrize("case", ["saturated", "odd", "cancelling"])
@pytest.mark.parametrize("n_in", [F32_FAN_IN, F32_FAN_IN + 1])
def test_accumulation_exact_at_the_float32_fan_in_bound(n_in, case):
    """The largest fan-in on float32 and the smallest on float64, with partial
    sums at 2^24, odd just below it, and cancelling from near 2^23 to an odd 1;
    the bias brings each to a small odd accumulator that the identity requant
    passes through, so any rounding shows in the output."""
    w, x = _edge_rows(n_in)[case]
    dot = int(np.dot(w.astype(np.int64), x.astype(np.int64)))
    if n_in == F32_FAN_IN:
        assert dot == {"saturated": 2 ** 24, "odd": 2 ** 24 - 2 ** 14 - 127 * 127,
                       "cancelling": 1}[case]
    for target in (-77, 1, 101):
        qp = _identity_model(w, target - dot)
        for obs in (x, np.stack([x] * (BLOCK_ROWS + 1))):  # a row, and two blocks
            got, _ = infer_int8(qp, obs)
            assert np.all(got == target)
        assert int8_forward_bigint(qp, x)[0] == target


# The int8 kernel against the big-integer oracle, in a process of its own:
# OpenBLAS picks its kernel once, when numpy loads. The reference network under
# both schemes and a fan-in-1024 model accumulate in float32, a WIDE_FAN_IN one
# in float64; each runs single rows and a batch of rows.
_ORACLE_CHECK = """
import ctypes, sys
import numpy as np
sys.path.insert(0, sys.argv[2])
from oracles import int8_forward_bigint
from test_kernel import BLOCK_ROWS, F32_FAN_IN, WIDE_FAN_IN, _quantized, _random_qp
from microgait.kernel import infer_int8
from microgait.quant import QuantScheme
rng = np.random.default_rng(0)
models = [_quantized(9, scheme) for scheme in QuantScheme]
models += [_random_qp(rng, dims, QuantScheme.PER_FEATURE)
           for dims in ((F32_FAN_IN, 16, 8), (WIDE_FAN_IN, 4))]
bad = 0
for qp in models:
    n_in = qp.spec.input_dim
    rows = BLOCK_ROWS + 3 if n_in <= F32_FAN_IN else 3  # two blocks, or one small one
    obs = rng.integers(-128, 128, size=(rows, n_in), dtype=np.int8)
    obs[0] = np.where(qp.layers[0].weights[0] >= 0, 127, -128)
    block, _ = infer_int8(qp, obs)
    for i in sorted({0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, rows - 1} & set(range(rows))):
        want = int8_forward_bigint(qp, obs[i])
        bad += int((block[i] != want).any()) + int((infer_int8(qp, obs[i])[0] != want).any())
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype, corename.argtypes = ctypes.c_char_p, []
print(corename().decode(), bad)
"""


def test_matches_bigint_oracle_on_other_blas_kernels(run_python, openblas_lib, blas_coretype):
    run = run_python(_ORACLE_CHECK, openblas_lib, os.path.dirname(__file__), timeout=120,
                     OPENBLAS_CORETYPE=blas_coretype, OPENBLAS_NUM_THREADS="1")
    assert run.returncode == 0, run.stderr
    corename, bad = run.stdout.split()
    assert bad == "0", f"{bad} single-row or batch results differ from the oracle under {corename}"


def test_blas_runs_one_thread(openblas_lib):
    # tests/conftest.py pins the thread count before numpy loads; numpy's
    # wheels bundle scipy-openblas, which ctypes reaches in the copy already loaded
    get_num_threads = ctypes.CDLL(openblas_lib).scipy_openblas_get_num_threads64_
    get_num_threads.restype = ctypes.c_int
    get_num_threads.argtypes = []
    assert get_num_threads() == 1


def test_batch_much_faster_than_single_calls():
    qp = _quantized(5, QuantScheme.PER_FEATURE)
    obs = np.random.default_rng(3).integers(-128, 128, size=(2048, 24), dtype=np.int8)

    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    batched_times, single_times = [], []
    for _ in range(4):  # interleaved, so a change in host speed hits both alike
        batched_times.append(timed(lambda: infer_int8(qp, obs)))
        single_times.append(timed(lambda: [infer_int8(qp, row) for row in obs]))
    batched, single = min(batched_times), min(single_times)
    assert single >= 4 * batched, f"2048 single calls {single:.4f} s, one batch {batched:.4f} s"


@pytest.mark.parametrize("scheme", list(QuantScheme))
@pytest.mark.parametrize("dims", [(24, 128, 64, 8), (6, 5, 3), (4, 4)])
def test_matches_bigint_oracle(scheme, dims):
    qp = _quantized(hash((scheme.value, dims)) % 1000, scheme, dims)
    rng = np.random.default_rng(7)
    for _ in range(20):
        obs_q = rng.integers(-128, 128, size=dims[0]).astype(np.int8)
        got, counters = infer_int8(qp, obs_q)
        want = int8_forward_bigint(qp, obs_q)
        np.testing.assert_array_equal(got, want)
        exp = expected_counters(qp.spec, scheme)
        assert (counters.macs, counters.activations,
                counters.requants, counters.param_loads) == \
            (exp.macs, exp.activations, exp.requants, exp.param_loads)


# Requant and leaky-relu tables at the ends of their ranges: shift 0 and 31,
# mult 0 and 2^31 - 1, zero-point -128 and 127; slope 0 and 1 at shift 0 and 31.
CORNER_REQUANTS = [RequantParams(m, s, zp) for m in (0, 2 ** 31 - 1)
                   for s in (0, 31) for zp in (-128, 127)]
EXTREME_REQUANTS = CORNER_REQUANTS + [RequantParams(m, s, zp) for m in (1, 2 ** 31 - 1)
                                      for s in (1, 13) for zp in (-128, 0, 127)]
EXTREME_SLOPES = [(0, 0), (1, 0), (0, 31), (1 << 31, 31), encode_ratio(0.01)]
# (scheme, table): a per-feature table takes the entries of one zero-point, as an
# int8 tensor has one. The ids are positional, so zero-points 0 and 127 come last
_PER_FEATURE = [(QuantScheme.PER_FEATURE, [rp for rp in EXTREME_REQUANTS if rp.zero_point == zp])
                for zp in (-128, 0, 127)]
EXTREME_TABLES = [_PER_FEATURE[0], *((QuantScheme.PER_TENSOR, [rp]) for rp in CORNER_REQUANTS),
                  *_PER_FEATURE[1:]]


def _extreme_qp(scheme, requants, act, dims=(4, 27, 27, 5)):
    """Weights at +-127 and biases at +-(2^31 - 1 - n_in * 127 * 255), the
    largest the int32 headroom check admits, so accumulators come within
    n_in * 127 * 128 of +-2^31; requant entries cycle through `requants`."""
    rng = np.random.default_rng(17)
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        room = 2 ** 31 - 1 - n_in * 127 * 255
        sign = np.where(np.arange(n_out) % 3 == 0, 1, -1)
        weights = np.repeat((127 * sign)[:, None], n_in, axis=1)
        weights[n_out // 2:] = rng.integers(-127, 128, size=(n_out - n_out // 2, n_in))
        bias = np.where(np.arange(n_out) % 4 == 3, 0, room * sign)
        entries = n_out if scheme is QuantScheme.PER_FEATURE else 1
        rq = [requants[i % len(requants)] for i in range(entries)]
        layers.append(QuantizedLayer(
            weights=weights.astype(np.int8), bias=bias.astype(np.int32),
            weight_scales=np.ones(entries), output_scale=1.0, requant=rq))
    return QuantizedPolicy(PolicySpec(dims, leaky_relu()), scheme, layers, 1.0, 0, *act)


@pytest.mark.parametrize("act", EXTREME_SLOPES)
@pytest.mark.parametrize("scheme, requants", EXTREME_TABLES)
def test_extreme_tables_match_bigint_oracle(scheme, requants, act):
    qp = _extreme_qp(scheme, requants, act)
    n_in = qp.spec.input_dim
    rng = np.random.default_rng(5)
    obs = np.concatenate([np.full((1, n_in), -128), np.full((1, n_in), 127),
                          rng.integers(-128, 128, size=(14, n_in))]).astype(np.int8)
    # the first layer's accumulators do reach the edge of the int32 range
    first = qp.layers[0]
    acc = obs.astype(np.int64) @ first.weights.T.astype(np.int64) + first.bias
    assert acc.max() == -acc.min() == 2 ** 31 - 1 - n_in * 127 * 128
    # so do the output layer's wherever every code into it is 127: per-tensor
    # tables of zero-point 127 whose multiplier or slope is 0. Other tables
    # give codes of both signs, or unsaturated ones, whatever the observation
    codes = obs.astype(np.int64)
    for layer in qp.layers[:-1]:
        hidden = codes @ layer.weights.T.astype(np.int64) + layer.bias
        hidden = np.maximum(hidden, (hidden * qp.act_mult) >> qp.act_shift)
        entries = layer.requant.tolist() * (layer.weights.shape[0] // len(layer.requant))
        codes = np.array([[requantize_unbounded(a, *rp) for a, rp in zip(row, entries)]
                          for row in hidden.tolist()])
    out = qp.layers[-1]
    acc = codes @ out.weights.T.astype(np.int64) + out.bias
    head = requants[0]
    if scheme is QuantScheme.PER_TENSOR and head.zero_point == 127 and 0 in (head.mult, act[0]):
        assert acc.max() == -acc.min() == 2 ** 31 - 1 - out.weights.shape[1] * 127 * 128
    # the folded output addend mult * bias + offset comes within 2^51 of +-2^62
    # wherever a multiplier of 2^31 - 1 meets a bias at the headroom limit
    if 2 ** 31 - 1 in out.mult.tolist():
        assert np.abs(qp.out_addend).max() > 2 ** 62 - 2 ** 51

    want = np.stack([int8_forward_bigint(qp, row) for row in obs])
    batched, _ = infer_int8(qp, obs)
    np.testing.assert_array_equal(batched, want)
    np.testing.assert_array_equal(np.stack([infer_int8(qp, row)[0] for row in obs]), want)


@pytest.mark.parametrize("dims, scheme, message", [
    ((WIDE_FAN_IN, 4), QuantScheme.PER_TENSOR, "layer width 66000 "),
    ((WIDE_FAN_IN, 4), QuantScheme.PER_FEATURE, "layer width 66000 "),
    ((1, 65534), QuantScheme.PER_FEATURE, "layer 0 scale table has 65536 entries"),
])
def test_save_rejects_a_model_a_file_cannot_hold(tmp_path, dims, scheme, message):
    # the kernel runs these models; the file's u16 widths and scale counts cannot hold them
    path = tmp_path / "q.bin"
    with pytest.raises(DataError, match=message):
        save_quantized(_random_qp(np.random.default_rng(0), dims, scheme), path)
    assert not path.exists()


def test_hand_built_models_round_trip_through_a_file(tmp_path):
    # every model the tests above build by hand is one the file format holds
    models = [_random_qp(np.random.default_rng(seed), dims, scheme) for seed, dims in
              enumerate([(24, 128, 64, 8), (37, 29, 11, 5), (6, 5, 3), (4, 4), (1, 1)])
              for scheme in QuantScheme]
    models += [_extreme_qp(scheme, requants, act)
               for act in EXTREME_SLOPES for scheme, requants in EXTREME_TABLES]
    assert len(models) == 65
    path = tmp_path / "q.bin"
    for qp in models:
        save_quantized(qp, path)
        back = load_quantized(path)
        assert (back.scheme, back.spec.layer_dims, back.obs_scale, back.obs_zp,
                back.act_mult, back.act_shift) == (qp.scheme, qp.spec.layer_dims, qp.obs_scale,
                                                   qp.obs_zp, qp.act_mult, qp.act_shift)
        for a, b in zip(back.layers, qp.layers, strict=True):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
            assert a.requant.tobytes() == b.requant.tobytes()
            assert (a.output_scale, a.output_zp) == (b.output_scale, b.output_zp)
            assert a.weight_scales.tolist() == b.weight_scales.tolist()
            for table in ("mult", "shift", "offset"):
                np.testing.assert_array_equal(getattr(a, table), getattr(b, table))


# The largest |acc| a layer of fan-in 1 reaches: the headroom check admits
# |bias| <= 2^31 - 1 - 127 * 255, and the one product adds up to 127 * 128.
ACC_REACH = 2 ** 31 - 1 - 127 * 127


@st.composite
def _slopes(draw):
    shift = draw(st.integers(0, 31))
    return draw(st.integers(0, 1 << shift)), shift


@settings(max_examples=200, deadline=None)
@given(acc=st.integers(-ACC_REACH, ACC_REACH), slope=_slopes())
@example(acc=ACC_REACH, slope=(0, 0)).via("endpoint")
@example(acc=ACC_REACH, slope=(1, 0)).via("endpoint")
@example(acc=ACC_REACH, slope=(0, 31)).via("endpoint")
@example(acc=ACC_REACH, slope=(1 << 31, 31)).via("endpoint")
@example(acc=-ACC_REACH, slope=(0, 0)).via("endpoint")
@example(acc=-ACC_REACH, slope=(1, 0)).via("endpoint")
@example(acc=-ACC_REACH, slope=(0, 31)).via("endpoint")
@example(acc=-ACC_REACH, slope=(1 << 31, 31)).via("endpoint")
def test_integer_leaky_relu_matches_unbounded_form(acc, slope):
    """One hidden accumulator `acc` through the kernel's leaky-relu, seen
    through 32 requant windows: hidden output j is the activated value
    rounded and shifted right by j, and the output layer passes it through."""
    act_mult, act_shift = slope
    w = -127 if acc >= 0 else 127  # times the observation -128
    hidden = QuantizedLayer(
        weights=np.full((32, 1), w, dtype=np.int8),
        bias=np.full(32, acc + 128 * w, dtype=np.int32),
        weight_scales=np.ones(32), output_scale=1.0,
        requant=[RequantParams(1, j, 0) for j in range(32)])
    out = QuantizedLayer(
        weights=np.eye(32, dtype=np.int8), bias=np.zeros(32, dtype=np.int32),
        weight_scales=np.ones(32), output_scale=1.0, requant=[RequantParams(1, 0, 0)] * 32)
    qp = QuantizedPolicy(PolicySpec((1, 32, 32), leaky_relu()), QuantScheme.PER_FEATURE,
                         [hidden, out], 1.0, 0, act_mult, act_shift)
    obs = np.array([-128], dtype=np.int8)

    activated = max(acc, 0) + ((min(acc, 0) * act_mult) >> act_shift)
    want = [requantize_unbounded(activated, 1, j, 0) for j in range(32)]
    got, _ = infer_int8(qp, obs)
    assert got.tolist() == want
    assert int8_forward_bigint(qp, obs).tolist() == want


def test_deterministic():
    qp = _quantized(3, QuantScheme.PER_FEATURE)
    obs_q = np.random.default_rng(0).integers(-128, 128, size=24).astype(np.int8)
    a, _ = infer_int8(qp, obs_q)
    b, _ = infer_int8(qp, obs_q)
    assert a.tobytes() == b.tobytes()


def test_fused_path_composes():
    from microgait.quant import dequantize_action
    qp = _quantized(4, QuantScheme.PER_FEATURE)
    out = qp.layers[-1]
    for shape in ((24,), (5, 24)):
        obs = np.random.default_rng(1).normal(size=shape)
        direct = fused_infer_dequant(qp, obs)
        obs_q = quantize_obs(obs, qp.obs_scale, qp.obs_zp)
        action_q, _ = infer_int8(qp, obs_q)
        # bytes, not assert_array_equal, which takes -0.0 and 0.0 as equal
        assert direct.tobytes() == dequantize_action(
            action_q, out.output_scale, out.output_zp).tobytes()
