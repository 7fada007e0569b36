"""Integer-only forward pass with exact operation counters.

This is the measurable analogue of the on-device scalar inference loop:
int8 x int8 products accumulated in int32, an integer leaky-relu applied to
the accumulator on hidden layers, then a fixed-point requantize per neuron
output whose scale is calibrated on the post-activation range, saturated by
one clip-mode take of the 256 int8 codes. One code path serves both quant
schemes and single or batched observations. Counters report exactly how many
MACs, activations, requantizations, and extra per-output parameter loads a
call performs, summed over its observations: every observation runs the same
fixed network, so that is B x expected_counters.
"""
from __future__ import annotations

from dataclasses import astuple

import numpy as np

from .errors import DataError
from .policy import BLOCK_ROWS, const_0d
# dequantize_action and expected_counters are unused here: perfbench's tracer
# rebinds kernel.dequantize_action, and perfbench reads kernel.expected_counters
from .quant import (INT8_MAX, INT8_MIN, OpCounters, QuantizedLayer, QuantizedPolicy,
                    dequantize_action, expected_counters)

# int8 code c at index c + 128: requantize saturates by a clip-mode take of this table
_INT8_CODES = np.arange(INT8_MIN, INT8_MAX + 1, dtype=np.int8)
_INT8_CODES.flags.writeable = False
_OBS_MIN, _OBS_MAX = const_0d(INT8_MIN, np.float64), const_0d(INT8_MAX, np.float64)


def quantize_obs(obs: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    """clip(round(obs / scale) + zero_point) into int8, elementwise; obs must be finite."""
    # np.array, not np.asarray: the steps below run in place on this one
    # float64 copy, and asarray would hand back a float64 input itself
    q = np.array(obs, dtype=np.float64)
    if np.count_nonzero(np.isfinite(q)) != q.size:
        raise DataError("observation has a non-finite value")
    # on float64 q a Python number gives the same bits as the runtimes' 0-d float64 operands
    q /= scale
    np.rint(q, out=q)
    q += zero_point
    # two in-place ufuncs: on one observation np.clip's Python wrapper costs
    # more than the clamp itself
    np.maximum(q, _OBS_MIN, out=q)
    np.minimum(q, _OBS_MAX, out=q)
    return q.astype(np.int8)


def infer_int8(qp: QuantizedPolicy, obs_q: np.ndarray) -> tuple[np.ndarray, OpCounters]:
    """Forward pass on one int8 observation (n_in,) or a batch (B, n_in).

    Returns the int8 actions, (n_out,) or (B, n_out), and the counters of all
    inferences run: B x expected_counters for a batch. A batch runs in blocks
    of BLOCK_ROWS rows, so its temporaries do not grow with B.
    """
    x = np.asarray(obs_q)
    n_in = qp.spec.input_dim
    if x.dtype != np.int8 or x.ndim not in (1, 2) or x.shape[-1] != n_in:
        raise DataError(f"expected int8 observations of shape ({n_in},) or (B, {n_in}), "
                        f"got {x.dtype} {x.shape}")
    per_row = qp.row_counters
    if x.ndim == 1:
        return _forward_int8(qp, x), per_row
    batch = x.shape[0]
    out = np.empty((batch, qp.spec.layer_dims[-1]), dtype=np.int8)
    for start in range(0, batch, BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = _forward_int8(qp, x[start:start + BLOCK_ROWS])
    return out, OpCounters(*(batch * v for v in astuple(per_row)))


def _forward_int8(qp: QuantizedPolicy, x: np.ndarray) -> np.ndarray:
    last = qp.spec.num_layers - 1
    # integer leaky-relu max(acc, 0) + ((min(acc, 0) * act_mult) >> act_shift)
    # as max(acc, (acc * act_mult) >> act_shift): for 0 <= act_mult <= 2^act_shift
    # the shifted product is at most acc where acc >= 0, at least acc where acc < 0.
    # It fits int64: |acc| < 2^31 by the headroom check, act_mult <= 2^31
    act_mult, act_shift = qp.act_mult_0d, qp.act_shift_0d
    # int32 accumulate, done in floats through BLAS: dot converts the int8 codes
    # exactly, and every partial sum of int8 x int8 products is an integer of at
    # most n_in * 2^14: up to 2^24, exact in the float32 weights_t, to fan-in 1024,
    # and below 2^31 (the headroom check) in float64 beyond, so one dot (gemv on a
    # row, gemm on a block) is exact in any order; the int64 bias adds after it
    for li, layer in enumerate(qp.layers):
        acc = x.dot(layer.weights_t).astype(np.int64)
        acc += layer.bias_i64

        if li != last:
            neg = acc * act_mult
            neg >>= act_shift
            np.maximum(acc, neg, out=acc)

        x = requantize(acc, layer)

    return x


def requantize(acc: np.ndarray, layer: QuantizedLayer) -> np.ndarray:
    """The int8 codes clip(((mult * acc + round_term) >> shift) + zero_point), |acc| < 2^31.

    Overwrites acc. layer.offset adds 128 << shift, so the shifted sum (below
    2^62 + 2^40) indexes _INT8_CODES, and the clip-mode take saturates it.
    """
    acc *= layer.mult
    acc += layer.offset
    acc >>= layer.shift
    return _INT8_CODES.take(acc, mode="clip")


def fused_infer_dequant(qp: QuantizedPolicy, obs: np.ndarray) -> np.ndarray:
    """Quantize observations, (n_in,) or (B, n_in), run int8 inference, dequantize the actions."""
    obs_q = quantize_obs(obs, qp.obs_scale_0d, qp.obs_zp_0d)
    action_q, _ = infer_int8(qp, obs_q)
    # mode="wrap" maps int8 code c to index c mod 256, where the table holds its value
    return qp.action_table.take(action_q, mode="wrap")
