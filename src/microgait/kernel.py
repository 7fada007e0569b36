"""Integer-only forward pass with exact operation counters.

This is the measurable analogue of the on-device scalar inference loop:
int8 x int8 products accumulated in int32, an integer leaky-relu applied to
the accumulator on hidden layers, then a fixed-point requantize per neuron
output whose scale is calibrated on the post-activation range. One code
path serves both quant schemes and single or batched observations. Counters
report exactly how many MACs, activations, requantizations, and extra
per-output parameter loads a call performs, summed over its observations:
every observation runs the same fixed network, so that is B x
expected_counters.
"""
from __future__ import annotations

from dataclasses import astuple

import numpy as np

from .errors import DataError
from .policy import BLOCK_ROWS
# expected_counters is unused here: perfbench reads it as kernel.expected_counters
from .quant import (INT8_MAX, INT8_MIN, OpCounters, QuantizedLayer, QuantizedPolicy,
                    dequantize_action, expected_counters)


def quantize_obs(obs: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    """clip(round(obs / scale) + zero_point) into int8, elementwise; obs must be finite."""
    # np.array, not np.asarray: the steps below run in place on this one
    # float64 copy, and asarray would hand back a float64 input itself
    q = np.array(obs, dtype=np.float64)
    if not np.isfinite(q).all():
        raise DataError("observation has a non-finite value")
    q /= scale
    np.rint(q, out=q)
    q += zero_point
    # two in-place ufuncs: on one observation np.clip's Python wrapper costs
    # more than the clamp itself
    np.maximum(q, INT8_MIN, out=q)
    np.minimum(q, INT8_MAX, out=q)
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
    # integer leaky-relu max(acc, 0) + ((min(acc, 0) * act_mult) >> act_shift),
    # without a masked ufunc, as acc + ((min(acc, 0) * act_delta) >> act_shift):
    # the added multiple min(acc, 0) * 2^act_shift shifts out exactly. The
    # product fits int64: |acc| < 2^31 by the headroom check, |act_delta| <= 2^31
    act_delta = qp.act_mult - (1 << qp.act_shift)
    # int32 accumulate, done in float64 through BLAS: every partial sum of
    # int8 x int8 products is an integer below 2^31 in magnitude (the
    # QuantizedPolicy headroom check), far inside float64's exact 2^53
    x = x.astype(np.float64)
    for li, layer in enumerate(qp.layers):
        acc = x @ layer.weights_t
        acc += layer.bias_f64
        acc = acc.astype(np.int64)

        if li != last:
            neg = np.minimum(acc, 0)
            neg *= act_delta
            neg >>= qp.act_shift
            acc += neg

        acc = requantize(acc, layer)
        x = acc if li == last else acc.astype(np.float64)

    return x.astype(np.int8)


def requantize(acc: np.ndarray, layer: QuantizedLayer) -> np.ndarray:
    """clip((mult * acc + offset) >> shift) in place on int64 accumulators, |acc| < 2^31.

    The sum stays below 2^62 + 2^39. The clamp is two ufuncs, as np.clip on an
    int64 array with Python-int bounds looks up np.iinfo on every call.
    """
    acc *= layer.mult
    acc += layer.offset
    acc >>= layer.shift
    np.maximum(acc, INT8_MIN, out=acc)
    np.minimum(acc, INT8_MAX, out=acc)
    return acc


def fused_infer_dequant(qp: QuantizedPolicy, obs: np.ndarray) -> np.ndarray:
    """Quantize observations, (n_in,) or (B, n_in), run int8 inference, dequantize the actions."""
    obs_q = quantize_obs(obs, qp.obs_scale, qp.obs_zp)
    action_q, _ = infer_int8(qp, obs_q)
    out = qp.layers[-1]
    return dequantize_action(action_q, out.output_scale, out.output_zp)
