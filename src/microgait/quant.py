"""Int8 quantization of FP32 policies and derivation of fixed-point requant parameters.

Weights are quantized symmetrically (range +-127, no zero-point) either with
one scale per tensor or one scale per output row. Activations are asymmetric
int8 with zero-points; the input zero-point correction is folded into the
int32 bias so the inner MAC loop stays a plain int8 x int8 dot product.
kernel.requantize applies the derived parameters. expected_counters is the one
per-scheme table of an inference's operations, read by the kernel and cost.
"""
from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError
from .inputs import BinaryReader
from .policy import (
    BLOCK_ROWS,
    ActivationKind,
    ActivationSpec,
    Fp32Policy,
    PolicySpec,
    _activate_array,
    activation_count,
    const_0d,
    mac_count,
    neuron_count,
    pack_layer_dims,
    param_count,
)

QUANT_MAGIC = b"TGQ1"

INT8_MIN, INT8_MAX = -128, 127
WEIGHT_MAX = 127  # symmetric weight range

MAX_SHIFT = 31

# Deployment-image sizes reported for the reference [24,128,64,8] controller,
# including framework/runtime overhead; shown for context, never asserted.
REFERENCE_IMAGE_KB = {"fp32_mlp": 204.54, "int8_mlp": 51.136}


class QuantScheme(enum.Enum):
    PER_TENSOR = 0
    PER_FEATURE = 1


# a requant table entry, as kernel.requantize reads it, in the model file's 6-byte layout
REQUANT_DTYPE = np.dtype([("mult", "<i4"), ("shift", "u1"), ("zero_point", "i1")])


def encode_ratio(ratio) -> tuple[np.ndarray, np.ndarray]:
    """Encode each positive real as mult / 2^shift with mult < 2^31, largest shift.

    Takes a scalar or an array and returns int64 values of its shape. The
    relative error is at most 2^-24 for ratios >= 2^-7; below that the shift
    cap limits precision to the closest representable multiple of 2^-31, and
    ratios of at most 2^-32 are rejected, the first in array order named.
    """
    r = np.asarray(ratio, dtype=np.float64)
    # r = f * 2^e with f in [0.5, 1): at shift 31 - e the product f * 2^31 lies
    # just below 2^31, exactly, as scaling by a power of two is exact; where it
    # rounds up to 2^31, the shift one less fits
    shift = np.minimum(MAX_SHIFT - np.frexp(r)[1], MAX_SHIFT)
    shift -= np.rint(np.ldexp(r, shift)) >= 2 ** 31
    mult = np.rint(np.ldexp(r, shift))
    # false for a ratio that is not positive, finite and representable
    ok = (shift >= 0) & (mult > 0) & (mult < 2 ** 31)
    if not ok.all():
        x = float(r.flat[np.argmin(ok)])
        if not (x > 0 and math.isfinite(x)):
            raise DomainError(f"ratio must be positive and finite, got {x}")
        raise DomainError(f"ratio {x} overflows the 31-bit multiplier" if x >= 2 ** 31 - 0.5
                          else f"ratio {x} is at most 2^-{MAX_SHIFT + 1} and not representable")
    return mult.astype(np.int64), shift.astype(np.int64)


def derive_requant(input_scale: float, weight_scales, output_scale: float,
                   zero_point: int = 0) -> np.ndarray:
    """A layer's requant table: per weight scale, one REQUANT_DTYPE entry for
    the rescale input_scale*weight_scale/output_scale."""
    weight_scales = np.asarray(weight_scales, dtype=np.float64)
    for name, s in (("input_scale", input_scale), ("weight_scales", weight_scales),
                    ("output_scale", output_scale)):
        if not np.all(np.greater(s, 0)):
            raise DomainError(f"{name} must be > 0, got {s}")
    table = np.empty(weight_scales.shape, dtype=REQUANT_DTYPE)
    table["mult"], table["shift"] = encode_ratio(input_scale * weight_scales / output_scale)
    table["zero_point"] = zero_point
    return table


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """One dense layer in int8 with its requantization table.

    Only the output's scale and zero-point are held here; the input's are the
    previous layer's output pair, or the observation's for layer 0. ``bias`` is
    stored at scale input_scale*weight_scale with the input zero-point
    correction (-input_zp * row_sum) already folded in. ``requant`` is held
    once, in the model file's layout: a read-only structured array of
    REQUANT_DTYPE entries, built from any sequence of (mult, shift, zero_point).
    An int8 tensor has one zero-point, so every entry carries the same one,
    which ``output_zp`` reads.

    The kernel's tables are built once here, with array operations. The int8
    weights are held again as floats, exact, for BLAS to accumulate: float32 up
    to fan-in 1024, where every partial sum of int8 x int8 products (each at most
    2^14) is an integer of at most 2^24, float64 beyond; the int32 bias as int64,
    as float32 does not hold every int32. The int64 requant vectors have n_out entries
    under both schemes (a ufunc dispatches faster on a full-width operand).
    ``offset`` = round_term + ((zero_point + 128) << shift) folds both addends
    and the 128 that makes the shifted sum a kernel code-table index into one
    addend before the shift: an arithmetic shift of a multiple of 2^shift is exact.
    """

    weights: np.ndarray            # int8, (n_out, n_in)
    bias: np.ndarray               # int32, (n_out,)
    weight_scales: np.ndarray      # float, len 1 (per-tensor) or n_out
    output_scale: float
    requant: np.ndarray            # REQUANT_DTYPE entries, len 1 (per-tensor) or n_out
    output_zp: int = field(init=False)  # the requant table's one zero-point
    weights_t: np.ndarray = field(init=False, repr=False)  # float32 or float64, (n_in, n_out)
    bias_i64: np.ndarray = field(init=False, repr=False)   # int64, (n_out,)
    mult: np.ndarray = field(init=False, repr=False)       # int64, (n_out,)
    shift: np.ndarray = field(init=False, repr=False)      # int64, (n_out,)
    offset: np.ndarray = field(init=False, repr=False)     # int64, (n_out,)

    def __post_init__(self):
        put = object.__setattr__  # the dataclass is frozen, so the tables below stay in step
        try:
            rq = np.array(self.requant, dtype=REQUANT_DTYPE)
        except OverflowError as exc:
            raise DataError(f"requant entry does not fit the requant record: {exc}") from None
        rq.flags.writeable = False
        put(self, "requant", rq)
        zps = np.unique(rq["zero_point"]).tolist()
        if len(zps) > 1:
            raise DataError(f"requant table holds zero-points {zps}, a layer's output has one")
        put(self, "output_zp", zps[0] if zps else 0)  # QuantizedPolicy rejects an empty table
        scales = np.concatenate(([self.output_scale], self.weight_scales))
        if not (np.isfinite(scales).all() and (scales > 0).all()):
            raise DataError(f"layer scales must be finite and > 0, got output "
                            f"{self.output_scale}, weights {self.weight_scales}")
        put(self, "weights_t", self.weights.T.astype(
            np.float32 if self.weights.shape[-1] * 128 * 128 <= 2 ** 24 else np.float64))
        put(self, "bias_i64", self.bias.astype(np.int64))
        # a table of another wrong length, or with an entry out of range, is
        # QuantizedPolicy's to reject
        full = rq.repeat(len(self.weights)) if len(rq) == 1 else rq
        mult, shift = (full[name].astype(np.int64) for name in ("mult", "shift"))
        put(self, "mult", mult)
        put(self, "shift", shift)
        put(self, "offset", ((1 << shift) >> 1) + ((self.output_zp + 128) << shift))


@dataclass(frozen=True)
class OpCounters:
    macs: int = 0
    activations: int = 0
    requants: int = 0
    param_loads: int = 0


def expected_counters(spec: PolicySpec, scheme: QuantScheme) -> OpCounters:
    """The operations of one inference of the fixed network under a scheme."""
    n = neuron_count(spec)
    return OpCounters(
        macs=mac_count(spec),
        activations=activation_count(spec),
        requants=n,
        param_loads=n if scheme is QuantScheme.PER_FEATURE else 0)


@dataclass(frozen=True, eq=False)
class QuantizedPolicy:
    spec: PolicySpec
    scheme: QuantScheme
    layers: tuple[QuantizedLayer, ...]
    obs_scale: float
    obs_zp: int
    act_mult: int     # integer leaky-relu slope, alpha ~= act_mult / 2^act_shift
    act_shift: int
    # built once here; the dataclass is frozen so they stay in step
    row_counters: OpCounters = field(init=False, repr=False)
    act_mult_0d: np.ndarray = field(init=False, repr=False)   # int64, read-only
    act_shift_0d: np.ndarray = field(init=False, repr=False)  # int64, read-only
    obs_scale_0d: np.ndarray = field(init=False, repr=False)  # float64, read-only
    obs_zp_0d: np.ndarray = field(init=False, repr=False)     # float64, read-only
    # int64 (n_out,), read-only: the output layer's mult * bias + offset, the
    # requant addend of an accumulator without its bias
    out_addend: np.ndarray = field(init=False, repr=False)
    # float64 (256,), read-only: the dequantized action of int8 code c at index c mod 256
    action_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        dims = self.spec.layer_dims
        if len(self.layers) != self.spec.num_layers:
            raise DataError("quantized layer count does not match spec")
        if not (0 <= self.act_shift <= MAX_SHIFT):
            raise DataError(f"act_shift {self.act_shift} outside [0, {MAX_SHIFT}]")
        # a slope of at most 1 keeps the activated accumulator inside int32
        if not (0 <= self.act_mult <= 1 << self.act_shift):
            raise DataError(
                f"activation slope {self.act_mult}/2^{self.act_shift} outside [0, 1]")
        if not (math.isfinite(self.obs_scale) and self.obs_scale > 0):
            raise DataError(f"obs_scale must be finite and > 0, got {self.obs_scale}")
        if not (INT8_MIN <= self.obs_zp <= INT8_MAX):
            raise DataError(f"obs_zp {self.obs_zp} outside int8 range")
        per_feature = self.scheme is QuantScheme.PER_FEATURE
        for i, layer in enumerate(self.layers):
            if layer.weights.shape != (dims[i + 1], dims[i]):
                raise DataError(
                    f"layer {i} weight shape {layer.weights.shape} != {(dims[i + 1], dims[i])}")
            entries = dims[i + 1] if per_feature else 1
            if len(layer.requant) != entries or len(layer.weight_scales) != entries:
                raise DataError(
                    f"layer {i} requant table has {len(layer.requant)} entries and "
                    f"{len(layer.weight_scales)} weight scales, "
                    f"{self.scheme.name.lower()} needs {entries}")
            rq = layer.requant
            bad = np.flatnonzero((rq["mult"] < 0) | (rq["shift"] > MAX_SHIFT))
            if bad.size:
                raise DataError(f"layer {i} requant entry {bad[0]}: multiplier and shift "
                                f"{rq[bad[0]].item()[:2]} outside [0, 2^31) x [0, {MAX_SHIFT}]")
            # int32 accumulator headroom: worst case |sum w*x| <= n_in*127*255;
            # |bias| is taken in int64 because abs() of the int32 minimum wraps
            worst = (dims[i] * WEIGHT_MAX * 255
                     + int(np.abs(layer.bias, dtype=np.int64).max(initial=0)))
            if worst >= 2 ** 31:
                raise DomainError(
                    f"layer {i} fan-in {dims[i]} can overflow the int32 accumulator "
                    f"(worst case {worst})")
        object.__setattr__(self, "row_counters", expected_counters(self.spec, self.scheme))
        object.__setattr__(self, "act_mult_0d", const_0d(self.act_mult, np.int64))
        object.__setattr__(self, "act_shift_0d", const_0d(self.act_shift, np.int64))
        object.__setattr__(self, "obs_scale_0d", const_0d(self.obs_scale, np.float64))
        object.__setattr__(self, "obs_zp_0d", const_0d(self.obs_zp, np.float64))
        # the output layer has no activation, so its bias folds into the addend:
        # |mult * bias| < 2^62, and the headroom check bounds the whole sum
        out = self.layers[-1]
        addend = out.mult * out.bias_i64 + out.offset
        addend.flags.writeable = False
        object.__setattr__(self, "out_addend", addend)
        # an int8 action takes one of 256 values, so an update dequantizes with one take
        table = dequantize_action(np.arange(256, dtype=np.uint8).view(np.int8),
                                  out.output_scale, out.output_zp)
        table.flags.writeable = False
        object.__setattr__(self, "action_table", table)


def _affine_params(lo, hi, what: str) -> tuple[float, int]:
    """Asymmetric int8 scale/zero-point covering [lo, hi] (extended to include 0)."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError(f"{what} range [{lo}, {hi}] is not finite")
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi == lo:
        return 1.0, 0
    scale = (hi - lo) / (INT8_MAX - INT8_MIN)
    zp = int(round(INT8_MIN - lo / scale))
    return scale, max(INT8_MIN, min(INT8_MAX, zp))


def _weight_scales(w: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Weight scales, one per output row (per-feature) or a single one (per-tensor)."""
    m = np.abs(np.asarray(w, dtype=np.float64)).max(axis=1)
    if scheme is QuantScheme.PER_TENSOR:
        m = m.max(keepdims=True)
    m = np.where(m > 0, m, float(WEIGHT_MAX))  # all-zero tensor/row: scale defaults to 1
    return m / WEIGHT_MAX


def _finish_in_place(x: np.ndarray, b: np.ndarray,
                     act: ActivationSpec | None) -> tuple[np.floating, np.floating]:
    """Add the bias to the layer product x and apply act (None on the output
    layer), in place, one BLOCK_ROWS-row slice at a time; return the (min, max)
    of the result.

    The product itself stays one whole-matrix x @ w.T: a blocked sgemm can sum
    in another order and move the calibration ranges. Slicing only the
    element-wise steps bounds their temporaries at BLOCK_ROWS rows, and the
    per-slice extremes reduce through numpy, which keeps a NaN where Python's
    min and max could drop it.
    """
    lows, highs = [], []
    for start in range(0, len(x), BLOCK_ROWS):
        block = x[start:start + BLOCK_ROWS]
        block += b
        if act is not None:
            _activate_array(act, block)
        lows.append(block.min())
        highs.append(block.max())
    return np.min(lows), np.max(highs)


def quantize_policy(p: Fp32Policy, scheme: QuantScheme,
                    calib: np.ndarray | list[np.ndarray]) -> QuantizedPolicy:
    """Quantize a LeakyReLU policy to int8 under the given scheme.

    Activation ranges come from min/max over the calibration observations,
    propagated layer by layer through the FP32 network.
    """
    act = p.spec.hidden_activation
    if act.kind is not ActivationKind.LEAKY_RELU:
        raise DomainError(
            "integer deployment uses leaky-relu; convert first with "
            "Fp32Policy.with_activation(leaky_relu())")
    calib = np.atleast_2d(np.asarray(calib, dtype=np.float32))
    if calib.ndim != 2:
        raise DataError(f"calibration set must be one row or a 2-D array of rows, "
                        f"got shape {calib.shape}")
    if calib.size == 0:
        raise DataError("calibration set is empty")
    if calib.shape[1] != p.spec.input_dim:
        raise DataError(f"calibration width {calib.shape[1]} != {p.spec.input_dim}")

    obs_scale, obs_zp = _affine_params(calib.min(), calib.max(), "observation")
    act_mult, act_shift = (int(v) for v in encode_ratio(act.alpha))

    # The FP32 pass of layer i gives its output range, then layer i is quantized
    # onto it. Hidden-layer ranges are taken post-activation: the kernel applies
    # the integer leaky-relu on the accumulator before requantizing, so the int8
    # grid only has to cover the (much narrower) activated range.
    layers = []
    x = calib
    last = p.spec.num_layers - 1
    in_scale, in_zp = obs_scale, obs_zp
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        x = x @ w.T
        lo, hi = _finish_in_place(x, b, act if i != last else None)
        out_scale, out_zp = _affine_params(lo, hi, f"layer {i} output")
        # length 1 (per-tensor) or n_out (per-feature); both broadcast over the rows
        w_scales = _weight_scales(w, scheme)
        # divide in float64 so round-to-nearest lands within scale/2 per weight
        w_q = np.clip(np.rint(w.astype(np.float64) / w_scales[:, None]),
                      -WEIGHT_MAX, WEIGHT_MAX).astype(np.int8)
        bias_q = np.rint(b.astype(np.float64) / (in_scale * w_scales)).astype(np.int64)
        fold = in_zp * w_q.astype(np.int64).sum(axis=1)
        if np.abs(bias_q - fold).max(initial=0) >= 2 ** 31:
            raise DomainError(f"layer {i} quantized bias overflows int32")
        bias_folded = (bias_q - fold).astype(np.int32)
        layers.append(QuantizedLayer(
            weights=w_q, bias=bias_folded, weight_scales=w_scales,
            output_scale=out_scale, requant=derive_requant(in_scale, w_scales, out_scale, out_zp)))
        in_scale, in_zp = out_scale, out_zp

    return QuantizedPolicy(
        spec=p.spec,
        scheme=scheme, layers=layers,
        obs_scale=obs_scale, obs_zp=obs_zp,
        act_mult=act_mult, act_shift=act_shift)


def dequantize_action(q: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    return (np.asarray(q, dtype=np.float64) - zero_point) * scale


def sqnr_db(reference, test) -> float:
    """10*log10(signal energy / error energy) over matching vector collections
    of finite values."""
    ref = np.asarray(reference, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    if ref.shape != tst.shape:
        raise DataError(f"shape mismatch {ref.shape} vs {tst.shape}")
    if not (np.isfinite(ref).all() and np.isfinite(tst).all()):
        raise DataError("sqnr_db needs finite reference and test values")
    signal = float(np.sum(ref * ref))
    if signal == 0.0:
        raise DomainError("reference signal is identically zero")
    err = float(np.sum((ref - tst) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / err)


def fp32_payload_bytes(spec: PolicySpec) -> int:
    """Raw FP32 parameter bytes (4 per weight/bias), excluding headers."""
    return 4 * param_count(spec)


def int8_payload_bytes(qp: QuantizedPolicy) -> int:
    """On-device int8 bytes: weights, int32 biases, requant tables (6 B/entry)."""
    total = 0
    for layer in qp.layers:
        total += layer.weights.size           # int8 weights
        total += 4 * layer.bias.size          # int32 biases
        total += layer.requant.nbytes         # i32 mult + u8 shift + i8 zp
    return total


def save_quantized(qp: QuantizedPolicy, path) -> None:
    out = bytearray()
    out += QUANT_MAGIC
    out += struct.pack("<B", qp.scheme.value)
    out += pack_layer_dims(qp.spec.layer_dims)
    out += struct.pack("<fIBfb", qp.spec.hidden_activation.alpha,
                       qp.act_mult, qp.act_shift, qp.obs_scale, qp.obs_zp)
    in_scale, in_zp = qp.obs_scale, qp.obs_zp  # each layer's input pair, as the file repeats it
    for i, layer in enumerate(qp.layers):
        out += layer.weights.astype("<i1").tobytes(order="C")
        out += layer.bias.astype("<i4").tobytes()
        scales = [in_scale, layer.output_scale] + [float(s) for s in layer.weight_scales]
        if len(scales) > 0xFFFF:  # a per-feature layer 65,534 or 65,535 wide
            raise DataError(f"layer {i} scale table has {len(scales)} entries, "
                            f"a model file holds at most 65535")
        out += struct.pack("<H", len(scales))
        out += struct.pack(f"<{len(scales)}f", *scales)
        out += struct.pack("<bb", in_zp, layer.output_zp)
        out += struct.pack("<H", len(layer.requant))
        out += layer.requant.tobytes()
        in_scale, in_zp = layer.output_scale, layer.output_zp
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_quantized(path) -> QuantizedPolicy:
    r = BinaryReader(path, QUANT_MAGIC, "quantized-policy")
    scheme_val, n_dims = r.unpack("BB")
    dims = r.unpack(f"{n_dims}H")
    alpha, act_mult, act_shift, obs_scale, obs_zp = r.unpack("fIBfb")
    try:
        scheme = QuantScheme(scheme_val)
    except ValueError:
        raise DataError(f"unknown quant scheme {scheme_val}") from None
    spec = PolicySpec(dims, ActivationSpec(ActivationKind.LEAKY_RELU, alpha))
    layers = []
    in_scale, in_zp = obs_scale, obs_zp
    for i, (n_in, n_out) in enumerate(zip(spec.layer_dims, spec.layer_dims[1:])):
        w = r.array("<i1", n_in * n_out).reshape(n_out, n_in)
        b = r.array("<i4", n_out)
        (n_scales,) = r.unpack("H")
        if n_scales < 2:  # the input and output scale; the type checks the weight scales
            raise DataError(f"layer {i} scale table has {n_scales} entries, needs at least 2")
        scales = r.unpack(f"{n_scales}f")
        copy_zp, out_zp = r.unpack("bb")
        if (scales[0], copy_zp) != (in_scale, in_zp):  # the file repeats the input's pair
            raise DataError(f"layer {i} input scale and zero-point {scales[0]}, {copy_zp} differ "
                            f"from the {f'layer {i - 1} output' if i else 'observation'}'s "
                            f"{in_scale}, {in_zp}")
        (n_rq,) = r.unpack("H")
        rq = r.array(REQUANT_DTYPE, n_rq)
        if (rq["zero_point"] != out_zp).any():  # the file repeats the table's zero-point
            raise DataError(f"layer {i} output zero-point {out_zp} differs from its requant "
                            f"table's {np.unique(rq['zero_point']).tolist()}")
        layers.append(QuantizedLayer(
            weights=w, bias=b.astype(np.int32),
            weight_scales=np.asarray(scales[2:], dtype=np.float64),
            output_scale=scales[1], requant=rq))
        in_scale, in_zp = scales[1], out_zp
    r.finish()
    return QuantizedPolicy(spec, scheme, layers, obs_scale, obs_zp, act_mult, act_shift)
