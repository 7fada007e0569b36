"""MLP policy structure, FP32 reference inference, and operation accounting.

The deployed controller is a small dense network (default 24 -> 128 -> 64 -> 8)
whose multiply-accumulate and parameter counts drive the cycle model in
:mod:`microgait.cost`.
"""
from __future__ import annotations

import enum
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .inputs import BinaryReader, check_finite, check_seed

POLICY_MAGIC = b"TGP1"

DEFAULT_LAYER_DIMS = (24, 128, 64, 8)

# Rows per block when infer_fp32 or kernel.infer_int8 runs a batch: a block's
# activations stay in cache, and the temporaries do not grow with the batch.
BLOCK_ROWS = 256


def const_0d(value, dtype) -> np.ndarray:
    """A read-only 0-d array, numpy's cheapest ufunc operand, shared by every inference."""
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


_ZERO_F32 = const_0d(0.0, np.float32)


class ActivationKind(enum.Enum):
    ELU = 0
    LEAKY_RELU = 1


@dataclass(frozen=True)
class ActivationSpec:
    """Hidden-layer nonlinearity with its slope/scale parameter.

    A model file and the FP32 pass hold alpha as float32, so an alpha that
    rounds to 0 or overflows in float32 is rejected here.
    """

    kind: ActivationKind
    alpha: float = 1.0
    # alpha in float32, built once: the FP32 pass's 0-d operand
    alpha_0d: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_finite("activation alpha", self.alpha)
        if not (self.alpha > 0):
            raise DataError(f"activation alpha must be > 0, got {self.alpha}")
        if self.kind is ActivationKind.LEAKY_RELU and self.alpha > 1:
            raise DataError(f"leaky-relu alpha must be <= 1, got {self.alpha}")
        with np.errstate(over="ignore"):
            alpha_0d = const_0d(self.alpha, np.float32)
        if not (0 < float(alpha_0d) < math.inf):
            raise DataError(f"activation alpha {self.alpha} does not fit float32 "
                            f"(rounds to {float(alpha_0d)})")
        object.__setattr__(self, "alpha_0d", alpha_0d)


def elu() -> ActivationSpec:
    return ActivationSpec(ActivationKind.ELU, 1.0)


def leaky_relu(alpha: float = 0.01) -> ActivationSpec:
    return ActivationSpec(ActivationKind.LEAKY_RELU, alpha)


@dataclass(frozen=True)
class PolicySpec:
    """Layer widths plus the hidden activation; output layer is identity."""

    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS
    hidden_activation: ActivationSpec = field(default_factory=elu)

    def __post_init__(self):
        try:
            dims = tuple(map(operator.index, self.layer_dims))
        except TypeError:
            raise DataError(f"layer widths must be integers, got {self.layer_dims!r}") from None
        if len(dims) < 2:
            raise DataError("layer_dims needs at least input and output widths")
        if any(d <= 0 for d in dims):
            raise DataError(f"layer widths must be positive: {dims}")
        object.__setattr__(self, "layer_dims", dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1


def mac_count(spec: PolicySpec) -> int:
    """Multiply-accumulates per forward pass: sum of n_in * n_out over layers."""
    dims = spec.layer_dims
    return sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))


def param_count(spec: PolicySpec) -> int:
    """Weights plus bias terms."""
    return mac_count(spec) + sum(spec.layer_dims[1:])


def activation_count(spec: PolicySpec) -> int:
    """Nonlinear activations per forward pass (hidden units only)."""
    return sum(spec.layer_dims[1:-1])


def neuron_count(spec: PolicySpec) -> int:
    """Neuron outputs per forward pass (hidden plus output widths)."""
    return sum(spec.layer_dims[1:])


def activate(a: ActivationSpec, x: float) -> float:
    """Scalar activation, continuous at 0."""
    if x >= 0:
        return float(x)
    if a.kind is ActivationKind.ELU:
        return a.alpha * (math.exp(x) - 1.0)
    return a.alpha * x


def _activate_array(a: ActivationSpec, x: np.ndarray) -> None:
    """Apply a to the float32 array x in place."""
    if a.kind is ActivationKind.ELU:
        # alpha * expm1(min(x, 0)) in float64, rounded once to float32 whatever numpy's
        # SIMD level; min(x, 0), as expm1 of a discarded x > 709 would overflow
        neg = np.expm1(np.minimum(x, _ZERO_F32), dtype=np.float64)
        neg *= a.alpha_0d
        # where not x >= 0, not where x < 0: a NaN takes the branch, as
        # np.where(x >= 0, x, branch) gives it, and comes out as expm1's NaN
        np.putmask(x, ~(x >= 0), neg.astype(np.float32))
    else:
        # leaky-relu as max(x, alpha * x): for 0 < alpha <= 1 the rounded product
        # is at most x when x >= 0 and at least x when x < 0, so this gives the
        # bits of the branch where(x >= 0, x, alpha * x), signed zeros and
        # infinities included, without a data-dependent select
        np.maximum(x, a.alpha_0d * x, out=x)


@dataclass(eq=False)
class Fp32Policy:
    """Dense weights/biases in float32, shapes fixed by the spec."""

    spec: PolicySpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.spec.layer_dims
        if len(self.weights) != self.spec.num_layers or len(self.biases) != self.spec.num_layers:
            raise DataError("layer count does not match spec")
        ws, bs = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float32)
            b = np.asarray(b, dtype=np.float32)
            if w.shape != (dims[i + 1], dims[i]):
                raise DataError(f"layer {i} weight shape {w.shape} != {(dims[i + 1], dims[i])}")
            if b.shape != (dims[i + 1],):
                raise DataError(f"layer {i} bias shape {b.shape} != {(dims[i + 1],)}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DataError(f"layer {i} contains non-finite values")
            ws.append(w)
            bs.append(b)
        self.weights, self.biases = ws, bs

    def with_activation(self, act: ActivationSpec) -> "Fp32Policy":
        """Same weights under a different hidden activation (ELU -> LeakyReLU swap)."""
        spec = PolicySpec(self.spec.layer_dims, act)
        return Fp32Policy(spec, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def infer_fp32(p: Fp32Policy, obs: np.ndarray) -> np.ndarray:
    """Reference forward pass in float32 on one observation (n_in,) or a batch
    (B, n_in); identity on the output layer. Observations must be finite.

    A batch runs in blocks of BLOCK_ROWS rows, and each row of the result is
    bit-identical to a call on that row alone (see _forward_fp32).
    """
    # C order: a strided input would reach another summation path and other bits
    x = np.asarray(obs, dtype=np.float32, order="C")
    n_in = p.spec.input_dim
    if x.ndim not in (1, 2) or x.shape[-1] != n_in:
        raise DataError(f"observation shape {x.shape} != ({n_in},) or (B, {n_in})")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise DataError("observation has a non-finite value")
    if x.ndim == 1:
        return _forward_fp32(p, x)
    out = np.empty((x.shape[0], p.spec.layer_dims[-1]), dtype=np.float32)
    for start in range(0, x.shape[0], BLOCK_ROWS):
        out[start:start + BLOCK_ROWS] = _forward_fp32(p, x[start:start + BLOCK_ROWS])
    return out


def _forward_fp32(p: Fp32Policy, x: np.ndarray) -> np.ndarray:
    # One observation is w.dot(x), one direct sgemv; in a block, x[..., None]
    # makes each row a column, so the stacked matmul runs that sgemv per row and
    # gives each row the same bits, where a 2-D product would go to sgemm
    act, last = p.spec.hidden_activation, len(p.weights) - 1
    row = x.ndim == 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        x = w.dot(x) if row else (w @ x[..., None])[..., 0]
        x += b
        if i != last:
            _activate_array(act, x)
    return x


def random_policy(spec: PolicySpec, seed: int, weight_scale: float = 0.5,
                  row_scale_spread: float = 0.0) -> Fp32Policy:
    """Seeded random policy; row_scale_spread > 0 gives rows lognormal magnitude spread."""
    rng = np.random.default_rng(check_seed(seed))
    weights, biases = [], []
    dims = spec.layer_dims
    for i in range(spec.num_layers):
        w = rng.normal(0.0, weight_scale / math.sqrt(dims[i]), size=(dims[i + 1], dims[i]))
        if row_scale_spread > 0:
            w *= rng.lognormal(0.0, row_scale_spread, size=(dims[i + 1], 1))
        b = rng.normal(0.0, 0.1, size=dims[i + 1])
        weights.append(w.astype(np.float32))
        biases.append(b.astype(np.float32))
    return Fp32Policy(spec, weights, biases)


def pack_layer_dims(dims: tuple[int, ...]) -> bytes:
    """A model file's layer widths: a u8 count, then a u16 per width. PolicySpec
    takes any width, so a model a file cannot hold raises DataError here,
    before its writer opens the file."""
    if len(dims) > 0xFF:
        raise DataError(f"{len(dims)} layer widths do not fit a model file (at most 255)")
    if max(dims) > 0xFFFF:
        raise DataError(f"layer width {max(dims)} does not fit a model file (at most 65535)")
    return struct.pack(f"<B{len(dims)}H", len(dims), *dims)


def save_policy(p: Fp32Policy, path) -> None:
    """Binary little-endian policy file; see README for the layout."""
    act = p.spec.hidden_activation
    out = bytearray()
    out += POLICY_MAGIC
    out += pack_layer_dims(p.spec.layer_dims)
    out += struct.pack("<Bf", act.kind.value, act.alpha)
    for w, b in zip(p.weights, p.biases):
        out += w.astype("<f4").tobytes(order="C")
        out += b.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_policy(path) -> Fp32Policy:
    r = BinaryReader(path, POLICY_MAGIC, "policy")
    (n_dims,) = r.unpack("B")
    dims = r.unpack(f"{n_dims}H")
    kind_val, alpha = r.unpack("Bf")
    try:
        kind = ActivationKind(kind_val)
    except ValueError:
        raise DataError(f"unknown activation kind {kind_val}") from None
    spec = PolicySpec(dims, ActivationSpec(kind, alpha))
    weights, biases = [], []
    for n_in, n_out in zip(spec.layer_dims, spec.layer_dims[1:]):
        weights.append(r.array("<f4", n_in * n_out).reshape(n_out, n_in))
        biases.append(r.array("<f4", n_out))
    r.finish()
    return Fp32Policy(spec, weights, biases)
