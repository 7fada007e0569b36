"""Span tracing for the traced benchmark run, done from outside the package.

`Tracer.installed()` rebinds public microgait functions at the module
attributes their callers look up on every call, for example
`microgait.wire.crc8` (read as a global by `encode_frame`) or
`microgait.harness.infer_int8` (read by the int8 loopback device). Each
wrapper records one span per call: name, start, end and parent. A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans sum to the durations of the root spans.
The package itself is not modified.
"""
from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from microgait import cli, harness, kernel, policy, quant, wire
from microgait.errors import ProtocolError
from microgait.quant import QuantScheme

_FP32_FRAME_TYPES = (wire.MSG_OBS_FP32, wire.MSG_ACT_FP32)


def _infer_int8_name(args, kwargs):
    qp = args[0] if args else kwargs["qp"]
    scheme = "per_feature" if qp.scheme is QuantScheme.PER_FEATURE else "per_tensor"
    return "kernel.infer_int8." + scheme


def _by_precision_arg(prefix):
    # encode_observation / encode_action take (values, precision="fp32", seq=0)
    def name(args, kwargs):
        return prefix + (args[1] if len(args) > 1 else kwargs.get("precision", "fp32"))
    return name


def _by_frame_type(prefix):
    # decode_observation / decode_action take one frame; byte 1 is its type
    def name(args, kwargs):
        buf = args[0] if args else kwargs["buf"]
        fp32 = len(buf) > 1 and buf[1] in _FP32_FRAME_TYPES
        return prefix + ("fp32" if fp32 else "int8")
    return name


def _count_ops(counts, result):
    ops = result[1]
    counts["kernel.macs"] += ops.macs
    counts["kernel.requants"] += ops.requants
    counts["kernel.param_loads"] += ops.param_loads


def _count_frame(counts, frame):
    counts["wire.frames"] += 1
    counts["wire.bytes"] += len(frame)


# (modules whose attribute is rebound, attribute, span name, result observer).
# A function imported by name into another module is rebound in both, since
# each caller reads its own module's global.
TARGETS = (
    ((kernel, harness), "infer_int8", _infer_int8_name, _count_ops),
    ((kernel, harness), "quantize_obs", "kernel.quantize_obs", None),
    ((kernel,), "fused_infer_dequant", "kernel.fused_infer_dequant", None),
    ((kernel, harness), "dequantize_action", "quant.dequantize_action", None),
    ((policy, harness), "infer_fp32", "policy.infer_fp32", None),
    ((policy,), "load_policy", "policy.load_policy", None),
    ((policy,), "save_policy", "policy.save_policy", None),
    ((quant,), "quantize_policy", "quant.quantize_policy", None),
    ((quant,), "save_quantized", "quant.save_quantized", None),
    ((quant,), "load_quantized", "quant.load_quantized", None),
    ((quant,), "sqnr_db", "quant.sqnr_db", None),
    ((harness,), "plant_step", "harness.plant_step", None),
    ((harness,), "reward_step", "harness.reward_step", None),
    ((wire,), "crc8", "wire.crc8", None),
    ((wire,), "encode_observation", _by_precision_arg("wire.encode_observation."), _count_frame),
    ((wire,), "decode_observation", _by_frame_type("wire.decode_observation."), None),
    ((wire,), "encode_action", _by_precision_arg("wire.encode_action."), _count_frame),
    ((wire,), "decode_action", _by_frame_type("wire.decode_action."), None),
    ((cli,), "_load_calib", "cli.load_calib", None),
)


@dataclass
class SpanStats:
    durations_ns: np.ndarray
    self_ns: int

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def total_ns(self) -> int:
        return int(self.durations_ns.sum())

    def p50_us(self) -> float:
        return float(np.median(self.durations_ns)) / 1e3 if self.calls else 0.0


class Tracer:
    """Records spans in flat arrays; summarised once, after the run."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self._start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._name.append(nid)
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0)
        self._open.append(idx)
        self._start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except ProtocolError:
            if name.startswith("wire."):
                self.counts["wire.protocol_errors"] += 1
            raise
        finally:
            self._end[idx] = perf_counter_ns()
            self._open.pop()

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span; `name` is a string or a function of (args, kwargs)."""
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            result = self.call(span, fn, *args, **kwargs)
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every TARGETS call site to a traced wrapper; restore on exit."""
        saved = []
        try:
            for modules, attr, name, observe in TARGETS:
                for module in modules:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: every duration and the summed self time."""
        start = np.frombuffer(self._start, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=np.int64) - start
        parent = np.frombuffer(self._parent, dtype=np.int32)
        names = np.frombuffer(self._name, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        return {name: SpanStats(dur[names == i], int(own[names == i].sum()))
                for i, name in enumerate(self._names)}


class NullTracer:
    """The untraced run: same interface, no spans, nothing rebound."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn, observe=None):
        return fn

    def installed(self):
        return nullcontext(self)
