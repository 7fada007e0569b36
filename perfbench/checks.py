"""Output checks, golden digests and the host cycle-model fit.

Every check counts as one attempted operation; a failed check counts as one
failed operation, so it shows in the run's error rate.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from microgait import cost, kernel, policy, quant
from microgait.policy import PolicySpec
from microgait.quant import QuantScheme

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0

# Reference 24 -> 128 -> 64 -> 8 network, as stated in the README.
REFERENCE_MACS = 11_776
REFERENCE_REQUANTS = 200

# Specs for the host cycle-model fit. Output widths differ, so that
# neurons - activations (the output width) is not constant and c_q, c_phi
# and c0 stay identifiable.
FIT_DIMS = ((24, 16, 12), (24, 32, 8), (24, 64, 16), (24, 96, 4),
            (24, 128, 32), (24, 48, 48, 2), (24, 128, 64, 8))
FIT_REPS = 60


class Checks:
    """Counts checks and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_oracles(root: Path):
    """The package's independent reference implementations, tests/oracles.py."""
    spec = importlib.util.spec_from_file_location("microgait_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_golden(checks: Checks, seed: int, workload: str,
                 digests: dict[str, str]) -> None:
    """At the default seed, the outputs must be byte-identical to the recorded ones."""
    for name, digest in digests.items():
        print(f"digest.{name}={digest}")
    if seed != DEFAULT_SEED:
        return
    golden = json.loads(GOLDEN_PATH.read_text())[workload]
    for name, digest in digests.items():
        checks.expect(golden.get(name) == digest,
                      f"{name} sha256 {digest} != golden {golden.get(name)}")


def check_int8_outputs(checks: Checks, oracles, qp, observations) -> None:
    """infer_int8 on each observation: bit-exact against the big-integer
    oracle, and counters equal to expected_counters for the spec."""
    expected = kernel.expected_counters(qp.spec, qp.scheme)
    for obs in observations:
        obs_q = kernel.quantize_obs(obs, qp.obs_scale, qp.obs_zp)
        action_q, ops = kernel.infer_int8(qp, obs_q)
        checks.expect(np.array_equal(action_q, oracles.int8_forward_bigint(qp, obs_q)),
                      "infer_int8 differs from int8_forward_bigint")
        checks.expect(ops == expected, f"OpCounters {ops} != expected {expected}")
    if qp.spec.layer_dims == policy.DEFAULT_LAYER_DIMS:
        checks.expect(expected.macs == REFERENCE_MACS and expected.requants == REFERENCE_REQUANTS,
                      f"reference spec counters {expected}")


def host_fit(seed: int) -> dict[str, float]:
    """Fit cost.fit_coeffs to host infer_int8 times (ns as cycles at 1 GHz).

    Recorded, never gated: host time is not device cycles.
    """
    rng = np.random.default_rng((seed, 7))
    observations = []
    for dims in FIT_DIMS:
        spec = PolicySpec(dims, policy.leaky_relu())
        p = policy.random_policy(spec, seed)
        calib = rng.normal(0.0, 0.5, size=(64, dims[0])).astype(np.float32)
        obs_q = rng.integers(-128, 128, size=dims[0]).astype(np.int8)
        for scheme in QuantScheme:
            qp = quant.quantize_policy(p, scheme, calib)
            times = []
            for _ in range(FIT_REPS):
                t0 = perf_counter_ns()
                kernel.infer_int8(qp, obs_q)
                times.append(perf_counter_ns() - t0)
            observations.append((spec, scheme, statistics.median(times)))
    coeffs, residual = cost.fit_coeffs(observations)
    y_norm = float(np.linalg.norm([t for _, _, t in observations]))
    return {"cost.host_fit.c_mac_ns": coeffs.c_mac,
            "cost.host_fit.c_q_ns": coeffs.c_q,
            "cost.host_fit.c_phi_ns": coeffs.c_phi,
            "cost.host_fit.c_load_ns": coeffs.c_load,
            "cost.host_fit.c0_us": coeffs.c0 / 1e3,
            "cost.host_fit.rel_residual": residual / y_norm}


def report_failures(checks: Checks) -> None:
    for what in checks.failures:
        print(f"check failed: {what}", file=sys.stderr)
