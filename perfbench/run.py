"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload loop_int8_codec --seed 1 --seconds 10 --trace 0

Workloads: loop_int8_codec, loop_fp32_codec_30hz, quantize_calib (see
workloads.py and README.md). `--trace 0` measures the end-to-end metrics
with nothing traced; `--trace 1` traces every layer boundary and reports the
per-layer metrics instead. Each metric is printed as `name=value unit`, and
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every operation and
output check passed, 1 when any failed, 2 when the program sources are
missing from the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("loop_int8_codec", "loop_fp32_codec_30hz", "quantize_calib")
REQUIRED = (ROOT / "src" / "microgait" / "__init__.py", ROOT / "tests" / "oracles.py")

# Metric units, by name suffix; first match wins, anything else is a count.
_UNIT_SUFFIXES = (
    ("us_per_byte", "us/B"), ("ns_per_mac", "ns/MAC"), ("us_per_step", "us"),
    ("_per_s", "1/s"), ("pf_over_pt", "ratio"), ("rel_residual", "ratio"),
    ("us_p50", "us"), ("ms_p50", "ms"), ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
    ("_s", "s"), ("_mb", "MB"), ("_pct", "%"), ("_db", "dB"), ("bytes", "B"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads() -> None:
    """One single-threaded process: BLAS gets one thread. Call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, so only after pin_threads

    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
