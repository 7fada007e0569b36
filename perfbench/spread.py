"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload loop_int8_codec --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile as a share of the median (statistics.quantiles, n=4), next to a
third of the metric's bound from BENCHMARK.json. The same spread of the
speed probe's median shows how far the host's speed moved between runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    probes: list[float] = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: failed ({result['failed']}/{result['attempted']})\n{proc.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        probe = next(line.split()[0] for line in proc.stdout.splitlines()
                     if line.startswith("speed_probe_ms_p50="))
        probes.append(float(probe.split("=")[1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
              + f" {probe}", flush=True)

    ok = True
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        steady = spread < metric["bound"] / 3
        ok &= steady or metric["name"] == "setup_s"
        print(f"{metric['name']}: median={median:.6g} spread={spread:.4f} "
              f"bound/3={metric['bound'] / 3:.4f} {'ok' if steady else 'WIDE'}")
    q1, median, q3 = statistics.quantiles(probes, n=4)
    print(f"speed_probe_ms_p50: median={median:.6g} spread={(q3 - q1) / median:.4f} (unscaled host speed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
