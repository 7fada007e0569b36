"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, with their units, plus the named
   end-to-end lines, and fails nothing. The traced runs show the layer
   separation the workloads were chosen for, and their coverage rows add up
   to the traced wall time.
2. A deliberately corrupted output is counted as a failure: an action frame
   with one payload byte flipped and a valid CRC (caught by the output
   checks), and one with a bad CRC (caught as a failed update).
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SECONDS = "2"
NAMED_LINES = {
    "loop_int8_codec": ("sim_steps_per_s=", "update_latency_p50_us=", "update_latency_p99"),
    "loop_fp32_codec_30hz": ("sim_steps_per_s=", "update_latency_p50_us=", "update_latency_p99"),
    "quantize_calib": ("calib_rows_per_s=", "quantize_round_latency_p50_us=", "sqnr_db.per-feature="),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench_run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(bench: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench_run(ROOT, workload, trace)
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: exit {code}, {result['failed']}/{result['attempted']} failed")
            expect(got == want, f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace={trace}: every value is a number")
            named = NAMED_LINES[workload] + ("error_rate=",)
            expect(all(any(line.startswith(n) for line in lines) for n in named),
                   f"{workload} trace={trace}: prints {', '.join(named)}")
            if trace:
                check_trace(workload, {k: v["value"] for k, v in result["metrics"].items()})


def check_trace(workload: str, m: dict) -> None:
    if workload == "loop_fp32_codec_30hz":
        expect(m["kernel.calls"] == 0, "loop_fp32_codec_30hz: kernel.calls is 0")
    if workload == "quantize_calib":
        expect(m["wire.frames"] == 0 and m["harness.steps"] == 0,
               "quantize_calib: wire.frames and harness.steps are 0")
    if workload == "loop_int8_codec":
        expect(m["kernel.calls"] > 0 and m["kernel.macs"] == 11_776 * m["kernel.calls"],
               "loop_int8_codec: 11,776 MACs per kernel call")
    rows = sum(v for k, v in m.items() if k.endswith(".self_ms")) + m["coverage.unattributed_ms"]
    expect(abs(rows - m["coverage.traced_wall_ms"]) < 1e-6 * m["coverage.traced_wall_ms"],
           f"{workload}: self times + unattributed = traced wall ({rows:.3f} ms)")


def check_corruption() -> None:
    run.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from microgait import wire

    encode_action = wire.encode_action

    def flip_payload(action, precision="fp32", seq=0):
        frame = wire.decode_frame(encode_action(action, precision, seq))
        payload = bytearray(frame.payload)
        payload[0] ^= 0x01
        return wire.encode_frame(frame.msg_type, frame.seq, bytes(payload))

    def flip_crc(action, precision="fp32", seq=0):
        frame = bytearray(encode_action(action, precision, seq))
        frame[-1] ^= 0x01
        return bytes(frame)

    workdir = ROOT / ".perfbench_tmp" / "selftest"
    for corrupt, what in ((flip_payload, "flipped action byte, valid CRC"),
                          (flip_crc, "flipped CRC byte")):
        workdir.mkdir(parents=True, exist_ok=True)
        wire.encode_action = corrupt
        try:
            outcome = workloads.run("loop_int8_codec", 3, 1.0, False, ROOT, workdir)
        finally:
            wire.encode_action = encode_action
            shutil.rmtree(workdir, ignore_errors=True)
        expect(outcome.failed > 0, f"{what}: counted as failed ({outcome.failed}/{outcome.attempted})")


def check_bare_directory(bench_dir: Path) -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(bench_dir, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = bench_run(bare, run.WORKLOADS[0], 0)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               f"bare directory: exit {code}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench)
    check_corruption()
    check_bare_directory(Path(__file__).resolve().parent)
    scratch = ROOT / ".perfbench_tmp"
    if scratch.is_dir() and not any(scratch.iterdir()):
        scratch.rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
