"""Standing mutants: last-bit and logic changes the suite must keep catching.

Each row names a file under the repository root, one exact piece of its
text, the text that replaces it, and the tests that must fail once it is
replaced. `run_mutant` applies a row to a fresh copy of `src/`, `tests/` and
`pyproject.toml` and runs only those tests there, in one subprocess with no
hypothesis example database. The copy is the working directory, so
pyproject's `pythonpath` puts the mutated `src/` first on `sys.path`.

Equivalent within the tested domain, so left out: `<=` for `<` in a
`_hold_targets` clamp. It differs only where a bound is a signed zero
(`dof_lower = 1.2` or `dof_upper = -1.2`), which `sample_dr` never draws and
the plant oracle test's strategy (bounds within +-0.05) never reaches.
"""
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: tuple[str, ...]


MUTANTS = [
    # four -0.0 products sum to -0.0 unless the sum starts from +0.0
    Mutant("air-sum-without-zero-start", "src/microgait/harness.py",
           "(0.0 + (t0 - AIR_TIME_OFFSET_S) * j0", "((t0 - AIR_TIME_OFFSET_S) * j0",
           ("tests/test_harness.py::test_air_term_of_four_negative_zeros_is_positive_zero",)),
    # the oracle's drive mean folds left; a pairwise sum rounds differently
    Mutant("pairwise-drive-sum", "src/microgait/harness.py",
           "(0.0 + d0 + d1 + d2 + d3)", "((d0 + d1) + (d2 + d3))",
           ("tests/test_harness.py::test_plant_edge_cases_match_numpy_reference[drive-sum-order]",
            "tests/test_harness.py::test_plant_episode_matches_numpy_reference[random-policy]")),
    # a mutable buffer held by the memo can change after its CRC is stored
    Mutant("crc-memo-any-bytes-like", "src/microgait/wire.py",
           "memo = type(data) is bytes and len(data) <= 127", "memo = len(data) <= 127",
           ("tests/test_wire.py::test_crc_memo_serves_only_an_equal_bytes_message",)),
    Mutant("crc-memo-ignores-last-byte", "src/microgait/wire.py",
           "if data == last:", "if data[:-1] == last[:-1]:",
           ("tests/test_wire.py::test_crc_memo_serves_only_an_equal_bytes_message",)),
    # a 2-D product goes to sgemm, whose summation order differs from one row's sgemv
    Mutant("fp32-block-as-2d-matmul", "src/microgait/policy.py",
           "(w @ x[..., None])[..., 0]", "x @ w.T",
           ("tests/test_policy.py::test_batch_bit_identical_to_single_rows",)),
    Mutant("int8-leaky-relu-minimum", "src/microgait/kernel.py",
           "np.maximum(acc, neg, out=acc)", "np.minimum(acc, neg, out=acc)",
           ("tests/test_kernel.py::test_matches_bigint_oracle",)),
    # 0.3 and its float32 value, which the FP32 pass and the file hold, encode
    # to slopes 644245094 and 644245120 at shift 31
    Mutant("slope-from-float64-alpha", "src/microgait/quant.py",
           "encode_ratio(float(act.alpha_0d))", "encode_ratio(act.alpha)",
           ("tests/test_quant.py::test_model_holds_the_slope_of_its_float32_alpha",)),
]

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def run_mutant(m: Mutant, workdir: Path, *pytest_args: str) -> list[str]:
    """Apply m to a copy of the repository in workdir, run its tests there
    (after pytest_args, such as --hypothesis-seed=1), and return those of
    them that did not fail (all failed: killed)."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, workdir / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", workdir)
    target = workdir / m.path
    text = target.read_text()
    assert text.count(m.old) == 1, f"{m.name}: {m.old!r} is not in {m.path} exactly once"
    target.write_text(text.replace(m.old, m.new))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *pytest_args, *m.killed_by],
                          cwd=workdir, capture_output=True, text=True, timeout=600)
    failed = FAILED.findall(proc.stdout)
    return [test for test in m.killed_by
            if not any(f == test or f.startswith(test + "[") for f in failed)]
