"""Every `BENCH_<pr>.json` at the repository root is a perf record that
recomputes: its runs are the unedited last JSON lines of `perfbench/run.py`,
its metrics are `BENCHMARK.json`'s end-to-end list, and each claim's medians,
parent IQR and wins follow from its runs.

A record holds `pr`, the `parent` and `change` commits, the `command` (with
`{workload}` and `{seed}` for each run's values), a `host` record, `runs` (one
per run: workload, seed, side, its place in the sequence, and the result
line) and `claims`. A pair is the parent and change run of one workload and
seed, run one after the other.
"""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

KEYS = {"pr", "parent", "change", "command", "host", "runs", "claims"}
HOST_KEYS = {"python", "numpy", "openblas_core", "cpu_features", "cores"}
RUN_KEYS = {"workload", "seed", "side", "order", "result"}
CLAIM_KEYS = {"workload", "metric", "pairs", "parent_median", "change_median", "parent_iqr",
              "wins"}


def recompute_claim(record, workload, metric):
    """A claim's figures from the record's runs: medians, the parent's
    interquartile range and the pairs in which the change reads better."""
    sides = {}
    for run in record["runs"]:
        if run["workload"] == workload:
            value = json.loads(run["result"])["metrics"][metric]["value"]
            sides.setdefault(run["seed"], {})[run["side"]] = value
    pairs = [(s["parent"], s["change"]) for _, s in sorted(sides.items())]
    parent, change = (np.array(side, dtype=np.float64) for side in zip(*pairs))
    lower = END_TO_END[metric]["better"] == "lower"
    q1, q3 = np.percentile(parent, [25, 75])
    return {"workload": workload, "metric": metric, "pairs": len(pairs),
            "parent_median": float(np.median(parent)),
            "change_median": float(np.median(change)),
            "parent_iqr": float(q3 - q1),
            "wins": int(np.sum(change < parent if lower else change > parent))}


def test_a_bench_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_recomputes(path):
    record = json.loads(path.read_text())
    assert set(record) == KEYS
    assert path.name == f"BENCH_{record['pr']}.json" and type(record["pr"]) is int
    for commit in ("parent", "change"):
        assert re.fullmatch("[0-9a-f]{40}", record[commit]), commit
    command = record["command"]
    assert command.startswith("python3 perfbench/run.py ")
    assert "{workload}" in command and "{seed}" in command
    assert set(record["host"]) == HOST_KEYS

    runs = record["runs"]
    assert [run["order"] for run in runs] == list(range(len(runs)))
    by_pair = {}
    for run in runs:
        assert set(run) == RUN_KEYS
        assert run["workload"] in WORKLOADS and run["side"] in ("parent", "change")
        assert type(run["seed"]) is int and run["seed"] >= 0
        result = json.loads(run["result"])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {name: m["unit"] for name, m in END_TO_END.items()}
        by_pair.setdefault((run["workload"], run["seed"]), []).append(run)
    for pair in by_pair.values():
        # one run per side, one directly after the other
        assert sorted(run["side"] for run in pair) == ["change", "parent"]
        assert abs(pair[0]["order"] - pair[1]["order"]) == 1

    assert record["claims"]
    for claim in record["claims"]:
        assert set(claim) == CLAIM_KEYS and claim["metric"] in END_TO_END
        want = recompute_claim(record, claim["workload"], claim["metric"])
        assert {k: claim[k] for k in ("workload", "metric", "pairs", "wins")} == \
            {k: want[k] for k in ("workload", "metric", "pairs", "wins")}
        for key in ("parent_median", "change_median", "parent_iqr"):
            assert math.isclose(claim[key], want[key], rel_tol=1e-12), key
