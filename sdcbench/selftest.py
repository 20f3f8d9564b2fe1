#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and output shape.

Runs a reduced-size traced run of every workload twice on one seed, plus
one reduced untraced run, and checks that

* every run exits 0 with `correct: true`, and its last line parses with
  exactly the keys `correct`, `attempted`, `failed`, `metrics`;
* untraced runs carry every `end_to_end` metric of BENCHMARK.json and
  traced runs every `per_layer` metric, each with its unit;
* the host line records nproc, SDC_THREADS, the active ISA, the build
  profile and the seed;
* the two traced runs agree exactly on `knn_acc`, `core.retention_frac`,
  `core.rescore_frac` and the arrival schedules of `score-open`;
* no span was lost to ring wrap-around.

Run from the repository root: `python3 sdcbench/selftest.py`.
"""

import json
import subprocess
import sys

SEED = 7
SECONDS = 3
STEPS = 4


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", str(trace), "--steps", str(STEPS),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    host = json.loads(lines[-3].removeprefix("host "))
    detail = json.loads(lines[-2].removeprefix("detail "))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    for key in ("nproc", "sdc_threads", "active_isa", "profile", "seed"):
        assert key in host, f"host line lacks {key}"
    assert host["seed"] == SEED
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    return detail, result["metrics"]


def fingerprint(detail, metrics):
    schedules = {r["rung"]: r["schedule_fingerprint"] for r in detail.get("rungs", [])}
    return {
        "knn_acc": detail.get("knn_acc"),
        "core.retention_frac": metrics["core.retention_frac"]["value"],
        "core.rescore_frac": metrics["core.rescore_frac"]["value"],
        "schedules": schedules,
    }


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        run(bench, name, 0)
        a = fingerprint(*run(bench, name, 1))
        b_detail, b_metrics = run(bench, name, 1)
        b = fingerprint(b_detail, b_metrics)
        common = a["schedules"].keys() & b["schedules"].keys()
        assert {"light", "heavy"} <= common or not a["schedules"], name
        for rung in common:
            assert a["schedules"][rung] == b["schedules"][rung], (name, rung)
        a.pop("schedules"), b.pop("schedules")
        assert a == b, f"{name}: same seed, different results: {a} vs {b}"
        assert b_metrics["obs.spans_overwritten"]["value"] == 0, name
        print(f"{name}: ok {a}")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}")
        sys.exit(1)
