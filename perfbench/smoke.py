#!/usr/bin/env python3
"""Smoke test for the benchmark itself, at tiny sizes (n=4, a few shots).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs `run.py --smoke` untraced once
and traced twice with the same seed, and checks that the correctness checks
pass, that every metric named in BENCHMARK.json is emitted with its unit, and
that every count metric repeats exactly between the two traced runs.  Exits 1
on the first failure.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
SECONDS = "1"


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, wanted: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys are {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: correctness check failed: {result}")
    names = {m["name"]: m["unit"] for m in wanted}
    if set(result["metrics"]) != set(names):
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(names) - set(result['metrics']))}, "
                             f"extra {sorted(set(result['metrics']) - set(names))}")
    for name, unit in names.items():
        got = result["metrics"][name]
        if got["unit"] != unit or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is {got}, expected a number in {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(run_bench(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = run_bench(workload, 1), run_bench(workload, 1)
        for result in (first, second):
            check_result(result, spec["per_layer"], f"{workload} traced")
        for m in spec["per_layer"]:
            if m["unit"] == "count" and first["metrics"][m["name"]] != second["metrics"][m["name"]]:
                raise AssertionError(f"{workload}: count {m['name']} differs between two traced runs: "
                                     f"{first['metrics'][m['name']]} vs {second['metrics'][m['name']]}")
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
