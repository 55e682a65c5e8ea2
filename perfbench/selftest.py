"""Fast self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Runs ``run.py`` on each of its workloads with
``--scale tiny``, once untraced and once traced, and checks that the last
line is the result object the benchmark promises: the four keys, a
correct run, and exactly the metrics ``BENCHMARK.json`` names with their
units (plus the service-only layers on ``service_mixed``).  Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} is {entry}, expected a number in {unit}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in run.WORKLOADS:
        layers = per_layer | (run.SERVICE_LAYER if workload == "service_mixed" else {})
        for trace, expected in ((0, end_to_end), (1, layers)):
            found = check(workload, trace, expected)
            print(f"{workload:14s} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
