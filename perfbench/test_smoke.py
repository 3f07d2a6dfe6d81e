#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload of BENCHMARK.json at small size, untraced and
traced, and checks that each run is correct and prints every metric
BENCHMARK.json names, with its unit, both on the result line and on a
human-readable line. Also checks that a directory
holding only the benchmark (no program sources) makes the benchmark fail
without printing a result.

    python3 perfbench/test_smoke.py      # from the repository root
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace):
    errors = []
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errors.append(f"{label}: metrics differ: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got.get('unit')} "
                          f"!= {m['unit']}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} value {got.get('value')}")
        printed = [l for l in lines[:-1]
                   if l.split()[1:2] == [m["name"]] and l.split()[-1] == m["unit"]]
        if not printed:
            errors.append(f"{label}: no '{m['name']} ... {m['unit']}' line")
        if trace == "0" and not got.get("value"):
            errors.append(f"{label}: end-to-end {m['name']} reads 0")
    return errors


def check_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        proc = run(bare, "batch_northdk", "0")
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return ["a checkout without sources did not fail cleanly"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = check_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            errors += check_run(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for e in errors:
        print("FAIL:", e)
    print("OK" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
