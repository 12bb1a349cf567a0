#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs the benchmark's unit tests (which corrupt a served response, a figure
field and an offloaded output word and check that the correctness checks
fail), then a short run of every workload in BENCHMARK.json, untraced and
traced, and asserts that each run passes its correctness checks and prints
every metric BENCHMARK.json names for that kind of run, with its unit.

Run from the repository root:  python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_checks(spec, workload, trace):
    """Returns the problems found in one short run."""
    kind = "per_layer" if trace else "end_to_end"
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(spec["command"] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correctness: {result.get('correct')}, {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        problems.append(f"metrics differ from BENCHMARK.json {kind}: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        if metric.get("unit") != want.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}, BENCHMARK.json says {want.get(name)!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: value {metric.get('value')!r} is not a number")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                    "--manifest-path", "perfbench/Cargo.toml"], cwd=ROOT, check=True)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = run_checks(spec, workload, trace)
            failures += len(problems)
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
    bad = subprocess.run(spec["command"] + ["--workload", "no_such_workload"], cwd=ROOT,
                         capture_output=True, text=True, timeout=180)
    if bad.returncode == 0 or bad.stdout.strip():
        failures += 1
        print("an unknown workload was not refused")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
