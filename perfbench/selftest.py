#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2]

It checks, through the command named in BENCHMARK.json, that

  * an untraced run of every workload of BENCHMARK.json, and of
    `serve_churn` (run by hand and in the traced run, not listed there),
    prints every end-to-end metric of BENCHMARK.json with its unit, is
    correct and fails nothing;
  * the same run with one reply or output digest in five corrupted
    (`--corrupt-every 5`) counts failed operations and is not correct;
  * a traced run prints every per-layer metric of BENCHMARK.json with its
    unit.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys


def run(command, workload, seconds, trace, extra=()):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                      "--trace", str(trace), *extra]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def missing(result, declared):
    metrics = result["metrics"]
    return [m["name"] for m in declared
            if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    seconds = parser.parse_args().seconds
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    problems = []
    for workload in [w["name"] for w in bench["workloads"]] + ["serve_churn"]:
        clean = run(command, workload, seconds, 0)
        if lost := missing(clean, bench["end_to_end"]):
            problems.append(f"{workload}: untraced run lacks {lost}")
        if not clean["correct"] or clean["failed"] != 0:
            problems.append(f"{workload}: clean run not correct: {clean['failed']} failed")
        bad = run(command, workload, seconds, 0, ["--corrupt-every", "5"])
        if bad["correct"] or bad["failed"] == 0 or bad["metrics"]["success_rate"]["value"] >= 1:
            problems.append(f"{workload}: corrupted outputs were not counted as failed")
        print(f"{workload}: clean {clean['attempted']} ops, corrupted run failed "
              f"{bad['failed']} of {bad['attempted']}")
    traced = run(command, bench["workloads"][0]["name"], seconds, 1)
    if lost := missing(traced, bench["per_layer"]):
        problems.append(f"traced run lacks {lost}")
    print(f"traced run: {len(traced['metrics'])} per-layer metrics")
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
