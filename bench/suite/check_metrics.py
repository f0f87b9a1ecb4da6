#!/usr/bin/env python3
"""Smoke test: every workload at --smoke size reports exactly the
metrics BENCHMARK.json names, each with its unit, and no failures.

    check_metrics.py --bench PATH/pomtlb_bench --spec PATH/BENCHMARK.json

Runs each workload untraced (end-to-end metrics) and traced
(per-layer metrics) and exits non-zero on the first mismatch.
"""

import argparse
import json
import subprocess
import sys
import tempfile


def run(bench, workload, trace, work_dir):
    cmd = [bench, "--workload", workload, "--seed", "42",
           "--seconds", "0", "--trace", str(trace), "--smoke",
           "--work-dir", work_dir]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result, expected, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{result.get('failed')} failed operations")
    if result.get("attempted", 0) < 1:
        problems.append("no operations attempted")
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unlisted metric {name}")
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{name} has unit {metrics[name].get('unit')}"
                            f", BENCHMARK.json says {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True)
    parser.add_argument("--spec", required=True)
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    with tempfile.TemporaryDirectory(dir=".") as work_dir:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, expected in sets.items():
                result = run(args.bench, workload, trace, work_dir)
                ok &= check(result, expected,
                            f"{workload} --trace {trace}")
    print("every metric present with its unit" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
