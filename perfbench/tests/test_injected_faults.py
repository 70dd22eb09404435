#!/usr/bin/env python3
"""Each injected fault makes a real benchmark run fail.

Usage: test_injected_faults.py <path to the perfbench binary>

Runs every workload once clean and once per injected fault (a short
run), and expects the clean run to pass and each faulty run to exit
non-zero with "correct": false on its last line.
"""
import json
import os
import subprocess
import sys

CASES = [
    ("zoo-infer", "off-grid", {"QNN_THREADS": "1"}),
    ("zoo-infer", "swap-rows", {"QNN_THREADS": "1"}),
    ("serve-overload", "serve-count", {"QNN_THREADS": "2"}),
    ("paper-sweep", "energy-order", {"QNN_THREADS": "1"}),
]


def run(binary, workload, inject, env):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env={**os.environ, **env})
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last)


def main():
    binary = sys.argv[1]
    failures = []
    clean_checked = set()
    for workload, inject, env in CASES:
        if workload not in clean_checked:
            code, result = run(binary, workload, None, env)
            if code != 0 or not result["correct"]:
                failures.append(f"{workload}: clean run failed")
            clean_checked.add(workload)
        code, result = run(binary, workload, inject, env)
        if code == 0 or result["correct"]:
            failures.append(f"{workload}: --inject {inject} did not fail")
        print(f"{workload} --inject {inject}: exit {code}, "
              f"correct={result['correct']}")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
