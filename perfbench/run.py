#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload zoo-infer --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset; later
calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Each workload runs
at a fixed thread count (QNN_THREADS) with the library's other
environment switches cleared, so every run measures the same paths.
A traced run reports every per-layer metric that BENCHMARK.json names;
one that the workload does not exercise reads 0.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOAD_THREADS = {"zoo-infer": "1", "serve-overload": "2",
                    "paper-sweep": "1"}
CLEARED_ENV = ("QNN_TRACE", "QNN_INT_INFER", "QNN_SIMD", "QNN_BENCH_FAST")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", src, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    made = subprocess.run(["cmake", "--build", build_dir, "-j4",
                           "--target", "perfbench"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOAD_THREADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["QNN_THREADS"] = WORKLOAD_THREADS[args.workload]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if args.trace == "1" and lines:
        lines[-1] = with_all_per_layer(root, lines[-1])
    for line in lines:
        print(line)
    return proc.returncode


def with_all_per_layer(root, line):
    """Adds a 0 for each per-layer metric the binary did not report."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return line
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    for m in per_layer:
        result["metrics"].setdefault(m["name"],
                                     {"value": 0.0, "unit": m["unit"]})
    return json.dumps(result)


if __name__ == "__main__":
    sys.exit(main())
