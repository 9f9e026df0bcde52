#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 hexbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hexbench/run.py --selfcheck

Run from the repository root. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the current
directory; build output goes to stderr, and the last line of stdout is the
benchmark's JSON result. --selfcheck runs every workload at a tiny size,
traced and untraced, with every check on, and exits non-zero on any
mismatch.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sparql", "probe_mix", "http_mixed")
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hexbench: the program's sources (src/) are not here")
    out = os.path.join(build_root(), "hexbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("hexbench: build failed: " + " ".join(step))
    return os.path.join(out, "hexbench")


def run(binary, workload, seed, seconds, trace, size="full"):
    """Runs one benchmark process; returns (exit code, last stdout line)."""
    workdir = os.path.join(build_root(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hexbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def selfcheck(binary):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, line = run(binary, workload, 1, 1, trace, size="tiny")
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or not line:
                problems.append("%s: exit %d" % (label, code))
                continue
            result = json.loads(line)
            print("%s: correct=%s attempted=%d failed=%d" %
                  (label, result["correct"], result["attempted"],
                   result["failed"]), file=sys.stderr)
            if not result["correct"]:
                problems.append("%s: an output check failed" % label)
            if spec is not None:
                key = "per_layer" if trace else "end_to_end"
                want = sorted(m["name"] for m in spec[key])
                have = sorted(result["metrics"])
                if want != have:
                    problems.append("%s: metrics %s, BENCHMARK.json lists %s"
                                    % (label, have, want))
    for p in problems:
        print("hexbench selfcheck: " + p, file=sys.stderr)
    print("hexbench selfcheck: %s" % ("FAILED" if problems else "ok"),
          file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selfcheck:
        return selfcheck(binary)
    code, line = run(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    if code != 0 or not line:
        return code or 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
