#!/usr/bin/env python3
"""Closed-loop benchmark of the DECISIVE edit -> analyse loop.

Usage (from the repository root):

    python3 loopbench/run.py --workload campaign_rail --seed 1 --seconds 30 --trace 0
    python3 loopbench/run.py --self-test

The first run builds the libraries under src/ together with the loopbench
program (CMake, Release) into .bench_build/loopbench; later runs only rebuild
what changed. Each run writes the seeded inputs of the workload into
.bench_build/work in a separate process, then measures. The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1 (the span trace of the run is written to
.bench_build/traces). The exit code is 0 only when every operation matched
its oracle.

--self-test runs every workload on a tiny subject, traced and untraced, and
checks that every metric BENCHMARK.json names is printed with its unit and
that every oracle passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "loopbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "loopbench"
BINARY = BUILD_DIR / "loopbench"
WORKLOADS = ("campaign_rail", "edit_loop", "design_pass")

BUILD_TIMEOUT_S = 850
GENERATE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"loopbench: {message}", file=sys.stderr)
    sys.exit(code)


def tool_env():
    """Keeps compiler and tool temporaries inside the checkout."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def quiet(command, timeout, env):
    """Runs a build step; on failure shows its output on stderr and exits."""
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, command))}", 3)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail(f"failed ({done.returncode}): {' '.join(map(str, command))}", 3)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    env = tool_env()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet(["cmake", "--build", str(BUILD_DIR), "--target", "loopbench", "-j", jobs],
          BUILD_TIMEOUT_S, env)


def run_once(workload, seed, seconds, trace, tiny=False):
    """Generates the inputs, measures, and returns (exit code, stdout)."""
    tag = f"{workload}-{seed}{'-tiny' if tiny else ''}"
    work = BUILD_ROOT / "work" / tag
    traces = BUILD_ROOT / "traces"
    shutil.rmtree(work, ignore_errors=True)
    traces.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(work)]
    if tiny:
        common.append("--tiny")
    env = tool_env()
    try:
        generated = subprocess.run([str(BINARY), "generate", *common], cwd=ROOT, env=env,
                                   timeout=GENERATE_TIMEOUT_S)
        if generated.returncode != 0:
            return generated.returncode, ""
        measured = subprocess.run(
            [str(BINARY), "run", *common, "--seconds", str(seconds), "--trace",
             "1" if trace else "0", "--trace-out", str(traces / f"{tag}.json")],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        return measured.returncode, measured.stdout
    except subprocess.TimeoutExpired:
        return 124, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            code, out = run_once(workload, 7, 1, trace, tiny=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: unexpected keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: oracle failures {result['failed']}/{result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, unit in expected[trace].items():
                value = metrics.get(name, {})
                if value.get("unit") != unit:
                    problems.append(f"{label}: {name} unit {value.get('unit')!r} != {unit!r}")
                number = value.get("value")
                if not isinstance(number, (int, float)) or not math.isfinite(number):
                    problems.append(f"{label}: {name} value {number!r} is not a finite number")
            if trace and not (BUILD_ROOT / "traces" / f"{workload}-7-tiny.json").is_file():
                problems.append(f"{label}: no trace file written")
            print(f"{label}: {result['attempted']} operations, {len(metrics)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return self_test()
    code, out = run_once(args.workload, args.seed % 2**32, args.seconds, args.trace == 1)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
