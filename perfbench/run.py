#!/usr/bin/env python3
"""Run one workload of the dcmbqc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library, the dcmbqcd daemon and the benchmark binary,
Release) into $CARGO_TARGET_DIR, default .bench_build; later runs
only re-check the build. The binary prints every metric with its unit
and sample count; this script relays that listing and ends with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1), each as {"value", "unit"}. A per-layer
metric the workload does not exercise reads 0.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_bounded(argv, timeout, **kwargs):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(argv[0]), timeout))
    return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        code, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)

    code, out = run_bounded(
        [os.path.join(build_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--daemon", os.path.join(build_dir, "dcmbqcd"),
         "--run-dir", run_dir],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.decode().rstrip("\n").split("\n")
    if code != 0:
        fail("benchmark binary exited with code %d" % code)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
