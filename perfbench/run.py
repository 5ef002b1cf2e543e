#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload kv-ycsb --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench/ (which compiles the
simulator libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, runs the perfbench binary and passes its output through. The
last line of stdout is the result JSON. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("kv-ycsb", "tiering-stream", "pool-fleet")
# Every run ends within 180 s; the first one in a checkout also builds.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    # Compiler scratch files stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        # Build logs go to stderr: stdout carries only the benchmark's output.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds in (0, 60]")
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        return fail("simulator sources (src/) not found next to perfbench/")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(REPO, ".bench_build"))
    try:
        if not build(build_dir):
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference", "digests.tsv")]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return fail("perfbench exited with %d" % done.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("metrics differ from BENCHMARK.json: %s vs %s"
                    % (sorted(result["metrics"]), sorted(want)))
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
