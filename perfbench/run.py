#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) with CMake in $CARGO_TARGET_DIR/perfbench
($CARGO_TARGET_DIR defaults to .bench_build) and runs the benchmark's own
tests after every build. Workloads: lan_read_lookup, slowlink_tcp,
soak_leases_rw. The default seed is 1; seed 10 is held out, for checking on
a second seed a claim made while working on seed 1.

Build output goes to stderr. The benchmark's report goes to stdout, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics; --trace 0 prints the end-to-end metrics of BENCHMARK.json and
--trace 1 the per-layer ones. This script checks that line against
BENCHMARK.json and exits non-zero if it does not match.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds perfbench/; returns True if anything was rebuilt."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    binaries = [os.path.join(build_dir, name) for name in ("perfbench", "perfbench_test")]

    def stamps():
        return [os.path.getmtime(b) if os.path.exists(b) else None for b in binaries]

    before = stamps()
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "perfbench_test"],
                   check=True, stdout=sys.stderr)
    return before != stamps()


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys " + ",".join(sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("result metrics differ from BENCHMARK.json: " +
             ", ".join("%s [%s]" % kv
                       for kv in sorted(set(got.items()) ^ set(expected.items()))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        rebuilt = build(build_dir)
        if rebuilt:
            subprocess.run([os.path.join(build_dir, "perfbench_test")],
                           check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build or self-test failed: %s" % e)

    run = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    check_result(lines[-1], args.trace)


if __name__ == "__main__":
    main()
