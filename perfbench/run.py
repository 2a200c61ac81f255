#!/usr/bin/env python3
"""Build and run the pmbist benchmark for one workload.

    python3 perfbench/run.py --workload campaign|memtest|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/ (the benchmark binary plus the pmbist libraries from src/) with CMake
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later runs only re-check the build.  The binary's
report goes to stdout; the last line is one JSON object holding every
metric BENCHMARK.json declares for the trace mode: end_to_end with
--trace 0, per_layer with --trace 1.  A per-layer metric of a layer the
workload does not exercise reads 0.  The exit code is 0 only when every
correctness gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the binary; returns the binary path."""
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path, encoding="utf-8",
                          errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pmbist sources next to perfbench/ (expected src/)")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(out, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # BENCHMARK.json is the one list of metric names: every metric the
    # binary reports must be declared there, and every end-to-end metric
    # must be reported.
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in measured.items():
        if name not in units:
            fail(f"perfbench reported undeclared metric {name!r}")
        if value["unit"] != units[name]:
            fail(f"metric {name!r} has unit {value['unit']!r}, "
                 f"declared {units[name]!r}")
    metrics = {}
    for name, unit in units.items():
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace == "1":
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"perfbench did not report end-to-end metric {name!r}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
