#!/usr/bin/env python3
"""Builds tfx_bench and tfx_serve from source, then runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results DIR]

Run from the root of the repository. The build tree is $CARGO_TARGET_DIR
when set, else .bench_build. tfx_bench's stdout is passed through, so the
last line is its JSON result; with --trace 1 that line also lists, as 0,
each per-layer metric of BENCHMARK.json that the workload's path does not
run. The full result document (README.md) goes to
DIR/<workload>-seed<N>-trace<T>.json, DIR defaulting to <build>/results.
The exit status is tfx_bench's, or non-zero when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def build(build_dir):
    """Configures and builds (a no-op when up to date); the log goes to
    stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "tfx_bench"],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def complete_layers(line):
    """Adds the per-layer metrics the run did not measure, as 0."""
    result = json.loads(line)
    if not result["correct"]:
        return line
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    for m in per_layer:
        result["metrics"].setdefault(m["name"],
                                     {"value": 0, "unit": m["unit"]})
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    results = os.path.abspath(args.results or os.path.join(build_dir,
                                                           "results"))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [os.path.join(build_dir, "tfx_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work_dir={work_dir}", f"--trace_dir={traces}",
           f"--out={os.path.join(results, name)}", f"--git_sha={git_sha()}"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=178)
    except subprocess.TimeoutExpired:
        print("tfx_bench timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.splitlines()
    if args.trace and lines:
        lines[-1] = complete_layers(lines[-1])
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
