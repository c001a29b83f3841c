#!/usr/bin/env python3
"""Build and run the end-to-end trace-correction benchmark.

Usage, from the repository root:

    python3 pipeline_bench/run.py --workload offline-64r --seed 1 --seconds 30 --trace 0
    python3 pipeline_bench/run.py --workload all          # every workload, one report
    python3 pipeline_bench/run.py --selftest              # determinism self-test

The first call configures and builds the benchmark package (this directory's
CMakeLists.txt, which compiles the library from ../src) into
$CARGO_TARGET_DIR/pipeline_bench, or .bench_build/pipeline_bench when the
variable is unset.  Later calls rebuild incrementally.  Build output goes to
stderr; the benchmark's report lines and its JSON result go to stdout, the
result last.  The result's metric names and units are checked against
BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["offline-64r", "stream-8r", "scenarios"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"pipeline_bench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the chronosync sources (src/) are not next to the benchmark")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "pipeline_bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "pipeline_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "pipeline_bench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns its stdout lines."""
    cmd = [binary, "--work-root", os.path.join(ROOT, ".bench_work"),
           "--scenarios-dir", os.path.join(ROOT, "scenarios")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"the benchmark exited with code {proc.returncode}")
    return out.splitlines()


def check_result(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        fail(f"metrics disagree with BENCHMARK.json: missing={missing} extra={extra} "
             f"wrong_unit={wrong}")


def run_workload(binary, workload, seed, seconds, trace):
    lines = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)])
    if not lines:
        fail("the benchmark printed no result")
    result = json.loads(lines[-1])
    check_result(result, trace)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the determinism self-test instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    binary = build()
    if args.selftest:
        for line in run_binary(binary, ["--selftest", "--seed", str(args.seed)]):
            print(line)
        return

    if args.workload != "all":
        lines, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
