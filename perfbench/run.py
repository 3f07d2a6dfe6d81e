#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_northdk --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (configured once, then rebuilt
incrementally on every run). The binary's last stdout line is the result
JSON; this wrapper passes its output and exit code through.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("batch_northdk", "serve_uniform", "serve_hotspot")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("CMakeLists.txt", "src/CMakeLists.txt",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(required):
            fail(f"{required} not found; run from the root of a skyex checkout")
    # Compilers and the program keep their temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: checks the output, measures nothing")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--work-dir={work_dir}"]
    if args.smoke:
        cmd.append("--smoke")
    # A session of its own, so a timeout also stops the server the binary
    # spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if args.trace == "1" and os.path.isfile(os.path.join(work_dir, "spans.json")):
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        os.replace(os.path.join(work_dir, "spans.json"),
                   os.path.join(traces, f"{args.workload}-seed{args.seed}.json"))
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed no result line")
    sys.exit(0)


if __name__ == "__main__":
    main()
