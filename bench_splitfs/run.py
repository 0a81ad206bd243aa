#!/usr/bin/env python3
"""Builds bench_splitfs from this checkout's sources and runs one workload.

    python3 bench_splitfs/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench_splitfs/run.py --check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/bench_splitfs
(default .bench_build/bench_splitfs); the first run configures and compiles, later
runs only check that the build is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the Perfetto traces are
written next to the build as trace-<workload>.<mode>.json (replaced by the next traced
run of that workload).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run the self-test against BENCHMARK.json instead")
    args = parser.parse_args()
    if not args.check and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "bench_splitfs")
    os.makedirs(build_dir, exist_ok=True)
    # Compiler and tool scratch files stay inside the checkout too.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_splitfs: build failed: {err}", file=sys.stderr)
        return 1

    exe = os.path.join(build_dir, "bench_splitfs")
    if args.check:
        cmd = [exe, "--check=" + os.path.join(root, "BENCHMARK.json")]
    else:
        cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
        if args.trace:
            cmd.append("--trace=" + os.path.join(build_dir, f"trace-{args.workload}"))
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
