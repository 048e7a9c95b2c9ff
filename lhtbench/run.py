#!/usr/bin/env python3
"""Builds the LHT benchmark from source and runs one workload.

    python3 lhtbench/run.py --workload local-read --seed 1 --seconds 10 --trace 0

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The first run configures and builds into
$CARGO_TARGET_DIR/lhtbench (default .bench_build/lhtbench); later runs
rebuild incrementally. Build output goes to stderr; the benchmark's last
stdout line is its JSON result. See lhtbench/README.md.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("local-read", "local-ingest", "cluster-mixed")


def fail(msg):
    print("lhtbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt", default="",
                    help="feed this check a corrupted result (the run must fail)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to " + bench_dir)

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "lhtbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "lht_bench", "lht_noded"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if rc != 0:
            fail("build step failed (%d): %s" % (rc, " ".join(cmd)))

    binary = os.path.join(build_dir, "lht_bench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--noded", os.path.join(build_dir, "lht", "rpc", "lht_noded"),
            "--out-dir", os.path.join(root, ".bench_out")]
    if args.corrupt:
        argv += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(root)
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
