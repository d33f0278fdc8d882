#!/usr/bin/env python3
"""Fleet benchmark entry point.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload fig3_dense --seed 1 --seconds 20 --trace 0

Builds the simulator library and the benchmark from source into
.bench_build/ (configure once, then incremental), runs one workload, and
prints the benchmark's JSON result as the last line of standard output.
Build output goes to standard error. A record of the run, with the git
SHA, compiler, flags, nproc, thread counts and seed, is written to
.bench_out/.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "fleetbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference" / "seed42.txt"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    """Reads HEAD from .git without running git (the checkout may not be a
    repository, and nothing outside it may be read)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT} (expected CMakeLists.txt and src/)")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        # An explicit empty launcher keeps ccache (and its cache outside
        # the checkout) out of the build.
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_COMPILER_LAUNCHER="],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "fleet_bench",
         "-j", jobs],
        check=True, stdout=log, stderr=log)
    return BUILD_DIR / "fleet_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--reference", str(REFERENCE),
               "--out-dir", str(OUT_DIR), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"fleet_bench exited with code {proc.returncode}")
    print(lines[-1])


if __name__ == "__main__":
    main()
