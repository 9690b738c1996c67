#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py
        --workload <fine|fine-cross>
        --seed <n> --seconds <s> --trace <0|1>

The harness and the rio libraries it links are compiled from this checkout
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build. The last line of standard output is the result object
the harness prints. Exit codes: 0 success, 1 a failed or wrong run, 2 bad
arguments or a checkout without the rio sources, 3 a build failure, 4 the
harness overran its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the harness is built from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    rev = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            rev = out.stdout.strip()
    return f"{rev}+src-sha256:{source_digest()}"


def build(build_dir):
    """Configure once, then build the harness target; logs go to stderr."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                return log_path
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return log_path
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fine", "fine-cross"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no rio sources under {ROOT}/src; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    bad_log = build(build_dir)
    if bad_log is not None:
        with open(bad_log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail(3, f"build failed (log: {bad_log})")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out"),
           "--commit", commit_id()]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(4, f"harness overran {HARNESS_TIMEOUT_S} s and was killed")
    sys.exit(rc)


if __name__ == "__main__":
    main()
