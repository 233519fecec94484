#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/main.exe with
dune inside that tree, runs it, and passes its output through: the
last line of standard output is the JSON result.  Build output goes to
standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("read-mostly", "privatize-hot", "verify-history")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    # Set-up, warm-ups, checking and the traced run's extra work take
    # at most about twice the measured time on top of it.
    return max(170, 3 * seconds + 80)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def capture(cmd, env=None):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    rev = capture(["git", "rev-parse", "HEAD"])
    if rev is None:
        return "none"
    dirty = capture(["git", "status", "--porcelain", "--untracked-files=no"])
    return rev.strip() + ("-dirty" if dirty else "")


def flambda():
    config = capture(["ocamlfind", "ocamlopt", "-config"]) or capture(["ocamlopt", "-config"])
    for line in (config or "").splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    # The benchmark drives the repository's libraries, so it needs the
    # whole source tree, not only its own directory.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the source tree (dune-project and lib/ not found)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--git-rev", git_rev(), "--flambda", flambda(), "--out-dir", OUT_DIR,
    ]
    timeout = run_timeout_s(args.seconds)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % timeout)
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        for line in lines[-1:]:
            print(line, file=sys.stderr)
        fail("benchmark failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
