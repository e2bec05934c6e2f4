#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hit_compute --seed 1 --seconds 10 --trace 0

Builds perfbench (perfbench/CMakeLists.txt, Release) under
.bench_build/ at the repository root, runs one workload, and relays
its output. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. For the pinned seed the
benchmark also checks every sim's stats hash against perfbench/pinned.json.
Exits non-zero, without a result line, when the build or run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("hit_compute", "chase_miss", "sweep_fanout")
# Start-up, set-up and the traced run's extra probes come on top
# of --seconds; the whole run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench; return its path."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap and repairs a tree whose configure failed.
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    exe = BUILD / "perfbench"
    if not exe.is_file():
        raise RuntimeError(f"build produced no {exe}")
    return exe


def pinned_args(workload, seed):
    """--expect TAG=HASH for every pinned leg of this workload."""
    pins = json.loads((HERE / "pinned.json").read_text())
    if seed != pins["seed"]:
        return []
    args = []
    for tag, digest in sorted(pins["stats_hashes"].items()):
        if tag.startswith(workload + "/"):
            args += ["--expect", f"{tag}={digest}"]
    if not args:
        raise RuntimeError(f"pinned.json has no hashes for {workload}")
    return args


def check_result(line):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(res)}")
    if res["attempted"] < 1:
        raise ValueError("no operation attempted")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        exe = build()
        cmd = [str(exe), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += pinned_args(args.workload, args.seed)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"perfbench exited with {proc.returncode}")
        if not lines:
            raise ValueError("perfbench printed nothing")
        check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        log(str(e))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
