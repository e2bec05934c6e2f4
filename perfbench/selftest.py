#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on 4 cores).

    python3 perfbench/selftest.py

Checks what the benchmark promises beyond its timings:
  * every sim passes the stats-hash gate, and a wrong pin fails it;
  * deterministic counts, sim_ipc and cdp_speedup repeat exactly across
    runs, on the pinned seed and on a held-out seed;
  * the traced layer split adds up and separates the workloads the way
    README.md says it does.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build + pin helpers)

# Metrics that must repeat exactly for one (workload, seed).
EXACT_TRACED = ("workloads.image_frames", "core.cdp_issued",
                "core.cdp_accurate_ratio", "snapshot.bytes")
EXACT_PLAIN = ("sim_ipc", "cdp_speedup")
PINNED_SEED = json.loads((run.HERE / "pinned.json").read_text())["seed"]
HELD_OUT_SEED = 7

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def drive(exe, workload, seed, trace, extra=()):
    # Traced runs get enough reps for stable median shares; the
    # untraced ones only need their deterministic outputs.
    seconds = "2" if trace else "0.5"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    cmd += run.pinned_args(workload, seed) + list(extra)
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    res = run.check_result(out.stdout.splitlines()[-1])
    return res, {k: v["value"] for k, v in res["metrics"].items()}


def exact_keys(metrics):
    return sorted(k for k in metrics
                  if k.endswith("_per_kuop") or k in EXACT_TRACED)


def main():
    exe = run.build()
    traced = {}
    for workload in run.WORKLOADS:
        for seed in (PINNED_SEED, HELD_OUT_SEED):
            name = f"{workload} seed {seed}"
            a_res, a = drive(exe, workload, seed, 1)
            b_res, b = drive(exe, workload, seed, 1)
            for res in (a_res, b_res):
                check(res["correct"] and res["failed"] == 0,
                      f"{name} traced: {res['attempted']} attempted, "
                      f"{res['failed']} failed")
            same = [k for k in exact_keys(a) if a[k] != b[k]]
            check(not same and len(exact_keys(a)) >= 16,
                  f"{name}: deterministic counts repeat {same or ''}")
            shares = (a["workloads.gen_share"] + a["cpu.self_share"] +
                      a["memsys.share"])
            check(abs(shares - 1) < 1e-9 and a["cpu.self_share"] > 0,
                  f"{name}: gen + cpu self + memsys shares = {shares:.12f}")
            p_res, p = drive(exe, workload, seed, 0)
            q_res, q = drive(exe, workload, seed, 0)
            check(p_res["correct"] and q_res["correct"],
                  f"{name} untraced: stats hashes pass")
            check(all(p[k] == q[k] and p[k] > 0 for k in EXACT_PLAIN),
                  f"{name}: sim_ipc {p['sim_ipc']:.6f}, cdp_speedup "
                  f"{p['cdp_speedup']:.6f} repeat exactly")
            traced[workload, seed] = a

    for seed in (PINNED_SEED, HELD_OUT_SEED):
        hit = traced["hit_compute", seed]
        chase = traced["chase_miss", seed]
        for key in ("memsys.l2_miss_per_kuop", "core.cdp_issued_per_kuop"):
            check(chase[key] > 100 * hit[key],
                  f"seed {seed} {key}: chase_miss {chase[key]:.3f} > "
                  f"100 x hit_compute {hit[key]:.4f}")
        check(chase["memsys.share"] > hit["memsys.share"],
              f"seed {seed}: memsys.share higher on chase_miss")
        check(hit["workloads.gen_share"] > chase["workloads.gen_share"],
              f"seed {seed}: workloads.gen_share higher on hit_compute")

    # The gate itself: a wrong pin must fail the sim it names.
    res, _ = drive(exe, "hit_compute", HELD_OUT_SEED, 0,
                   ["--expect", "hit_compute/reinforced-d3=0000000000000000"])
    check(not res["correct"] and res["failed"] == res["attempted"] - 1,
          f"wrong pin: {res['failed']} of {res['attempted']} failed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
