#!/usr/bin/env python3
"""Process-level checkpoint/restore determinism gate.

Exercises the cdpsim --checkpoint-out / --checkpoint-in flags the way
the warm-fork sweep workflow uses them and requires:

  * the measured stdout (result row + full stats dump) of the
    checkpointing run and of a fresh process restoring its checkpoint
    to be byte-identical,
  * the checkpoint file itself to be byte-identical when written
    twice, and when re-written by a restored process image,
  * a sweep fork (restore under a changed cdp.* config) to succeed
    and be reproducible run over run,
  * all of the above at -j1 and -j8 alike,
  * a refused checkpoint (corrupted, or of format version 2) to exit 1
    with its diagnostic and without the usage text, which only an
    argument error (an unknown --flag) prints.

Usage: checkpoint_determinism.py <cdpsim>
"""

import os
import subprocess
import sys
import tempfile

CONFIG = [
    "workload=xbtree",
    "warmup_uops=20000",
    "measure_uops=40000",
    "cdp.depth=3",
]
SWEEP = ["cdp.depth=5", "cdp.next_lines=1"]


def run_raw(cdpsim, args):
    env = dict(os.environ)
    env.pop("CDP_SCALE", None)  # fixed-length runs
    env.pop("CDP_JOBS", None)   # job count is the test's to choose
    argv = [cdpsim] + args
    return argv, subprocess.run(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)


def run(cdpsim, args, jobs):
    argv, res = run_raw(cdpsim, args + ["--stats", "-j%d" % jobs])
    if res.returncode != 0:
        sys.exit("FAIL: %s exited %d\nstderr:\n%s"
                 % (" ".join(argv), res.returncode,
                    res.stderr.decode(errors="replace")))
    return res.stdout


def read(path):
    with open(path, "rb") as f:
        return f.read()


def check(cdpsim, jobs, tmp):
    ck_a = os.path.join(tmp, "warm_a.ckpt")
    ck_b = os.path.join(tmp, "warm_b.ckpt")

    # Warm run writes the checkpoint; a fresh process restores it.
    # Both measure the same phase, so their stdout must match bytewise.
    out_save = run(cdpsim, CONFIG + ["--checkpoint-out=" + ck_a], jobs)
    out_fork = run(cdpsim, CONFIG + ["--checkpoint-in=" + ck_a], jobs)
    if out_save != out_fork:
        sys.exit("FAIL (-j%d): restored run's stdout differs from the "
                 "checkpointing run's" % jobs)

    # The serializer is deterministic: same machine, same bytes.
    run(cdpsim, CONFIG + ["--checkpoint-out=" + ck_b], jobs)
    if read(ck_a) != read(ck_b):
        sys.exit("FAIL (-j%d): re-written checkpoint bytes differ"
                 % jobs)

    # Sweep fork: the same warm checkpoint restored under a different
    # cdp configuration. Must succeed and be reproducible.
    fork1 = run(cdpsim, CONFIG + SWEEP + ["--checkpoint-in=" + ck_a],
                jobs)
    fork2 = run(cdpsim, CONFIG + SWEEP + ["--checkpoint-in=" + ck_a],
                jobs)
    if fork1 != fork2:
        sys.exit("FAIL (-j%d): sweep fork is not reproducible" % jobs)
    if fork1 == out_fork:
        sys.exit("FAIL (-j%d): sweep override had no effect on the "
                 "forked run" % jobs)
    print("-j%d: save/restore stdout identical, checkpoint bytes "
          "stable, sweep fork reproducible" % jobs)
    return out_save, read(ck_a), fork1


def check_errors(cdpsim, ckpt, tmp):
    """Runtime errors print their diagnostic alone; usage is for
    argument errors."""
    good = read(ckpt)
    corrupted = bytearray(good)
    corrupted[40] ^= 0x01  # inside CFG!'s payload: fails its checksum
    version2 = bytearray(good)
    version2[8] = 2  # the format version follows the 8-byte magic
    cases = [("corrupted", corrupted, "fails its checksum"),
             ("version-2", version2, "file has version 2")]
    for name, data, want in cases:
        bad = os.path.join(tmp, name + ".ckpt")
        with open(bad, "wb") as f:
            f.write(data)
        argv, res = run_raw(cdpsim, CONFIG + ["--checkpoint-in=" + bad])
        err = res.stderr.decode(errors="replace")
        if res.returncode != 1:
            sys.exit("FAIL: %s exited %d, want 1\nstderr:\n%s"
                     % (" ".join(argv), res.returncode, err))
        if "cdpsim: error: " not in err or want not in err:
            sys.exit("FAIL: %s checkpoint: no '%s' diagnostic\n"
                     "stderr:\n%s" % (name, want, err))
        if "usage:" in err:
            sys.exit("FAIL: %s checkpoint: usage text printed after "
                     "a runtime error\nstderr:\n%s" % (name, err))
    argv, res = run_raw(cdpsim, CONFIG + ["--no-such-flag"])
    err = res.stderr.decode(errors="replace")
    if res.returncode != 1 or "usage:" not in err:
        sys.exit("FAIL: %s exited %d without usage text\nstderr:\n%s"
                 % (" ".join(argv), res.returncode, err))
    print("refused checkpoints: diagnostic only; unknown flag: usage")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    cdpsim = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        d1 = os.path.join(tmp, "j1")
        d8 = os.path.join(tmp, "j8")
        os.makedirs(d1)
        os.makedirs(d8)
        if check(cdpsim, 1, d1) != check(cdpsim, 8, d8):
            sys.exit("FAIL: -j1 and -j8 disagree")
        check_errors(cdpsim, os.path.join(d1, "warm_a.ckpt"), tmp)
    print("checkpoint workflow deterministic at -j1 and -j8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
