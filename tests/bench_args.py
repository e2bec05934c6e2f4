#!/usr/bin/env python3
"""Argument handling of the bench harnesses.

Every harness parses its command line through bench_common's applyEnv:
`--help` must print usage and exit 0, and a bad argument must print
`error: ...` and exit 2 (not abort through std::terminate).

Usage: bench_args.py <bench-binary> [more benches ...]
"""

import subprocess
import sys

BAD_ARGS = (
    ["--bogus"],            # not key=value
    ["no.such.key=1"],      # unknown key
    ["cdp.depth=abc"],      # malformed value
    ["-j0"],                # bad job count
    ["-j4x"],               # job count with a suffix
    ["--jobs=99999999999"], # job count past unsigned
)


def run(bench, args):
    return subprocess.run([bench] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    for bench in sys.argv[1:]:
        r = run(bench, ["--help"])
        if r.returncode != 0 or "usage:" not in r.stdout:
            failures.append(f"{bench} --help: exit {r.returncode}, "
                            f"stdout {r.stdout!r}")
        for args in BAD_ARGS:
            r = run(bench, args)
            if r.returncode != 2 or not r.stderr.startswith("error: "):
                failures.append(f"{bench} {' '.join(args)}: exit "
                                f"{r.returncode}, stderr {r.stderr!r}")
    for f in failures:
        print("FAIL:", f)
    if failures:
        return 1
    print(f"ok: {len(sys.argv) - 1} bench(es), --help and "
          f"{len(BAD_ARGS)} bad arguments each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
