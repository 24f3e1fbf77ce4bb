#!/usr/bin/env python3
"""Build the repo benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sim-lossy --seed 1 --seconds 20 --trace 0

Arguments are passed to perfbench/main.exe unchanged (see NOTES.md).
Build output goes to stderr; the benchmark's last stdout line is its
JSON result. The exit code is the build's when the build fails, else
the benchmark's.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout of the repository "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    # No shared dune cache, and compiler temporaries in the checkout: the
    # build reads and writes only the checkout.
    tmp = os.path.abspath(".perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
