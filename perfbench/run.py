#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0

Every argument goes to perfbench/main.exe (see perfbench/README.md).  The
build runs through dune with the shared cache off, so nothing is written
outside the checkout; build output goes to stderr.  The exit code is the
benchmark's, or 1 when the build fails or the run overstays its limit.
"""

import os
import shutil
import subprocess
import sys

RUN_LIMIT_S = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:])
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
