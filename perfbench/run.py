#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and its host speed probe
perfbench/speed_kernel.exe with dune (into _build/, without the shared
dune cache), runs the benchmark, and passes its standard output through: the last
line is the JSON result.  The full result, with its host record, is also
written to _perfbench/results/.  Exits non-zero without a result when the
working directory is not a buildable checkout.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RESULTS = os.path.join("_perfbench", "results")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout "
              "(no dune-project and lib/ here)", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2

    # The compilers live beside dune when it was found outside PATH, and
    # temporary files stay inside the checkout.
    path = os.pathsep.join([os.path.dirname(dune),
                            os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin")])
    tmp = os.path.abspath(os.path.join("_perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path, TMPDIR=tmp)
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/perfbench.exe",
             "./perfbench/speed_kernel.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(
        RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--out", out]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    # The run deleted its scratch files on exit; flush that now so the
    # next run does not start on a busy disk.
    os.sync()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
