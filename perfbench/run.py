#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The build goes to _build/ with dune's shared
cache off, so nothing is read or written outside the checkout. The last line
of standard output is the run's JSON result (see perfbench/README.md).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("analytic", "analytic-w2", "interactive")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout or SIGTERM kill the whole
    group and wait for it."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(cmd, stdout=stdout, env=env, start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *_: (stop(), sys.exit(143)))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository (no dune-project or lib/ here)")

    build = dune_command() + ["build", "--root", ".", "./perfbench/main.exe"]
    if run_group(build, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("build failed")

    sys.stdout.flush()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code = run_group(cmd, RUN_TIMEOUT_S, None)
    if code != 0:
        fail("%s exited with code %d" % (args.workload, code))


if __name__ == "__main__":
    main()
