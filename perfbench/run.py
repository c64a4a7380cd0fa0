#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload buffer_extract --seed 1 --seconds 15 --trace 0

The arguments are passed to the OCaml benchmark (perfbench/bench.ml),
whose last line of standard output is the JSON result. Build output goes
to standard error. Exits nonzero, without a result, when the checkout
lacks the repository sources, the build fails or the run times out.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return found[-1] if found else None


def run(cmd, timeout, env, stdout):
    """Run cmd in its own process group; kill the whole group on timeout
    and wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a repository checkout")
    dune = find_dune()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # build output goes to stderr: the last stdout line is the result
    code = run([dune, "build", "--root", ".", "-j", "2", TARGET],
               BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        fail(f"build failed ({code})")
    sys.stdout.flush()
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env, None)
    sys.exit(code)


if __name__ == "__main__":
    main()
