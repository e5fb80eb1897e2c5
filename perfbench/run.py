#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/bench.exe
with dune (build output goes to stderr), runs one workload in a single
process and relays the benchmark's stdout, whose last line is the JSON
result.  With --trace 1 the traced spans are written to perfbench/out/.
The exit code is the benchmark's: 0 when every output was correct, 1 when
a correctness check failed, 2 on a usage error or a failed build.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print(f"perfbench: {ROOT} holds no source tree to build", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
           timeout=700, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", out],
               timeout=170, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
