#!/usr/bin/env python3
"""Build the perfbench command from source and run one benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grav-farfield --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare <base-results-dir> <new-results-dir>

Everything the build and the run write (Go build cache, binary, result
records, traces, the determinism ledger) stays under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the checkout
root. The last line of standard output is the run's JSON result; the exit
code is non-zero when the build fails or a correctness gate fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        HOME=os.path.join(build, "home"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    return env


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    for sub in ("", "home", "config", "cache"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = build_env(build)
    binary = os.path.join(build, "perfbench-bin")
    made = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        cmd = [binary] + args
    else:
        cmd = [binary, "--out", os.path.join(build, "perfbench"), "--root", ROOT] + args
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
