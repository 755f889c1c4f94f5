#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program is built from source into .bench_build/ at the repository
root, with the Go build cache kept there too, and then run with the same
arguments. Its last line of standard output is the JSON result. The exit
code is the program's, or 1 when the build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, cwd, env, timeout):
    """Runs cmd in its own process group and waits for all of it to end."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    if run(["go", "build", "-o", exe, "."], here, env, BUILD_TIMEOUT_S) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run([exe] + sys.argv[1:], root, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
