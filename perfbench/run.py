#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload oltp-log --seed 1 --seconds 30 --trace 0

Workloads are oltp-log, oltp-mem and index-sweep (see BENCHMARK.json).
The Go toolchain builds perfbench/ into .bench_build/, with its build
cache there too, so nothing outside the checkout is read or written
apart from the toolchain itself. A traced run (--trace 1) also writes its
span dump and CPU profile to .bench_build/traces/. The last line of
standard output is the JSON result; the exit code is 0 only when every
output check passed.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: no repository next to perfbench/ (go.mod and internal/ missing)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        HOME=os.path.join(out, "home"),
        XDG_CONFIG_HOME=os.path.join(out, "home", ".config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, *sys.argv[1:], "--out", os.path.join(out, "traces")], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
