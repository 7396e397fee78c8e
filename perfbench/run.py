#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload jungle-bridge --seed 1 --seconds 10 --trace 0

Every file the build writes (Go build cache, module cache, temporary
work files, toolchain config) goes under .bench_build/ in the current
directory. The arguments
are passed to the benchmark unchanged; its standard output ends with the
JSON result line, and its exit status is this script's exit status.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(build, "home", ".cache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
