#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a Go module of its own
(perfbench/go.mod) that builds against the repository's sources in the
parent directory, so it needs the full checkout. Every build product,
the Go build cache and temporary files included, stays under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to
the root.
"""
import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: repository sources (go.mod, internal/) not found in "
              + root, file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "go-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([exe] + sys.argv[1:], cwd=root)
    # Pass a termination on to the benchmark and wait for it to end.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: child.terminate())
    code = child.wait()
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
