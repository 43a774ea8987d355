#!/usr/bin/env python3
"""Build and run the nativebench benchmark from the root of a checkout.

    python3 nativebench/run.py --workload suite --seed 1 --seconds 20 --trace 0

The Go program is built from the checkout's sources into .bench_build/
(the build cache lives there too, so nothing is written outside the
checkout) and then run with the same arguments from the checkout root.
The program's stdout passes through; its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nativebench")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOMODCACHE": os.path.join(BUILD, "go-mod"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("nativebench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("nativebench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
