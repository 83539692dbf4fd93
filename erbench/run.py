#!/usr/bin/env python3
"""Build and run the erbench benchmark.

Run from the repository root:

    python3 erbench/run.py --workload engine-direct --seed 1 --seconds 40 --trace 0

It compiles erbench and cmd/sweepd from source into .bench_build/ (Go
build cache included, so nothing is written outside the checkout),
then runs one workload. The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"--workload all" runs every workload in turn, each ending with its
own JSON line.
"""
import os
import subprocess
import sys

WORKLOADS = ("engine-direct", "sweepd-durable")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    bench = os.path.join(build, "erbench")
    sweepd = os.path.join(build, "sweepd")
    for target, out in ((".", bench), ("earlyrelease/cmd/sweepd", sweepd)):
        r = subprocess.run(["go", "build", "-o", out, target], cwd=here, env=env,
                           stdout=sys.stderr)
        if r.returncode != 0:
            print("erbench: build of %s failed" % target, file=sys.stderr)
            return r.returncode or 1
    base = [bench, "--sweepd", sweepd, "--work", os.path.join(build, "work")]
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        # Every workload in turn, each in a fresh process.
        i = args.index("--workload")
        rc = 0
        for w in WORKLOADS:
            print("== %s" % w, flush=True)
            args[i + 1] = w
            rc = subprocess.run(base + args, env=env).returncode or rc
        return rc
    return subprocess.run(base + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
