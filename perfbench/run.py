#!/usr/bin/env python3
"""Build and run the live-plane benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ns-small --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the nfp library from src/)
into .bench_build/, or the directory named by CARGO_TARGET_DIR, then runs the
perfbench binary with the same arguments. The binary's stdout passes through
unchanged; its last line is the result JSON. With --trace 1 the spans are
written to <build dir>/traces/<workload>-seed<seed>.json.

Exits non-zero, without a result line, when the build fails (for instance
when src/ is missing) or the arguments are invalid.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + gen)
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in opts:
        print(__doc__, file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(out, "perfbench")] + argv
    if opts.get("--trace") == "1" and "--trace-out" not in opts:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (opts["--workload"], opts.get("--seed", "1"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
