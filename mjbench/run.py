#!/usr/bin/env python3
"""Build and run the mjoin benchmark.

    python3 mjbench/run.py --workload chain_oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every run configures and builds the
benchmark (a Release build of the engine libraries plus mjbench) under
.bench_build/; only the first build compiles everything. All arguments are
passed through to the mjbench binary, whose last stdout line is the JSON
result. Trace files and per-run records go to .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mjbench")


def build():
    """Configures and builds quietly; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "mjbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("mjbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def commit():
    """The git commit of the checkout, or 'unknown' outside a repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main(argv):
    if not build():
        return 1
    cmd = [BINARY] + argv
    if "--commit" not in argv:
        cmd += ["--commit", commit()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
