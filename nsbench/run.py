#!/usr/bin/env python3
"""Builds netscatterd and the nsbench binary from source, then runs one
benchmark workload.

    python3 nsbench/run.py --workload <live256|replay256|sparse16> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default .bench_build); spans go to .bench_build/nsbench.
The last line of stdout is the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds the daemon and the benchmark binary (release)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "netscatter_daemon", "--bin", "netscatterd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr; stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"nsbench: build failed: {' '.join(cmd)}")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("nsbench: no Cargo.toml at the repository root; run from a full checkout")
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    out = os.path.join(ROOT, ".bench_build", "nsbench")
    cmd = [os.path.join(release, "nsbench"), *argv,
           "--daemon", os.path.join(release, "netscatterd"), "--out", out]
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
