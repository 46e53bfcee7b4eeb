#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the simulator's crates. It is built offline in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root). Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
