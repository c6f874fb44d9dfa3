#!/usr/bin/env python3
"""Build the loadex benchmark from source and run it once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then replaces itself
with the benchmark binary, which prints the result JSON as its last line.
If the build fails, exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def build():
    """Build the benchmark; return the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr; stdout is reserved for the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
