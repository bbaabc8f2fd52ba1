#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig5_baseline --seed 1 --seconds 20 --trace 0

The last line of standard output is the result record; the line before
it records provenance. Build output and diagnostics go to standard error.
The build goes to CARGO_TARGET_DIR when it is set, else perfbench/target.
`--trace 1` runs the traced binary, which reports the per-layer metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binary(argv):
    traced = any(flag == "--trace" and value == "1" for flag, value in zip(argv, argv[1:]))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")


def run(argv):
    """Runs the benchmark binary, dropping the reproduction harness's
    per-artifact progress lines from its standard error."""
    proc = subprocess.Popen([binary(argv)] + argv, stderr=subprocess.PIPE, text=True)
    for line in proc.stderr:
        if not line.startswith("running "):
            sys.stderr.write(line)
    return proc.wait()


def main():
    if not build():
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
