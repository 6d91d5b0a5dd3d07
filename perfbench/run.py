#!/usr/bin/env python3
"""Builds the repository benchmark from source, then runs it.

Run from the repository root; every argument is passed to the benchmark:

    python3 perfbench/run.py --workload replay-conservative --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = str(Path(target) / "release" / "lumos-perfbench")
    # Replace this process, so the benchmark is the only process left running.
    os.execv(exe, [exe, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
