#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper_quick --seed 1 --seconds 20 --trace 0

The driver is built with `cargo build --release --offline --locked`
into `$CARGO_TARGET_DIR` (default `.bench_build`), then run pinned to
one CPU, the last one this process may use. Every workload keeps at
most one thread busy at a time: the serving workload's client and
server take turns in a closed loop. Unpinned, each of their hand-offs
is a wake-up across CPUs, and that cost swings about 2x with how the
host schedules the other virtual CPU.

The driver's standard output is passed through; the last line is the
JSON result. Its standard error is discarded: the in-process HTTP
server logs every request there, and a log written to a terminal or a
pipe would make serving speed depend on who reads it. The driver
prints its own errors on standard output for that reason.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "fuleak-perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        ran = subprocess.run(
            [binary] + sys.argv[1:],
            env=env,
            stderr=subprocess.DEVNULL,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
