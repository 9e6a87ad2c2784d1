#!/usr/bin/env python3
"""Builds and runs the host wall-clock benchmark of this repository.

Usage, from the repository root:

    python3 perfbench/run.py --workload <repro-all|serve-heavy|accel-exec> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `perfbench/target`), runs it from the repository root with the
same arguments, and prints its provenance line followed by its result
line, `{"correct", "attempted", "failed", "metrics"}`. The experiments'
own console output is discarded. Exits non-zero, printing no result,
when the build, the run or the result line fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build did not finish: {e}")
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"benchmark did not finish: {e}")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        return fail(f"benchmark failed with exit code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return fail(f"unreadable result line: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        return fail(f"malformed result line: {lines[-1]}")
    print(lines[-2])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
