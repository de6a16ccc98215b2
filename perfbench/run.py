#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload local_flagged --seed 1 --seconds 10 --trace 0

Builds the `fact-shardd` worker from the repository's workspace and the
benchmark crate next to this script (both release, offline, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark with
the given flags, pinned to one CPU (the highest-numbered one this process
may use; the spawned `fact-shardd` inherits it). Build output goes to
stderr; the benchmark's stdout is passed through, so its last line is the
JSON result. Exits non-zero without a result when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("run.py: no repository workspace next to the benchmark",
              file=sys.stderr)
        return 2
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    target = os.path.abspath(target)
    if not cargo_build(root_manifest, "--bin", "fact-shardd"):
        return 3
    if not cargo_build(bench_manifest):
        return 3
    exe = os.path.join(target, "release", "perfbench")
    shardd = os.path.join(target, "release", "fact-shardd")
    # One core: on two, how the generator, shard and audit-writer threads
    # landed on the cores flipped the serving figures by a third between
    # otherwise identical runs.
    cpu = max(os.sched_getaffinity(0))
    try:
        done = subprocess.run([exe, *sys.argv[1:], "--shardd", shardd],
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
