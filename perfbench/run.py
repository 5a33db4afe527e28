#!/usr/bin/env python3
"""Builds `specan` and the benchmark binary from source, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`).  Cargo's output
goes to standard error; the benchmark's report goes to standard output, and its
last line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  A failed build exits with code 2 and prints no result.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("ete_panel", "leak_scan", "warm_serve", "edit_serve")

# A run measures for --seconds, then checks its outputs; anything slower than
# this is a hang, and the whole process group is stopped.
RUN_TIMEOUT_S = 170


def build(env):
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "specan"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
    )
    for command in builds:
        try:
            done = subprocess.run(command, env=env, stdout=sys.stderr, check=False)
        except OSError as err:
            print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 2

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--specan",
        os.path.join(release, "specan"),
    ]
    # One core for the benchmark and the server it spawns.  On a 2-vCPU
    # host, a thread that moves between cores, or a closed loop whose client
    # and server wake each other across cores, adds the cores' differences
    # and the cross-core wake-up to what is measured; and the calibration
    # kernel (src/calib.rs) then samples the core the work runs on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as err:
        print(f"perfbench: running unpinned: {err}", file=sys.stderr)
    # Its own process group, so a hung run and the server it spawned stop
    # together.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
