#!/usr/bin/env python3
"""Build the FLeet benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload soak|bulk|train|all --seed N \
        --seconds S --trace 0|1

`--workload all` runs soak, bulk and train in turn, each as its own
process, and exits with the first non-zero exit code among them.

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root) and
then run from the repository root. Build output goes to standard error;
the benchmark's own output, ending with the one-line JSON result, goes to
standard output. The exit code is the benchmark's, or the build's when the
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("soak", "bulk", "train")


def revision():
    """The git revision of the checkout, or 'unknown' outside a git tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return "unknown"
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(ROOT, target, "release", "fleet-perfbench")
    env["PERFBENCH_REV"] = revision()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is None or at >= len(args) or args[at] != "all":
        return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode
    codes = []
    for workload in WORKLOADS:
        sys.stdout.flush()
        named = args[:at] + [workload] + args[at + 1:]
        codes.append(subprocess.run([binary] + named, cwd=ROOT, env=env).returncode)
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
