#!/usr/bin/env python3
"""End-to-end training benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build, and runs the statistics unit test; later runs only check the
build is current. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. With --trace 1 the recorded spans are also
written to <build dir>/spans/<workload>-seed<n>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs `cmd` with its output on stderr; True when it exits with 0."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no gnndm sources at", ROOT / "src")
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", str(build_dir), "-j", jobs]):
        return False
    stamp = build_dir / "stats_test.passed"
    test = build_dir / "perfbench_stats_test"
    if not stamp.is_file() or stamp.stat().st_mtime < test.stat().st_mtime:
        if not run_quiet([str(test)]):
            log("perfbench: statistics unit test failed")
            return False
        stamp.touch()
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not build(build_dir):
        return 1

    cmd = [str(build_dir / "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace == 1:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
