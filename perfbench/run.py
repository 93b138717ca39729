#!/usr/bin/env python3
"""Build gredbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload uniform|hotspot|churn --seed N \
        --seconds S --trace 0|1 [--smoke] [--corrupt-expectation]

Run from the root of a checkout. The first run configures and builds
the GRED library and the driver (Release) into .bench_build/; later runs
only re-check the build. The driver's stdout is passed through: a
'# stamp' line with the run's provenance, then one JSON result line,
always last. The exit code is the driver's (non-zero on a wrong answer
or a failed invariant), or 2 when the sources cannot be built.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "gredbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this names the code that was measured)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GRED sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gredbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["uniform", "hotspot", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny substrate for tests; not a measurement")
    ap.add_argument("--corrupt-expectation", action="store_true",
                    help="mutation test: the oracle must fail the run")
    a = ap.parse_args()

    build()
    cmd = [str(BUILD / "gredbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    print(f'# source {{"commit": "{git_commit()}", '
          f'"source_sha256": "{source_digest()}"}}', flush=True)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"gredbench exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
