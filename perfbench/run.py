#!/usr/bin/env python3
"""Repository benchmark: builds the library and the workload driver from
source, runs one workload and prints its result.

    python3 perfbench/run.py --workload <rpc_mix|adapt_churn|replica_brownout> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lands in $CARGO_TARGET_DIR
(default .bench_build) under the root; later runs rebuild only what changed.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". Any build or run failure
exits non-zero without printing a result. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rpc_mix", "adapt_churn", "replica_brownout")
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step with its output kept off stdout; returns success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        print(f"perfbench: failed: {' '.join(cmd)}", file=sys.stderr)
        return False
    return True


def build(out: Path) -> bool:
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", str(out), "-j", jobs], BUILD_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    out = build_dir()
    if not build(out):
        return 1

    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench: workload printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
