#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload lubm-join --seed 1 --seconds 10 --trace 0

Run from the repository root. Steps, each its own process:

1. configure + build perfbench/ (which compiles ../src) into
   $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
2. run the helpers' self-test;
3. `perfbench gen`: write the workload's LUBM input, outside the measured
   process so its peak RSS is the program's own;
4. `perfbench oracle` (lubm-join, lubm-bulk): reference answers from
   SortMergeBgpSolver over the same file.
   The input does not depend on --seed (see DatasetSpec in harness.hpp), so
   both files are kept under <build>/data and remade only when the harness
   binary is newer than they are;
5. `perfbench run`: set-up, timed HTTP load, checks and, with --trace 1,
   the traced run and in-process replay (spans under <build>/trace/).

The last line of stdout is the JSON result. A run whose answers fail their
checks prints its result ("correct": false) and exits non-zero; any other
failure exits non-zero without printing one.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170  # a run (after any build) must finish within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    """Runs one child to completion (killing and reaping it on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=max(1, timeout), text=True,
                              capture_output=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        r = run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"], 600)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail("configure failed")
    r = run_step(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench",
                  "perfbench_selftest"], 840)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        fail("build failed")


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    data_dir = target / "data"
    trace_dir = target / "trace"
    build(build_dir)

    start = time.monotonic()
    remaining = lambda: DEADLINE_S - (time.monotonic() - start)
    exe = build_dir / "perfbench"
    r = run_step([str(build_dir / "perfbench_selftest")], 30)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("self-test failed")

    data_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    data = data_dir / f"{args.workload}.nt"
    oracle = data_dir / f"{args.workload}.oracle"
    common = ["--workload", args.workload, "--data", str(data)]
    fresh = lambda f: f.exists() and f.stat().st_mtime >= exe.stat().st_mtime
    if not fresh(data):
        oracle.unlink(missing_ok=True)
        partial = data.with_suffix(".partial")
        r = run_step([str(exe), "gen", "--workload", args.workload, "--data", str(partial)],
                     remaining())
        if r.returncode != 0:
            partial.unlink(missing_ok=True)
            sys.stderr.write(r.stderr)
            fail("input generation failed")
        partial.replace(data)
    cmd = [str(exe), "run", *common, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    if args.workload != "live-mixed":
        if not fresh(oracle):
            partial = oracle.with_suffix(".partial")
            r = run_step([str(exe), "oracle", *common, "--oracle", str(partial)], remaining())
            if r.returncode != 0:
                partial.unlink(missing_ok=True)
                sys.stderr.write(r.stderr)
                fail("reference answers failed")
            partial.replace(oracle)
        cmd += ["--oracle", str(oracle)]
    r = run_step(cmd, remaining())

    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the harness printed no result line")
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(want):
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result.get('metrics', {})))}")
    print(lines[-1])
    sys.stdout.flush()
    if r.returncode != 0 or not result.get("correct"):
        fail(f"run failed its checks (exit {r.returncode})")


if __name__ == "__main__":
    main()
