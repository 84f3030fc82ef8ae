#!/usr/bin/env python3
"""fvdf benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an fvdf checkout. Builds the benchmark driver
(perfbench/CMakeLists.txt, which compiles the fvdf libraries from src/)
into .bench_build/perfbench on first use, runs one workload for S seconds,
and prints the driver's report followed by one JSON result line. The run
also records the host's CPU steal share over the run (from /proc/stat) and
its hardware thread count, prints them and stores them with the metrics in
.bench_build/perfbench/runs/.

Exits non-zero without a result line when the fvdf sources are missing,
the build fails, or the driver fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fvdf_perfbench"
BUILD_TIMEOUT_S = 700  # plus RUN_TIMEOUT_S stays under 900 s for a first run
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "app" / "scenario.cpp").is_file():
        log(f"run.py: no fvdf sources under {ROOT / 'src'}; run from an fvdf checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"run.py: build step {cmd[:2]} failed: {err}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step {' '.join(cmd[:2])} exited {done.returncode}")
            return False
    return BINARY.is_file()


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:9]]  # user..steal (guest is in user)
    return values[7], sum(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2

    out_dir = BUILD / "out"
    before = cpu_times()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: driver overran {RUN_TIMEOUT_S} s and was stopped")
        return 1
    after = cpu_times()
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log(f"run.py: driver exited {done.returncode} without a result")
        return done.returncode or 1
    result = json.loads(lines[-1])

    steal_share = None
    if before and after and after[1] > before[1]:
        steal_share = (after[0] - before[0]) / (after[1] - before[1])
    hw_threads = os.cpu_count() or 0
    if args.trace:
        result["metrics"]["host.steal_share"] = {
            "value": steal_share if steal_share is not None else 0.0, "unit": "1"}
        result["metrics"]["host.hw_threads"] = {"value": hw_threads, "unit": "count"}

    for line in lines[:-1]:
        print(line)
    failed_share = result["failed"] / max(1, result["attempted"])
    print(f"  host: steal_share {steal_share if steal_share is not None else 'n/a'}, "
          f"hardware_threads {hw_threads}")
    print(f"  failed_share {failed_share} ({result['failed']} of "
          f"{result['attempted']} requests)")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']!r:>24} {metric['unit']}")

    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  steal_share=steal_share, hardware_threads=hw_threads,
                  failed_share=failed_share, finished_unix=time.time())
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
