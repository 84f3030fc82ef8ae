#!/usr/bin/env python3
"""Steadiness report for the fvdf benchmark.

    python3 perfbench/steadiness.py [--workloads A,B] [--runs 10] [--first-seed 1]
                                    [--seconds S] [--against earlier.json]

Runs perfbench/run.py once per seed on each workload (untraced, one after
another), then prints, for every end-to-end metric in BENCHMARK.json, its
median over the runs and its spread -- the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median -- next to the metric's bound. A metric whose spread exceeds its
bound is reported NOISY with its workload; setup_s is exempt from the
spread test, as in the acceptance rule. With --against, the medians are
also compared with an earlier report: a median worse than the earlier one
by more than the bound is reported as DRIFT. The report is saved as JSON
under .bench_build/perfbench/steadiness/ for later --against use.

Also prints each run's CPU steal share so a noisy verdict can be read
against what the host was doing. Exit status: 0 when every check passes.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_build" / "perfbench" / "steadiness"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        return None, None, elapsed
    steal = None
    for line in lines:
        if line.strip().startswith("host: steal_share"):
            value = line.split("steal_share", 1)[1].split(",")[0].strip()
            steal = None if value == "n/a" else float(value)
    return json.loads(lines[-1]), steal, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else None
    report = {"runs": args.runs, "first_seed": args.first_seed,
              "seconds": args.seconds, "workloads": {}}
    problems = []
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        steals = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, steal, elapsed = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: run failed or incorrect")
                continue
            steals.append(steal)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: time_to_solution_s "
                  f"{result['metrics']['time_to_solution_s']['value']:.4f}, "
                  f"steal {steal}, run took {elapsed:.1f} s", flush=True)
        entry = {"steal_share": steals, "metrics": {}}
        print(f"\n{workload}: {len(steals)} run(s)")
        print(f"  {'metric':22s} {'median':>14s} {'spread':>8s} {'bound':>6s}  verdict")
        for name, spec in bounds.items():
            series = values[name]
            if len(series) < 2:
                continue
            share, med = spread(series)
            verdict = "ok"
            moved = ""
            if name != "setup_s" and share > spec["bound"]:
                verdict = "NOISY"
                problems.append(f"NOISY: {name} on {workload} "
                                f"(spread {share:.3f} > bound {spec['bound']})")
            elif share > spec["bound"] / 3:
                verdict = "ok (above a third of the bound)"
            if earlier:
                before = earlier["workloads"].get(workload, {}).get(
                    "metrics", {}).get(name)
                if before:
                    moved = f"  (median {med / before['median'] - 1:+.3f} vs before)"
                    worse = (med - before["median"]) / before["median"]
                    if spec["better"] == "higher":
                        worse = (before["median"] - med) / before["median"]
                    if worse > spec["bound"]:
                        verdict = "DRIFT"
                        problems.append(f"DRIFT: {name} on {workload} is "
                                        f"{worse:.3f} worse than before "
                                        f"(bound {spec['bound']})")
            entry["metrics"][name] = {"median": med, "spread": share,
                                      "bound": spec["bound"], "values": series}
            print(f"  {name:22s} {med:14.6g} {share:8.4f} {spec['bound']:6.3f}  "
                  f"{verdict}{moved}")
        report["workloads"][workload] = entry

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / time.strftime("steadiness-%Y%m%d-%H%M%S.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport saved to {path}")
    for line in problems:
        print(line)
    print("STEADY" if not problems else "NOT STEADY")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
