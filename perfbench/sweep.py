#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise its steadiness.

    python3 perfbench/sweep.py --out perfbench/results/baseline.json

For every workload, runs `perfbench/run.py` once per seed (untraced) on
two sets of ten seeds and reports, per end-to-end metric and set, the
median and quartiles over the seeds and the spread (quartile distance
over the median), and how far the second set's median is from the
first, in the direction the metric gets worse. One traced run per
workload adds the per-layer numbers. Runs are made one after another;
nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

RUN = Path(__file__).resolve().parent / "run.py"
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))
TRACE_SEED = 1


def run_once(workload: str, seed: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace), "--report", str(report)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        full = json.loads(report.read_text())
    full["correct"] = result["correct"]
    return full


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "p25": q1,
        "p75": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def run_set(workload: str, seeds: list[int]) -> tuple[dict, dict]:
    reports = []
    for seed in seeds:
        reports.append(run_once(workload, seed, 0))
        m = reports[-1]["metrics"]
        print(f"  {workload} seed {seed}: " + "  ".join(f"{k} {v:.4f}" for k, v in m.items()),
              flush=True)
    return {
        "seeds": seeds,
        "all_correct": all(r["correct"] for r in reports),
        "commands_per_run": [r["detail"]["commands"] for r in reports],
        "metrics": {
            name: summarise([r["metrics"][name] for r in reports]) for name in spec.END_TO_END
        },
    }, reports[0]["machine"]


def worsening(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the summary here (JSON)")
    args = p.parse_args(argv)

    summary = {"run_seconds": spec.RUN_SECONDS, "workloads": {}}
    steady = True
    for workload in spec.WORKLOAD_NAMES:
        sets = []
        for seeds in SEED_SETS:
            result, machine = run_set(workload, seeds)
            sets.append(result)
            summary["machine"] = machine
        entry = {"sets": sets, "second_vs_first_worse_by": {}}
        for name, (unit, better, bound) in spec.END_TO_END.items():
            first, second = (s["metrics"][name] for s in sets)
            worse = worsening(first["median"], second["median"], better)
            entry["second_vs_first_worse_by"][name] = worse
            ok = worse <= bound and max(first["spread"], second["spread"]) <= bound / 3
            steady &= ok and all(s["all_correct"] for s in sets)
            print(f"{workload:16s} {name:14s} median {first['median']:.4f} {unit:5s} "
                  f"spreads {first['spread']:.4f} {second['spread']:.4f} (bound {bound})  "
                  f"second set worse by {worse:+.4f}" + ("" if ok else "  <-- not steady"),
                  flush=True)
        traced = run_once(workload, TRACE_SEED, 1)
        entry["trace"] = {
            "seed": TRACE_SEED,
            "correct": traced["correct"],
            "metrics": traced["metrics"],
            "counts_repeat": traced["detail"]["counts_repeat"],
            "untraced_wall_s": traced["detail"]["untraced_wall_s"],
            "traced_wall_s": traced["detail"]["traced_wall_s"],
        }
        steady &= traced["correct"]
        print(f"{workload:16s} traced: correct {traced['correct']}, "
              f"overhead {traced['metrics']['trace.overhead_s']:.3f} s", flush=True)
        summary["workloads"][workload] = entry
    summary["steady"] = steady
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
