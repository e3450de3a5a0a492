"""Run-to-run spread of the end-to-end metrics, and one traced run.

    python3 bench/spread.py --runs 10 [--out FILE]

Runs ``run.py`` on every workload of BENCHMARK.json at seeds 0 .. runs-1,
one run at a time and each for the file's ``run_seconds``, and prints
for every end-to-end metric its median, quartiles and the quartile
spread (Q3 - Q1) / median, with ``statistics.quantiles(n=4)``.  Then it
makes one traced run of the workload at seed 0.  ``--out`` also writes
all of it as JSON (the form of baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2][len("env "):])
    return dict(json.loads(lines[-1]), env=env)


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seconds = CONTRACT["run_seconds"]
    report = {}
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        runs = []
        for seed in range(args.runs):
            r = run_once(workload, seed, seconds)
            runs.append(r)
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            metrics[name] = dict(spread([r["metrics"][name]["value"] for r in runs]),
                                 unit=m["unit"])
            s = metrics[name]
            print(f"  {workload} {name}: median {s['median']:.4g} {s['unit']} "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}",
                  flush=True)
        traced = run_once(workload, 0, seconds, trace=1)
        overhead = traced["metrics"]["trace.overhead_frac"]["value"]
        print(f"  {workload} traced seed 0: "
              f"correct={traced['correct']} overhead {overhead:.3f}", flush=True)
        report[workload] = {
            "runs": len(runs),
            "seeds": [0, args.runs - 1],
            "seconds": seconds,
            "all_correct": all(r["correct"] for r in runs),
            "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "env": [r["env"] for r in runs],
            "per_layer": {"seed": 0,
                          "correct": traced["correct"],
                          "metrics": traced["metrics"],
                          "env": traced["env"]},
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
