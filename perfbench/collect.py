#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise them.

    python3 perfbench/collect.py --workloads desk --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --append "seed commit abc1234"

Runs ``run.py`` once per workload and seed, one process at a time, and
prints for every end-to-end metric the median, the quartiles and the spread
(quartile distance over the median) of the runs, as
``statistics.quantiles(values, n=4)`` gives them. ``--trace-seed`` adds one
traced run per workload. ``--append LABEL`` adds the summary, with the
machine and the per-layer numbers, as a point to ``trajectory.json``; a
change that claims a gain compares its point with the one before it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk", "paper-train", "paper-decode")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=False)
    wall = perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
    return {"last": json.loads(lines[-1]), "report": report, "wall_s": wall}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--append", metavar="LABEL")
    args = p.parse_args()
    point = {"label": args.append, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seed_list(args.seeds)]
        point["machine"] = runs[-1]["report"]["machine"]
        entry = {
            "seeds": seed_list(args.seeds),
            "correct_runs": sum(r["last"]["correct"] for r in runs),
            "ops_failed": sum(r["last"]["failed"] for r in runs),
            "wall_s": spread([r["wall_s"] for r in runs]),
            "end_to_end": {},
            "table": {},
        }
        print(f"{workload}: {entry['correct_runs']}/{len(runs)} runs correct, "
              f"{entry['ops_failed']} failed ops, wall per run {entry['wall_s']['median']:.1f} s")
        for name in runs[0]["last"]["metrics"]:
            s = spread([r["last"]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s | {"unit": runs[0]["last"]["metrics"][name]["unit"]}
            print(f"  {name:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {100 * s['spread']:.2f}%")
        for name, row in runs[0]["report"]["table"].items():
            entry["table"][name] = {
                "median": statistics.median(r["report"]["table"][name]["value"] for r in runs),
                "unit": row["unit"],
            }
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": traced["last"]["correct"],
                                  "metrics": traced["last"]["metrics"]}
        point["workloads"][workload] = entry
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
