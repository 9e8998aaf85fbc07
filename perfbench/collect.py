"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --runs 10 [--workload NAME ...] [--trace]
                                 [--first-seed 1] [--out perfbench/BENCH_x.json]

Runs perfbench/run.py once per seed and workload, one process at a time,
from the root of the checkout.  For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
--trace it adds one traced run per workload on the first seed.  --out
writes everything, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model, "platform": platform.platform()}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values}
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   help="repeat to choose several; default all")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()

    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, 0) for seed in report["seeds"]]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": summarise(runs)}
        for metric, s in entry["end_to_end"].items():
            print(f"{name:20s} {metric:12s} median {s['median']:.5g} {s['unit']:3s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']}, bound/3 {s['bound'] / 3:.3f})", flush=True)
        print(f"{name:20s} ops {entry['attempted']} failed {sum(entry['failed'])}",
              flush=True)
        if args.trace:
            traced = run_once(name, args.first_seed, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
