"""Repeat the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/repeat.py --workload queries --seeds 1-10 [--trace 1] [--json out.json]

Each seed is one `run.py` process, run one after another. For every
metric it prints the median and the quartiles (statistics.quantiles,
n=4) of the per-seed values, and for end-to-end metrics the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range such as '1-10'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, units, runs = {}, {}, []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, **{k: result[k] for k in ("correct", "attempted", "failed")}})
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    host = {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count()}
    summary = {"workload": args.workload, "seconds": seconds, "trace": args.trace, "host": host,
               "runs": runs, "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = f"  bound {bounds[name]:.2f} (third {bounds[name] / 3:.3f})" if name in bounds else ""
        print(f"  {name:44s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{bound}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
