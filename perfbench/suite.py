"""Run the listed workloads over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--seconds 30]
                               [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints each run's metric table (every timing with its unit and sample
count, fail_ratio and the verdict), then for every metric the median of
the runs, the quartiles and the spread (interquartile distance as a share
of the median). ``--out`` writes the summary and every run's report
lines and result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/suite.py")
    p.add_argument("--workloads", default=",".join(workloads.LISTED))
    p.add_argument("--seeds", default="1-10", type=_seeds)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    runs = []
    for name in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            report = lines[:-1]
            runs.append({"workload": name, "seed": seed, "result": result, "report": report})
            metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                               if args.trace == 0)
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {metrics}")
            for ln in report:
                if ln.startswith("# function"):
                    break
                if not ln.startswith(("# call ", "# env ")):
                    print("   ", ln)
            sys.stdout.flush()

    summary = {}
    for name in args.workloads.split(","):
        mine = [r["result"] for r in runs if r["workload"] == name]
        summary[name] = {
            metric: summarise([r["metrics"][metric]["value"] for r in mine])
            for metric in mine[0]["metrics"]
        }
        summary[name]["fail_ratio"] = (
            sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine)
        )
        if args.trace == 0:
            print(f"\n{name}: {len(mine)} runs")
            for metric, s in summary[name].items():
                if metric != "fail_ratio":
                    print(f"  {metric:<14} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                          f"q3 {s['q3']:.4f}  spread {s['spread']:.3f}")
            print(f"  fail_ratio     {summary[name]['fail_ratio']:.4f}")

    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
