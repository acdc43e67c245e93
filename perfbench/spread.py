"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload hbt --seeds 1-10 [--trace 0] [--json FILE]

Runs ``run.py`` once per seed, one process at a time, and prints per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median.  ``--json`` also writes the
raw results there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, run_seconds


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items() if args.trace == 0),
              flush=True)
        runs.append({"seed": seed, **result})
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            print(f"{name}: median {s['median']:.6g}, quartiles {s['q1']:.6g} .. "
                  f"{s['q3']:.6g}, spread {100 * s['spread']:.2f}%")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
