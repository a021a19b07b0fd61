"""Repeat benchmark runs and print each metric's median and quartiles.

  python3 perfbench/steady.py --workload NAME|all --runs 10 [--seed0 1]

Runs perfbench/run.py --runs times per workload, with seeds seed0,
seed0+1, ..., and the run length from BENCHMARK.json.  For every metric
it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) as a share of the median and, for end-to-end metrics,
the bound from BENCHMARK.json; spreads above a third of the bound are
flagged.  It also prints the share of failed operations of each run.
The bounds in BENCHMARK.json were set from this output.  Raw results go
to .perfbench/steady-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res, time.perf_counter() - t0


def summarize(name, results, walls, bounds):
    print(f"== {name}: {len(results)} runs, median wall time per run "
          f"{statistics.median(walls):.0f} s")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"   failed share per run: {shares}   correct: "
          f"{all(r['correct'] for r in results)}")
    for key in results[0]["metrics"]:
        vals = [r["metrics"][key]["value"] for r in results]
        unit = results[0]["metrics"][key]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"   {key:36s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} "
                f"q3 {q3:12.6g} spread {100 * spread:6.2f}%")
        if key in bounds:
            flag = "  TOO WIDE" if spread > bounds[key] / 3 else ""
            line += f"  bound {100 * bounds[key]:.0f}%{flag}"
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    os.makedirs(".perfbench", exist_ok=True)
    for name in names:
        runs = [run_once(name, args.seed0 + i, spec["run_seconds"], args.trace)
                for i in range(args.runs)]
        results, walls = [r for r, _ in runs], [w for _, w in runs]
        with open(os.path.join(".perfbench", f"steady-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        summarize(name, results, walls, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
