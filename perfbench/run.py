"""smoothloc benchmark: four `smoothloc bench` workloads.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is coverage-1d, sawtooth-1e6, coverage-hd or concentration; `all`
runs the four in turn.  With --trace 0 the run reports the end-to-end
metrics (set-up time, throughput, peak memory) measured with tracing
off; with --trace 1 it reports the per-layer metrics of a traced run.
Both check the program's outputs.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from ./src of the checkout; there is nothing to
build.  Work files go to ./.perfbench/ and the spans of a traced run to
./.perfbench/spans-NAME-seedN.jsonl.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Set-ups timed for setup_s, in fresh processes: the timed run's own and
# SETUP_RUNS - 1 more.  The median is reported.
SETUP_RUNS = 3
# Fresh processes timed for import.smoothloc_s besides the traced one;
# the median of all is reported.
IMPORT_RUNS = 2
# All processes of one workload must end within this many seconds.
WORKLOAD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # at most the workload's own threads: no extra BLAS pool per process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root, mode, args, workdir, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, *extra]
    if args.tiny:
        cmd.append("--tiny")
    started = time.time()
    try:
        proc = subprocess.run(cmd, env=_child_env(root), cwd=root,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_done" in out:
        # set-up time: from starting the process to the end of its set-up
        out["setup_s"] = out["setup_done"] - started
    return out


def environment(root, versions):
    """nproc, python, numpy, scipy and git sha, for the `env:` line."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions}
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        info["git"] = sha.stdout.strip() if sha.returncode == 0 else "none"
    except OSError:
        info["git"] = "none"
    return info


def run_workload(root, args):
    """One workload in its own processes; returns the result object."""
    w = workloads.get(args.workload, tiny=args.tiny)
    workdir = os.path.join(root, ".perfbench", f"work-{w.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S

    def worker(mode, extra=()):
        return _worker(root, mode, args, workdir, deadline, extra)

    try:
        # the first import writes the bytecode caches; not counted
        versions = worker("import")["versions"]
        if args.trace:
            import_s = [worker("import")["import_s"]
                        for _ in range(IMPORT_RUNS)]
            spans = os.path.join(root, ".perfbench",
                                 f"spans-{w.name}-seed{args.seed}.jsonl")
            out = worker("trace", ("--spans", spans))
            metrics = out["metrics"]
            metrics["import.smoothloc_s"] = statistics.median(
                import_s + [metrics["import.smoothloc_s"]])
            self_s = out["self_s"]
        else:
            setups = [worker("setup")["setup_s"]
                      for _ in range(0 if args.tiny else SETUP_RUNS - 1)]
            out = worker("run")
            setups.append(out["setup_s"])
            rates = [w.units_per_batch / t for t in out["batch_s"]]
            trials_per_s = statistics.median(rates)
            metrics = {
                "setup_s": statistics.median(setups),
                "trials_per_s": trials_per_s,
                "vectors_per_s": trials_per_s * w.vectors_per_unit,
                "peak_rss_mb": out["peak_rss_mb"],
            }
            self_s = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": not out["problems"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics,
            "problems": out["problems"], "self_s": self_s,
            "env": environment(root, versions)}


def _units(root, trace):
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, res, units):
    print("env: " + json.dumps(res["env"]))
    print(f"== {name}: attempted={res['attempted']} failed={res['failed']} "
          f"correct={str(res['correct']).lower()}")
    for key, value in res["metrics"].items():
        print(f"   {key} = {value:.6g} {units.get(key, '')}")
    if res["self_s"]:
        layers = ", ".join(f"{k} {v:.3f}s" for k, v in
                           sorted(res["self_s"].items()))
        print(f"   self time by layer: {layers}")
    for p in res["problems"][:20]:
        print(f"   CHECK FAILED: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smoothloc",
                                       "__init__.py")):
        print("error: run from the root of a smoothloc checkout "
              "(no src/smoothloc here)", file=sys.stderr)
        return 2
    units = _units(root, args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(root, args)
            report(name, results[name], units)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": units[k]}
                   for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
