"""One benchmark process: set-up, then a timed or a traced run.

Started by run.py with smoothloc's `src` on PYTHONPATH, never run by
hand.  Modes:

  import  import smoothloc and report how long that took
  setup   import, parse, one warm-up `smoothloc bench` pass; then exit
  run     set-up, then `smoothloc bench` batches through the CLI entry
          point until --seconds have passed, then the correctness checks
  trace   a cold probe, then per batch the harness's run and the same
          trials again from traced.py, with tracing off and on

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _import_smoothloc():
    t0 = time.perf_counter()
    import smoothloc  # noqa: F401
    import smoothloc.cli  # noqa: F401
    return time.perf_counter() - t0


class Batches:
    """Config and CSV files of one run, under the run's work directory."""

    def __init__(self, w, seed, workdir):
        self.w, self.seed, self.workdir = w, seed, workdir

    def config(self, batch: int) -> str:
        path = os.path.join(self.workdir, f"batch{batch}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(self.w, self.seed, batch))
        return path

    def out(self, batch: int, tag: str = "") -> str:
        return os.path.join(self.workdir, f"batch{batch}{tag}.csv")

    def bench(self, batch: int, threads=None, tag: str = "") -> int:
        """`smoothloc bench` on the batch's config, written beforehand."""
        from smoothloc import cli

        argv = ["bench", self.w.experiment, "--config",
                os.path.join(self.workdir, f"batch{batch}.cfg"),
                "--out", self.out(batch, tag)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return cli.main(argv)

    def read(self, batch: int, tag: str = "") -> str:
        with open(self.out(batch, tag), encoding="utf-8") as fh:
            return fh.read()


def setup(b: Batches) -> None:
    b.config(-1)
    if b.bench(-1) != 0:
        raise SystemExit("the set-up warm-up pass failed")


# -- run mode ------------------------------------------------------------


def run(b: Batches, seconds: float):
    setup(b)
    setup_done = time.time()
    times, ok_batches, failed_units = [], [], 0
    t_loop = time.perf_counter()
    batch = 0
    while batch == 0 or time.perf_counter() - t_loop < seconds:
        b.config(batch)
        t0 = time.perf_counter()
        rc = b.bench(batch)
        times.append(time.perf_counter() - t0)
        if rc == 0:
            ok_batches.append(batch)
        else:
            failed_units += b.w.units_per_batch
        batch += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tables = [b.read(i) for i in ok_batches]
    import checks  # after the timed part: it loads scipy's quad and stats

    attempted, failed, problems = checks.check_tables(b.w, tables)
    problems += checks.check_oracles(b.w)
    problems += check_threads(b)
    return {"setup_done": setup_done, "batch_s": times, "peak_rss_mb": peak_mb,
            "attempted": attempted + failed_units,
            "failed": failed + failed_units, "problems": problems}


def check_threads(b: Batches):
    """The CSV bytes of a reduced copy are identical at 1 and 2 threads."""
    b.config(-2)
    outs = []
    for threads in (1, 2):
        if b.bench(-2, threads=threads, tag=f"t{threads}") != 0:
            return [f"reduced copy failed at {threads} threads"]
        with open(b.out(-2, f"t{threads}"), "rb") as fh:
            outs.append(fh.read())
    return [] if outs[0] == outs[1] else [
        "reduced copy: CSV bytes differ between 1 and 2 threads"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("import", "setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    import_s = _import_smoothloc()
    w = workloads.get(args.workload, tiny=args.tiny)
    b = Batches(w, args.seed, args.workdir)
    if args.mode == "import":
        import numpy
        import scipy

        out = {"import_s": import_s, "versions": {
            "numpy": numpy.__version__, "scipy": scipy.__version__}}
    elif args.mode == "setup":
        setup(b)
        out = {"setup_done": time.time()}
    elif args.mode == "run":
        out = run(b, args.seconds)
    else:
        import traced

        tr, out = traced.trace(b, args.seconds, import_s)
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
