"""Self-test of the benchmark.

  python3 perfbench/selftest.py          (from the root of a checkout)

1. Checks the oracles against the Gaussian case, where everything is
   exact: the Gaussian smoothed by N(0, r^2) is N(0, sigma^2 + r^2).
   The brute-force Gauss-Legendre oracle, the normal-Laplace closed form
   (against that oracle), the chi quantile and the subgamma formula are
   checked, and so is the package's own smoothed Gaussian.
2. Runs every workload at a tiny size, untraced and traced, and checks
   that the last line carries every metric BENCHMARK.json names, with
   its unit, and that the run's checks passed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when everything passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def oracle_checks(root):
    x = np.linspace(-6.0, 6.0, 301)
    for sigma, r in ((1.0, 0.137), (2.0, 0.5)):
        s2 = sigma * sigma + r * r
        g = oracles.GLConvolution(lambda u: oracles.gaussian_pdf(u, sigma),
                                  (), r, reach=12.0 * sigma + 12.0 * r)
        err = float(np.max(np.abs(g.score(x) + x / s2)))
        expect(err < 1e-12, f"GL oracle, gaussian sigma={sigma} r={r}: "
                            f"score error {err:.1e}")
        rel = abs(g.fisher(-12 * sigma, 12 * sigma) * s2 - 1.0)
        expect(rel < 1e-12, f"GL oracle, gaussian sigma={sigma} r={r}: "
                            f"Fisher relative error {rel:.1e}")
    flat = oracles.sawtooth_pdf(x, 0.05, 0.0)
    expect(np.array_equal(flat, oracles.gaussian_pdf(x, 1.0)),
           "sawtooth pdf with slope 0 is the standard normal pdf")
    r = 0.25
    g = oracles.GLConvolution(lambda u: oracles.laplace_pdf(u, 1.0), (0.0,),
                              r, reach=45.0)
    err = float(np.max(np.abs(g.score(x)
                              - oracles.normal_laplace_score(x, 1.0, r))))
    expect(err < 1e-12, f"normal-Laplace score against the GL oracle: "
                        f"{err:.1e}")
    rel = abs(oracles.normal_laplace_fisher(1.0, r) / g.fisher(-30, 30) - 1)
    expect(rel < 1e-10, f"normal-Laplace Fisher against the GL oracle: "
                        f"{rel:.1e}")
    q, _ = oracles.chi_quantile(1, 0.1, 1000)
    expect(abs(q - special.ndtri(0.95)) < 1e-9,
           "chi quantile at d=1 is the |N(0,1)| quantile")
    expect(oracles.unit_subgamma_bound("gaussian", 16, 0.1)
           == 4.0 + 4.0 * math.sqrt(math.log(20.0)),
           "subgamma bound of N(0, I_16) at delta=0.1")

    sys.path.insert(0, os.path.join(root, "src"))
    import smoothloc as sl

    r = 0.3
    m = sl.SmoothedModel1d(sl.Gaussian(0.0, 1.0), r)
    g = oracles.GLConvolution(lambda u: oracles.gaussian_pdf(u, 1.0), (), r,
                              reach=16.0)
    err = float(np.max(np.abs(sl.smoothed_score_1d(m, x) - g.score(x))))
    expect(err < 1e-9, f"package's smoothed gaussian score against the GL "
                       f"oracle: {err:.1e}")
    rel = abs(sl.fisher_1d(m) / g.fisher(-14, 14) - 1.0)
    expect(rel < 1e-6, f"package's smoothed gaussian Fisher against the GL "
                       f"oracle: {rel:.1e}")


def run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def tiny_runs(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            proc = run_bench(root, "--workload", name, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny")
            label = f"{name} --trace {trace} (tiny)"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: "
                              f"{proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(got == want, f"{label}: every metric with its unit")
            expect(all(isinstance(v["value"], float)
                       and math.isfinite(v["value"])
                       for v in res["metrics"].values()),
                   f"{label}: finite values")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{label}: end-to-end metrics are positive")
            expect(res["correct"] and res["attempted"] >= 1
                   and res["failed"] == 0,
                   f"{label}: correct, {res['attempted']} attempted, "
                   f"{res['failed']} failed")


def without_source(root):
    bare = os.path.join(root, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "coverage-1d", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    root = os.getcwd()
    oracle_checks(root)
    without_source(root)
    tiny_runs(root)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
