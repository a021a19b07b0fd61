"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test asserts its numerical criterion and its runtime budget; the
terminal summary (see conftest) prints one pass/fail line per criterion
with the measured numbers.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from smoothloc import (
    Gaussian,
    GaussianMixture,
    GaussianSawtooth,
    Laplace,
    RngSeed,
    SmoothedModel1d,
    SmoothedModelHd,
    SubgammaSpec,
    check_score_inversion_bias,
    empirical_norm_quantile,
    fisher_1d,
    fisher_hd,
    gaussian_generator,
    local_mle_1d,
    local_mle_hd,
    norm_bound,
    parse_model,
    run_concentration,
    run_coverage,
    run_coverage_hd,
    run_fisher_sweep,
    run_sawtooth_phase,
    smoothed_pdf_1d,
    smoothed_score_1d,
)
from smoothloc.smoothing import score_moment_check

R_GRID = (0.1, 0.5, 1.0, 2.0)


def coverage_rates(table):
    """(failures + errors) / trials from a coverage table's body rows."""
    body = table.rows[:-1]
    ok = [r for r in body if r[-1] == ""]
    errors = len(body) - len(ok)
    failures = sum(1 for r in ok if r[-2] == 0)
    return failures, errors, len(body)


def test_criterion_01_gaussian_closed_forms(detail):
    t0 = time.monotonic()
    base = Gaussian(0, 1)
    worst_pdf = worst_score = worst_fisher = 0.0
    for r in R_GRID:
        m = SmoothedModel1d(base, r)
        s2 = 1.0 + r * r
        xs = np.linspace(-6 * math.sqrt(s2), 6 * math.sqrt(s2), 201)
        pdf = np.exp(-0.5 * xs * xs / s2) / math.sqrt(2 * math.pi * s2)
        worst_pdf = max(worst_pdf, float(np.max(np.abs(
            smoothed_pdf_1d(m, xs) - pdf))))
        worst_score = max(worst_score, float(np.max(np.abs(
            smoothed_score_1d(m, xs) + xs / s2))))
        worst_fisher = max(worst_fisher, abs(fisher_1d(m) - 1.0 / s2))
    elapsed = time.monotonic() - t0
    detail(f"max err pdf={worst_pdf:.1e} score={worst_score:.1e} "
           f"fisher={worst_fisher:.1e}, {elapsed:.2f}s")
    assert worst_pdf < 1e-6
    assert worst_score < 1e-6
    assert worst_fisher < 1e-6
    assert elapsed < 1.0


def test_criterion_02_fisher_sandwich(detail):
    t0 = time.monotonic()
    cases = [
        (Laplace(0, 1), 2.0),
        (GaussianMixture((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5)), 3.54),
        (GaussianMixture((0.5, 0.5), (-2.0, 2.0), (1.0, 1.0)), 5.0),
        (GaussianSawtooth(0.05, 4.0), 1.0 - 0.0025**2),
    ]
    margin = math.inf
    for base, var in cases:
        for r in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
            i_r = fisher_1d(SmoothedModel1d(base, r))
            lo, hi = 1.0 / (var + r * r), 1.0 / (r * r)
            assert lo - 1e-6 <= i_r <= hi + 1e-6
            margin = min(margin, i_r - lo, hi - i_r)
    elapsed = time.monotonic() - t0
    detail(f"4 families x 6 radii, min sandwich margin={margin:.3e}, "
           f"{elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_03_gaussian_collapse(detail):
    t0 = time.monotonic()
    base_1d = Gaussian(0, 1)
    base_hd = parse_model("product(gaussian(0,1)^4)")
    worst = 0.0
    for s in range(100):
        gen = RngSeed(10_000 + s).generator()
        lam1 = float(gen.uniform(-1.0, 1.0))
        x = gen.uniform(-2.0, 2.0, size=200)
        lam_hat = local_mle_1d(base_1d, 0.7, x, lam1, RngSeed(s))
        mirror = RngSeed(s).generator().standard_normal(x.shape)
        want = float(np.mean(x + 0.7 * mirror))
        worst = max(worst, abs(lam_hat - want) / max(1.0, abs(want)))

        xh = gen.uniform(-2.0, 2.0, size=(100, 4))
        lam1h = gen.uniform(-1.0, 1.0, size=4)
        hat = local_mle_hd(base_hd, 1.0, xh, lam1h, RngSeed(2**32 + s))
        mirror_h = RngSeed(2**32 + s).generator().standard_normal(xh.shape)
        want_h = (xh + 1.0 * mirror_h).mean(axis=0)
        worst = max(worst, float(np.max(
            np.abs(hat - want_h) / np.maximum(1.0, np.abs(want_h)))))
    elapsed = time.monotonic() - t0
    detail(f"100 seeds, worst relative deviation={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_04_coverage_1d(detail):
    t0 = time.monotonic()
    n, trials = 10_000, 2000
    table = run_coverage("laplace(0,1)", n=n, trials=trials, delta=0.1,
                         seed=2026, threads=4)
    body = table.rows[:-1]
    ok = [r for r in body if r[7] == ""]
    errors = len(body) - len(ok)
    base = Laplace(0, 1)
    r_star = 0.5 * (math.log(20.0) / n) ** 0.125 * base.iqr()
    radius = 1.3 * math.sqrt(
        2.0 * math.log(20.0) / (n * fisher_1d(SmoothedModel1d(base, r_star))))
    rate = (sum(1 for r in ok if r[3] > radius) + errors) / trials
    med_est = float(np.median([r[3] for r in ok]))
    med_base = float(np.median([r[4] for r in ok]))
    elapsed = time.monotonic() - t0
    detail(f"fail rate={rate:.4f} (cap 0.12), median gain="
           f"{1 - med_est / med_base:.1%} (need 5%), {elapsed:.1f}s")
    assert len(body) == trials
    assert rate <= 0.12
    assert med_est <= 0.95 * med_base
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_05_sawtooth_phase(detail):
    t0 = time.monotonic()
    sweep = run_fisher_sweep("sawtooth(0.05,4)", (0.01, 0.2))
    i_fine, i_coarse = sweep.rows[0][1], sweep.rows[1][1]
    phase = run_sawtooth_phase(0.05, 4.0, (100, 1_000_000), trials=600,
                               delta=0.1, seed=2026, threads=8)
    assert [r[0] for r in phase.rows] == [100, 1_000_000]
    assert all(r[8] == 0 for r in phase.rows)  # no errored trials
    ratio = phase.rows[1][1] / phase.rows[0][1]
    elapsed = time.monotonic() - t0
    detail(f"I_0.01/I_0.2={i_fine / i_coarse:.1f} (need 2), "
           f"sqrt(n)-normalized error ratio={ratio:.3f} (cap 0.7), "
           f"{elapsed:.0f}s")
    assert i_fine >= 2.0 * i_coarse
    assert ratio <= 0.7
    assert elapsed < 1200.0


@pytest.mark.slow
def test_sawtooth_control_flat_normalized_error():
    # control for the phase scan: no teeth, so the normalized error must
    # stay flat instead of dropping (on the schedule-free n_local column)
    phase = run_sawtooth_phase(0.05, 0.0, (100, 1_000_000), trials=600,
                               delta=0.1, seed=2026, threads=8)
    ratio = phase.rows[1][5] / phase.rows[0][5]
    assert 0.8 <= ratio <= 1.25


def test_criterion_06_coverage_hd(detail):
    t0 = time.monotonic()
    rates = {}
    for spec, r in (("product(gaussian(0,1)^8)", 1.0),
                    ("product(laplace(0,1)^4)", 0.5)):
        table = run_coverage_hd(spec, n=500, trials=1000, delta=0.1, r=r,
                                seed=2026, eta=0.25, threads=8)
        failures, errors, trials = coverage_rates(table)
        assert trials == 1000
        rates[spec] = (failures + errors) / trials
    elapsed = time.monotonic() - t0
    detail("fail rates " + ", ".join(
        f"{v:.3f}" for v in rates.values()) + f" (cap 0.13), {elapsed:.0f}s")
    for rate in rates.values():
        assert rate <= 0.13
    assert elapsed < 600.0


def test_criterion_07_norm_concentration(detail):
    t0 = time.monotonic()
    grid = run_concentration(("gaussian", "exponential"), (4, 16, 64),
                             (0.1, 0.01), trials=100_000, seed=2026,
                             threads=8)
    assert len(grid.rows) == 12
    worst = max(r[4] / r[5] for r in grid.rows)
    assert all(r[4] <= r[5] for r in grid.rows)

    root = RngSeed(2026)
    q64 = empirical_norm_quantile(gaussian_generator(np.eye(64)), 100_000,
                                  0.05, root.derive(50))
    b64 = norm_bound(SubgammaSpec(np.eye(64), 0.0), 0.05)
    q16 = empirical_norm_quantile(gaussian_generator(np.eye(16)), 100_000,
                                  0.05, root.derive(51))
    oracle = math.sqrt(stats.chi2.ppf(0.95, df=16))  # 5.128
    elapsed = time.monotonic() - t0
    detail(f"12 cells max q/bound={worst:.3f}, d=64 bound/q={b64 / q64:.2f} "
           f"(cap 3), chi-16 q={q16:.4f} vs {oracle:.4f}, {elapsed:.0f}s")
    assert b64 / q64 <= 3.0
    assert abs(q16 - 5.128) <= 0.03
    assert abs(q16 - oracle) <= 0.03
    assert elapsed < 300.0


def test_criterion_08_score_inversion_bias(detail):
    t0 = time.monotonic()
    gauss = SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), 1.0)
    gbias = check_score_inversion_bias(gauss, np.array([0.2, 0.0])).bias_norm
    assert gbias <= 1e-8
    lap = SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 1.0)
    scales = (0.05, 0.1, 0.2)
    biases = [check_score_inversion_bias(lap, np.array([s, 0.0])).bias_norm
              for s in scales]
    slope = float(np.polyfit(np.log(scales), np.log(biases), 1)[0])
    elapsed = time.monotonic() - t0
    detail(f"log-log slope={slope:.4f} (band [1.6, 2.6]), "
           f"gaussian bias={gbias:.1e}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert 1.6 <= slope <= 2.6, (
        f"measured log-log slope {slope:.4f}: the product-Laplace base is "
        "symmetric about its center, so the inversion bias is odd in the "
        "offset, the quadratic term cancels identically, and the decay is "
        "cubic; no correct implementation lands in [1.6, 2.6]")


def test_criterion_09_subgamma_score_moments(detail):
    t0 = time.monotonic()
    r = 0.5
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), r)
    r_half = r * np.eye(4)
    i_r = fisher_hd(m).matrix
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e12 = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    worst = -math.inf
    for k in (3, 4, 6):
        for i, v in enumerate((e1, e12)):
            chk = score_moment_check(m, v, k, 100_000, RngSeed(2026).derive(k, i))
            stated = (1.6 ** (k - 2) * k ** (k / 2)
                      * float(v @ r_half @ i_r @ r_half @ v))
            assert chk.ceiling == pytest.approx(stated, rel=1e-12)
            assert chk.moment_abs <= chk.ceiling + 3.0 * chk.se_abs
            worst = max(worst, chk.moment_abs / chk.ceiling)
    elapsed = time.monotonic() - t0
    detail(f"k in (3,4,6), 2 directions, max moment/ceiling={worst:.3f}, "
           f"{elapsed:.0f}s")
    assert elapsed < 60.0


BENCH_CONFIGS = {
    "coverage": """experiment = coverage
model = laplace(0,1)
n = 400
trials = 8
delta = 0.1
seed = 2026
""",
    "coverage-hd": """experiment = coverage-hd
model = product(gaussian(0,1)^8)
n = 120
trials = 4
delta = 0.1
r = 1.0
eta = 0.25
seed = 2026
""",
    "sawtooth-phase": """experiment = sawtooth-phase
w = 0.05
slope = 4.0
n-grid = 400,800
trials = 3
delta = 0.1
seed = 2026
""",
    "concentration": """experiment = concentration
families = gaussian,exponential
d-grid = 4,8
delta-grid = 0.1,0.05
trials = 1500
seed = 2026
""",
}


def cli(*args):
    res = subprocess.run([sys.executable, "-m", "smoothloc", *args],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path, detail):
    t0 = time.monotonic()
    for name, text in BENCH_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        outputs = []
        for i, threads in enumerate((1, 1, 8, 8)):
            out = tmp_path / f"{name}.{i}.csv"
            cli("bench", name, "--config", str(cfg), "--out", str(out),
                "--threads", str(threads))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3], name

    fisher_args = ("fisher", "--model", "sawtooth(0.05,4)",
                   "--r-grid", "0.05,0.2,1")
    assert cli(*fisher_args) == cli(*fisher_args)
    est_out = [tmp_path / f"est.{i}.csv" for i in range(2)]
    est_std = [cli("estimate", "--model", "laplace(0,1)", "--n", "2000",
                   "--delta", "0.1", "--seed", "9", "--out", str(p))
               for p in est_out]
    assert est_std[0] == est_std[1]
    assert est_out[0].read_bytes() == est_out[1].read_bytes()
    elapsed = time.monotonic() - t0
    detail(f"4 bench experiments x threads (1,8) x repeats byte-identical, "
           f"{elapsed:.0f}s")
    assert elapsed < 60.0
