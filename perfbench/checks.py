"""Checks on the CSV tables `smoothloc bench` writes.

Each check compares the program's output with a computation made here
or with a property the method must have; none compares with a stored
copy of an earlier output.  Every function returns (attempted, failed,
problems): trials or cells attempted, those that came back as error
rows, and a list of failed checks in words.
"""

from __future__ import annotations

import csv
import functools
import io
import math

import numpy as np
import smoothloc as sl

import oracles

# The CSV writes 9 significant digits.
_CSV_REL = 1e-8
# Fisher information is frozen at rel 1e-6 in the package's references.
FISHER_REL = 1e-6


def rows_of(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def radius_1d(n_local: int, fisher: float, delta: float) -> float:
    """Leading-order deviation radius sqrt(2 log(2/delta)/(n_local I_r))."""
    return math.sqrt(2.0 * math.log(2.0 / delta) / (n_local * fisher))


# Below the baseline by a margin: for laplace(0,1) at n = 1e4 the median
# error is about 0.82 of the baseline's, and with 1000 trials the ratio
# of the two medians has a standard deviation near 0.03.  Smaller runs
# (the self-test's) cannot resolve it and skip this one check.
_BASELINE_MIN_TRIALS = 1000


def coverage_1d(tables, delta, radius):
    """Coverage <= delta, median error below the sample-mean baseline,
    and every reported radius equal to the one the oracle Fisher gives."""
    problems = []
    errs, baselines, radii = [], [], set()
    attempted = failed = outside = 0
    for text in tables:
        for row in rows_of(text)[:-1]:
            attempted += 1
            if row["note"]:
                failed += 1
                continue
            lam, hat = float(row["lambda_true"]), float(row["lambda_hat"])
            err = float(row["abs_err"])
            if abs(err - abs(hat - lam)) > _CSV_REL * max(1.0, abs(lam)):
                problems.append(f"trial {row['trial']}: abs_err {err} is "
                                f"not |lambda_hat - lambda_true|")
            rad = float(row["theoretical_radius"])
            radii.add(rad)
            outside += err > rad
            errs.append(err)
            baselines.append(float(row["baseline_abs_err"]))
    problems += [f"radius {rad} != oracle radius {radius:.9g}"
                 for rad in sorted(radii) if not _close(rad, radius, FISHER_REL)]
    _coverage(problems, outside + failed, attempted, delta)
    if len(errs) >= _BASELINE_MIN_TRIALS \
            and not np.median(errs) < np.median(baselines):
        problems.append(f"median error {np.median(errs):.3g} is not below "
                        f"the sample-mean baseline {np.median(baselines):.3g}")
    return attempted, failed, problems


def _coverage(problems, misses, attempted, delta):
    if attempted and misses / attempted > delta:
        problems.append(f"coverage: {misses} of {attempted} trials outside "
                        f"the reported bound, more than delta={delta}")


def sawtooth(tables, delta, fisher_oracle):
    """No error rows; the reported Fisher information equal to the
    oracle's; the median error within the reported radius.

    Each batch row holds the median over its few trials; the check takes
    the median of those over the run, since one batch of 6 trials
    exceeds the radius now and then by chance."""
    problems = []
    attempted = failed = 0
    medians, radii = [], []
    for text in tables:
        for row in rows_of(text):
            trials, errors = int(row["trials"]), int(row["errors"])
            attempted += trials
            failed += errors
            if errors == trials:
                continue
            n, fisher = int(row["n"]), float(row["fisher_at_r"])
            if not _close(fisher, fisher_oracle, FISHER_REL):
                problems.append(f"n={n}: fisher_at_r {fisher} != oracle "
                                f"{fisher_oracle:.9g}")
            med = float(row["median_abs_err"])
            medians.append(med)
            radii.append(radius_1d(int(row["n_local"]), fisher, delta))
            if not _close(float(row["med_sqrt_n"]), med * math.sqrt(n),
                          10 * _CSV_REL):
                problems.append(f"n={n}: med_sqrt_n is not median*sqrt(n)")
    if medians and not np.median(medians) <= min(radii):
        problems.append(f"median error {np.median(medians):.3g} exceeds the "
                        f"radius {min(radii):.3g}")
    return attempted, failed, problems


def coverage_hd(tables, delta, bound):
    """Coverage in M-norm <= delta; every reported bound equal to the
    one the oracle Fisher gives."""
    problems = []
    bounds = set()
    attempted = failed = outside = 0
    for text in tables:
        for row in rows_of(text)[:-1]:
            attempted += 1
            if row["note"]:
                failed += 1
                continue
            b = float(row["error_bound"])
            bounds.add(b)
            outside += float(row["err_norm"]) > b
    problems += [f"error bound {b} != oracle bound {bound:.9g}"
                 for b in sorted(bounds) if not _close(b, bound, FISHER_REL)]
    _coverage(problems, outside + failed, attempted, delta)
    return attempted, failed, problems


# Gaussian quantiles must sit within this many Monte Carlo sd of the
# chi quantile; 6 sd leaves a false alarm of ~2e-9 per cell.
_CHI_SD = 6.0


def concentration(tables):
    """Empirical quantile <= subgamma bound (and the bound equal to its
    formula); Rademacher norms exactly sqrt(d); Gaussian quantiles at
    the chi quantile within Monte Carlo error."""
    problems = []
    attempted = 0
    for text in tables:
        for row in rows_of(text):
            attempted += 1
            fam, d, delta = row["family"], int(row["d"]), float(row["delta"])
            n, q = int(row["trials"]), float(row["empirical_q"])
            where = f"{fam} d={d} delta={delta}"
            bound = float(row["bound_subgamma"])
            if not _close(bound, oracles.unit_subgamma_bound(fam, d, delta),
                          _CSV_REL):
                problems.append(f"{where}: subgamma bound {bound} differs "
                                f"from its formula")
            if not q <= bound:
                problems.append(f"{where}: quantile {q} exceeds bound {bound}")
            if fam == "rademacher" and q != float("%.9g" % math.sqrt(d)):
                problems.append(f"{where}: norm {q} is not sqrt(d)")
            if fam == "gaussian":
                ref, sd = oracles.chi_quantile(d, delta, n)
                if abs(q - ref) > _CHI_SD * sd:
                    problems.append(f"{where}: quantile {q} is "
                                    f"{abs(q - ref) / sd:.1f} sd from the "
                                    f"chi quantile {ref:.6g}")
    return attempted, 0, problems


# -- expectations from the oracles, per workload ---------------------------


def check_tables(w, tables):
    """Checks on a run's tables, with the expectations of workload w."""
    delta = float(w.value("delta")) if w.experiment != "concentration" \
        else None
    if w.experiment == "coverage":
        return coverage_1d(tables, delta, _laplace_radius_1d(w))
    if w.experiment == "sawtooth-phase":
        return sawtooth(tables, delta, _sawtooth_fisher(w))
    if w.experiment == "coverage-hd":
        return coverage_hd(tables, delta, _laplace_bound_hd(w))
    return concentration(tables)


# r* schedule and sample split of global_mle_1d at its default constants,
# written as the estimator writes them, so the floats (and the package's
# table cache) match.
def r_star(base, n, delta):
    cfg = sl.Config1d(delta=delta)
    return cfg.r_star_multiplier * (math.log(2.0 / delta) / n) ** 0.125 \
        * base.iqr()


def split_1d(n, delta):
    """Samples global_mle_1d gives to its quantile start."""
    e = sl.Config1d(delta=delta).init_fraction_exponent
    return int(math.ceil((math.log(2.0 / delta) / n) ** e * n))


def _laplace_radius_1d(w):
    n, delta = int(w.value("n")), float(w.value("delta"))
    base = sl.parse_model(w.value("model"))
    fisher = oracles.normal_laplace_fisher(1.0, r_star(base, n, delta))
    return radius_1d(n - split_1d(n, delta), fisher, delta)


def _sawtooth_r(w):
    base = sl.GaussianSawtooth(float(w.value("w")), float(w.value("slope")))
    return base, r_star(base, int(w.value("n-grid")), float(w.value("delta")))


@functools.lru_cache(maxsize=2)
def _sawtooth_oracle(width, slope, r):
    return oracles.GLConvolution(
        lambda u: oracles.sawtooth_pdf(u, width, slope),
        oracles.sawtooth_kinks(width), r, reach=16.0)


def _sawtooth_fisher(w):
    base, r = _sawtooth_r(w)
    return _sawtooth_oracle(base.w, base.slope, r).fisher(-14.0, 14.0)


def _laplace_bound_hd(w):
    """(1+eta) sqrt(Tr T/n) + 5 sqrt(||T|| log(4/delta)/n), T = I_R^{-1},
    for d = 4 identical laplace(0,1) coordinates, M = I and eta at its
    default 0.25."""
    n, delta, eta, d = int(w.value("n")), float(w.value("delta")), 0.25, 4
    inv_fisher = 1.0 / oracles.normal_laplace_fisher(1.0, float(w.value("r")))
    return ((1.0 + eta) * math.sqrt(d * inv_fisher / n)
            + 5.0 * math.sqrt(inv_fisher * math.log(4.0 / delta) / n))


# Tolerances for the package's smoothed score against an oracle: the
# quadrature ladder stops at 1e-9 agreement, and the score table is
# documented to reproduce direct evaluation to about 1e-9.
_SCORE_DIRECT_TOL = 1e-9
_SCORE_TABLE_TOL = 1e-8


def _score_problems(label, got, want, tol):
    err = float(np.max(np.abs(got - want)))
    return [] if err <= tol else [f"{label}: max |score - oracle| = "
                                  f"{err:.3g} > {tol:g}"]


def check_oracles(w):
    """Smoothed score and Fisher information at the workload's radius,
    from the package, against the oracles."""
    if w.experiment == "concentration":
        return []
    gen = np.random.default_rng(12345)
    direct_pts = np.sort(gen.uniform(-5.0, 5.0, 400))   # < 4096: quadrature
    table_pts = np.sort(gen.uniform(-5.0, 5.0, 5000))   # >= 4096: table
    if w.experiment == "coverage-hd":
        r = float(w.value("r"))
        engine = sl.SmoothedModelHd(sl.parse_model(w.value("model")), r)
        pts = gen.uniform(-5.0, 5.0, (400, 4))
        problems = _score_problems(
            "coverage-hd score", sl.smoothed_score_hd(engine, pts),
            oracles.normal_laplace_score(pts, 1.0, r), _SCORE_DIRECT_TOL)
        want = oracles.normal_laplace_fisher(1.0, r)
        for got in np.diag(sl.fisher_hd(engine).matrix):
            if not _close(got, want, FISHER_REL):
                problems.append(f"coverage-hd fisher {got} != oracle {want}")
        return problems
    if w.experiment == "coverage":
        base = sl.parse_model(w.value("model"))
        if not _close(base.iqr(), 2.0 * math.log(2.0), 1e-12):
            return [f"laplace(0,1) IQR {base.iqr()} is not 2 ln 2"]
        r = r_star(base, int(w.value("n")), float(w.value("delta")))

        def want(x):
            return oracles.normal_laplace_score(x, 1.0, r)
        fisher = oracles.normal_laplace_fisher(1.0, r)
    else:
        base, r = _sawtooth_r(w)
        want = _sawtooth_oracle(base.w, base.slope, r).score
        fisher = _sawtooth_fisher(w)
    m = sl.SmoothedModel1d(base, r)
    problems = _score_problems(f"{w.name} direct score", sl.smoothed_score_1d(
        m, direct_pts), want(direct_pts), _SCORE_DIRECT_TOL)
    problems += _score_problems(f"{w.name} table score", sl.smoothed_score_1d(
        m, table_pts), want(table_pts), _SCORE_TABLE_TOL)
    got = sl.fisher_1d(m)
    if not _close(got, fisher, FISHER_REL):
        problems.append(f"{w.name} fisher {got} != oracle {fisher}")
    return problems
