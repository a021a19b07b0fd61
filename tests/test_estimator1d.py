"""Two-stage 1-d estimator: collapse identity, init stage, coverage."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from smoothloc import (
    Config1d,
    ConfigurationError,
    EstimationError,
    Gaussian,
    GaussianMixture,
    GaussianSawtooth,
    Laplace,
    PreconditionError,
    RngSeed,
    choose_alpha,
    fisher_1d,
    global_mle_1d,
    local_mle_1d,
    parse_model,
    quantile_initial_estimate,
    smoothed_score_1d,
    SmoothedModel1d,
)
from smoothloc.estimator1d import _quantile_rows, _split, global_mle_1d_rows

LOG20 = math.log(20.0)


# -- local step --------------------------------------------------------------


def test_local_step_collapses_to_mean_for_gaussian():
    # linear score: the Newton step lands on mean(perturbed) - mu exactly
    base, r, lam1 = Gaussian(0.4, 1.3), 0.8, 0.9
    for s in range(20):
        seed = RngSeed(s)
        x = RngSeed(1000 + s).generator().uniform(-1.0, 3.0, size=600)
        lam_hat = local_mle_1d(base, r, x, lam1, seed)
        noise = seed.generator().standard_normal(x.shape)
        expected = float(np.mean(x + r * noise)) - 0.4
        assert abs(lam_hat - expected) <= 1e-12 * max(1.0, abs(expected))


def test_local_step_fixed_point():
    # craft samples whose perturbed versions sit exactly at lam1 + mu
    base, r, lam1 = Gaussian(0.0, 1.0), 0.5, 1.7
    seed = RngSeed(123)
    noise = seed.generator().standard_normal(400)
    x = lam1 - r * noise
    lam_hat = local_mle_1d(base, r, x, lam1, RngSeed(123))
    assert abs(lam_hat - lam1) < 1e-13


def test_local_step_quantile_within_radius():
    base, n, r, lam, lam1 = Laplace(0, 1), 10**4, 0.3, 3.0, 3.05
    root = RngSeed(55)
    errs = []
    for t in range(400):
        ts = root.derive(t)
        x = base.sample(n, ts.derive(1)) + lam
        errs.append(abs(local_mle_1d(base, r, x, lam1, ts.derive(2)) - lam))
    i_r = fisher_1d(SmoothedModel1d(base, r))
    radius = 1.3 * math.sqrt(2.0 * LOG20 / (n * i_r))
    assert np.quantile(errs, 0.9) <= radius


def test_local_step_validation():
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError,
                           match=r"^smoothing radius r must be finite and > 0"):
            local_mle_1d(Gaussian(0, 1), r, [1.0, 2.0], 0.0, RngSeed(1))
    with pytest.raises(PreconditionError):
        local_mle_1d(Gaussian(0, 1), 0.5, [], 0.0, RngSeed(1))


@pytest.mark.parametrize("lam1", [math.nan, math.inf, -math.inf])
def test_local_step_rejects_non_finite_start(lam1):
    # it was scored, and reported as an underflow at a perturbed sample nan
    with pytest.raises(PreconditionError,
                       match=rf"^lambda1 must be finite, got {lam1}$"):
        local_mle_1d(Laplace(0, 1), 0.3, [0.5, 1.0], lam1, RngSeed(1))


def test_local_step_underflow_reports_bad_init():
    with pytest.raises(EstimationError, match="underflowed"):
        local_mle_1d(Laplace(0, 1), 0.1, [1000.0, 1000.5], 0.0, RngSeed(3))


def test_streamed_local_step_is_the_whole_row_step(monkeypatch):
    # in one slice and in 1000-point slices: the noise, scores and mean of
    # the whole row scored at once, and, when the only far point lies in
    # the third slice, the same error naming the same point
    base, r, lam1, seed = Laplace(0, 1), 0.3, 0.2, RngSeed(31)
    engine = SmoothedModel1d(base, r)
    x = base.sample(2500, RngSeed(30))
    noise = seed.generator().standard_normal(x.shape)
    score = smoothed_score_1d(engine, x + r * noise - lam1)
    whole = lam1 - float(np.mean(score)) / fisher_1d(engine)
    far = x.copy()
    far[2300] = 1e4
    point = float(far[2300] + r * noise[2300] - lam1)
    for block in (1 << 16, 1000):
        monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", block)
        assert local_mle_1d(base, r, x, lam1, seed) == whole
        with pytest.raises(EstimationError) as err:
            local_mle_1d(base, r, far, lam1, seed)
        assert str(err.value) == (
            f"smoothed score underflowed at perturbed sample {point} "
            f"(r=0.3, lambda1=0.2); initialization is likely far off")


# -- initialization stage -----------------------------------------------------


def test_choose_alpha_symmetric_families():
    assert choose_alpha(Gaussian(0, 1), 0.1) == 0.5
    assert choose_alpha(Laplace(0, 1), 0.05) == 0.5


def test_choose_alpha_asymmetric_matches_grid_argmin():
    base = GaussianMixture((0.9, 0.1), (0.0, 5.0), (0.1, 1.0))
    q, step = 0.1, 1e-3
    got = choose_alpha(base, q, step)
    alphas = q + step * np.arange(int((1 - 2 * q) / step) + 1)
    ok = (alphas - q > 0) & (alphas + q < 1)
    widths = np.where(
        ok, base.quantile(np.minimum(alphas + q, 1 - 1e-12))
        - base.quantile(np.maximum(alphas - q, 1e-12)), np.inf)
    assert abs(base.quantile(got + q) - base.quantile(got - q)
               - widths.min()) < 1e-12
    assert got != 0.5  # main mass sits off the median of the mixture


def test_choose_alpha_validation():
    with pytest.raises(PreconditionError):
        choose_alpha(Gaussian(0, 1), 0.5)
    with pytest.raises(PreconditionError):
        choose_alpha(Gaussian(0, 1), 0.1, grid_step=0.0)


def test_choose_alpha_cached_per_question(monkeypatch):
    calls = []
    original = GaussianMixture.quantile

    def counting(self, p):
        calls.append(np.size(p))
        return original(self, p)

    monkeypatch.setattr(GaussianMixture, "quantile", counting)
    base = GaussianMixture((0.8, 0.2), (0.0, 3.0), (0.5, 1.0))
    first = choose_alpha(base, 0.137, 2e-3)
    assert calls
    seen = len(calls)
    assert choose_alpha(base, 0.137, 2e-3) == first
    assert len(calls) == seen
    choose_alpha(base, 0.138, 2e-3)  # a different question is computed
    assert len(calls) > seen


def test_quantile_init_plugin_shift():
    base, lam, m, alpha = Laplace(0, 1), 7.0, 101, 0.25
    grid = base.quantile(np.arange(1, m + 1) / (m + 1.0)) + lam
    est = quantile_initial_estimate(base, grid, alpha)
    idx = math.ceil(alpha * m)
    assert est == float(grid[idx - 1]) - base.quantile(alpha)
    assert abs(est - lam) < 0.05


def test_quantile_init_symmetric_median_exact():
    base, lam = Gaussian(0, 1), -2.5
    sym = np.array([-1.1, -0.4, 0.0, 0.4, 1.1]) + lam
    assert quantile_initial_estimate(base, sym, 0.5) == lam


def test_quantile_init_two_samples_takes_lower():
    base = Gaussian(0, 1)
    # ceil(0.5 * 2) = 1, so the smaller order statistic is used
    assert quantile_initial_estimate(base, [3.0, 9.0], 0.5) == 3.0


def test_quantile_rows_pick_the_sorted_order_statistic_with_ties():
    # the start selects the ceil(alpha m)-th order statistic by partition;
    # rows full of repeated values pick the same one that sorting picks
    base = Laplace(0, 1)
    rng = np.random.default_rng(5)
    x = rng.integers(-3, 4, size=(7, 41)).astype(float)
    x[0] = 2.0  # one row all equal
    x[1, :20] = -1.0  # a tie straddling the median
    x[1, 20:] = 1.0
    for alpha in (0.01, 0.25, 0.5, 0.9, 0.99):
        idx = math.ceil(alpha * x.shape[1])
        want = np.sort(x, axis=1)[:, idx - 1] - base.quantile(alpha)
        assert np.array_equal(_quantile_rows(base, x, alpha), want)


def test_quantile_rows_select_in_place():
    # the rows own their stack: the selection reorders each row where it
    # stands, where np.partition would copy the whole stack
    base, alpha = Laplace(0, 1), 0.3
    x = np.stack([base.sample(250_000, RngSeed(32, b)) for b in range(4)])
    want = np.sort(x, axis=1)[:, math.ceil(alpha * x.shape[1]) - 1]
    _quantile_rows(base, x[:, :10].copy(), alpha)  # fill the quantile cache
    tracemalloc.start()
    try:
        got = _quantile_rows(base, x, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * x.nbytes
    assert np.array_equal(got, want - base.quantile(alpha))


def test_quantile_init_validation():
    with pytest.raises(PreconditionError):
        quantile_initial_estimate(Gaussian(0, 1), [1.0], 0.5)
    with pytest.raises(PreconditionError):
        quantile_initial_estimate(Gaussian(0, 1), [1.0, 2.0], 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantile_init_rejects_non_finite_samples(bad):
    # sorting would move the bad value to an end and return a finite,
    # meaningless shift
    x = Laplace(0, 1).sample(201, RngSeed(31))
    x[[17, 150]] = bad
    with pytest.raises(PreconditionError,
                       match=r"2 non-finite sample\(s\), the first at index 17$"):
        quantile_initial_estimate(Laplace(0, 1), x, 0.5)


# -- full pipeline ------------------------------------------------------------


def reference_report():
    base = Gaussian(0, 1)
    ts = RngSeed(2026).derive(1)
    x = base.sample(10**4, ts.derive(2))
    return global_mle_1d(base, x, Config1d(delta=0.1), ts.derive(3))


def test_global_reference_run_frozen():
    rep = reference_report()
    assert rep.n_used_init == 4443 and rep.n_used_local == 5557
    assert rep.lambda_hat == pytest.approx(0.008739659139116097, rel=1e-6)
    assert rep.lambda_initial == pytest.approx(0.0003835620901188376, rel=1e-6)
    assert rep.r_used == pytest.approx(0.24464606182595766, rel=1e-6)
    assert rep.fisher_at_r == pytest.approx(0.9435282353018896, rel=1e-6)
    assert rep.theoretical_radius == pytest.approx(0.03380405876387601, rel=1e-6)
    assert abs(rep.lambda_hat) < 0.1


# At slope 0 the sawtooth's smoothed score skips the ripple lookup, whose
# table is all zeros there.  The estimates and the digest were frozen from
# the step that still added those zeros, at n = 10^5 over six seeds.  A
# score of exactly 0 now reads -0.0 where adding +0.0 gave +0.0, so the
# digest drops the sign of zeros (x + 0.0); nothing else may change.
FLAT_SAWTOOTH_LAMBDA_HAT = ("0x1.2e8c804c37262p-2", "0x1.3448813bde791p-2",
                            "0x1.34ac04a4aaaadp-2", "0x1.37051e82cd5b7p-2",
                            "0x1.2d44f7ed25f6fp-2", "0x1.30bba0bd42865p-2")
FLAT_SAWTOOTH_SMOOTHED_DIGEST = (
    "f88a8e5e91cb05a79df0c2816bcf06899f0dc18102c0e7bf175832b4739aa488")


def test_flat_sawtooth_step_is_bitwise_the_zero_ripple_step():
    saw0 = GaussianSawtooth(0.05, 0.0)
    for seed, want in enumerate(FLAT_SAWTOOTH_LAMBDA_HAT, start=1):
        x = saw0.sample(10**5, RngSeed(seed, 17))
        x += 0.3
        rep = global_mle_1d(saw0, x, Config1d(delta=0.1), RngSeed(seed, 18))
        assert rep.lambda_hat.hex() == want, seed
        assert rep.fisher_at_r.hex() == "0x1.ef54248170f1ep-1"
    u = np.concatenate([np.linspace(-40, 40, 100_001),
                        [0.0, -0.0, 1e-300, -1e-300]])
    h = hashlib.sha256()
    for r in (0.05, 0.183, 1.0):
        log_pdf, score = saw0._smoothed(u, r)
        h.update((log_pdf + 0.0).tobytes())
        h.update((score + 0.0).tobytes())
    assert h.hexdigest() == FLAT_SAWTOOTH_SMOOTHED_DIGEST


def test_global_report_internal_consistency():
    rep = reference_report()
    base = Gaussian(0, 1)
    n = rep.n_used_init + rep.n_used_local
    assert n == 10**4
    # documented schedules, recomputed from scratch
    assert rep.r_used == pytest.approx(
        0.5 * (LOG20 / n) ** 0.125 * base.iqr(), rel=1e-12)
    assert rep.fisher_at_r == pytest.approx(
        fisher_1d(SmoothedModel1d(base, rep.r_used)), rel=1e-12)
    assert rep.theoretical_radius == pytest.approx(
        math.sqrt(2.0 * LOG20 / (rep.n_used_local * rep.fisher_at_r)),
        rel=1e-12)
    assert rep.n_used_init == math.ceil((LOG20 / n) ** 0.1 * n)


def test_global_collapse_identity():
    # gaussian base: final estimate equals mean of the perturbed local
    # slice minus the base mean, whatever the initializer did
    base = Gaussian(0, 1)
    ts = RngSeed(2026).derive(1)
    x = base.sample(10**4, ts.derive(2))
    rep = reference_report()
    noise = ts.derive(3).generator().standard_normal(rep.n_used_local)
    perturbed = x[rep.n_used_init:] + rep.r_used * noise
    expected = float(np.mean(perturbed))
    assert abs(rep.lambda_hat - expected) <= 1e-12 * max(1.0, abs(expected))


def test_global_r_override():
    base = Gaussian(0, 1)
    x = base.sample(2000, RngSeed(4).derive(1))
    rep = global_mle_1d(base, x, Config1d(delta=0.1, r_override=0.5), RngSeed(5))
    assert rep.r_used == 0.5
    assert rep.fisher_at_r == pytest.approx(0.8, abs=1e-6)


def test_global_shift_equivariance():
    base, lam = Laplace(0, 1), 0.5
    x = base.sample(3000, RngSeed(6).derive(1))
    cfg = Config1d(delta=0.1)
    rep0 = global_mle_1d(base, x, cfg, RngSeed(7))
    rep1 = global_mle_1d(base, x + lam, cfg, RngSeed(7))
    assert abs((rep1.lambda_hat - rep0.lambda_hat) - lam) < 1e-9
    assert rep1.r_used == rep0.r_used


def test_global_radius_scales_like_root_n():
    base = Gaussian(0, 1)
    scaled = []
    for n in (10**3, 10**4, 10**5):
        x = base.sample(n, RngSeed(7).derive(n))
        rep = global_mle_1d(base, x, Config1d(delta=0.1), RngSeed(8).derive(n))
        scaled.append(rep.theoretical_radius * math.sqrt(n))
    # slowly varying split/radius factors allowed, sqrt(n) must dominate
    for a, b in zip(scaled, scaled[1:]):
        assert max(a, b) / min(a, b) < 1.2


def test_global_rejects_non_vector_samples():
    x = np.zeros((2000, 2))
    with pytest.raises(PreconditionError, match="samples must be a 1-d sequence"):
        global_mle_1d(Laplace(0, 1), x, Config1d(delta=0.1), RngSeed(1))


def test_block_row_underflow_is_that_rows_error():
    # row 2's quantile slice sits 1000 away from its local slice, so its
    # local step underflows; the other rows must not notice
    base, cfg, n = Laplace(0, 1), Config1d(delta=0.1), 2000
    root = RngSeed(78)
    xs = np.stack([base.sample(n, root.derive(b)) for b in range(4)])
    seeds = [root.derive(10 + b) for b in range(4)]
    n_init = global_mle_1d_rows(base, xs.copy(), cfg, seeds)[2].n_used_init
    xs[2, :n_init] += 1000.0
    reps = global_mle_1d_rows(base, xs.copy(), cfg, seeds)

    with pytest.raises(EstimationError, match="underflowed") as single:
        global_mle_1d(base, xs[2], cfg, seeds[2])
    assert isinstance(reps[2], EstimationError)
    assert str(reps[2]) == str(single.value)
    for b in (0, 1, 3):
        one = global_mle_1d(base, xs[b], cfg, seeds[b])
        assert reps[b] == one  # every field, bit for bit


@pytest.mark.parametrize("block", [7, 1000])
def test_block_rows_in_any_slices_are_the_single_calls(block, monkeypatch):
    # n = 400 leaves 154 local points a row: 7-point slices are pieces of
    # one row, a 1000-point slice holds all five rows.  Row 2's quantile
    # slice sits 1000 away, so its local step underflows
    base, cfg, n = Laplace(0, 1), Config1d(delta=0.1), 400
    root = RngSeed(79)
    xs = np.stack([base.sample(n, root.derive(b)) for b in range(5)])
    xs[2, :_split(cfg, n)[1]] += 1000.0
    seeds = [root.derive(10 + b) for b in range(5)]
    singles = []
    for x, seed in zip(xs, seeds):
        try:
            singles.append(global_mle_1d(base, x, cfg, seed))
        except EstimationError as e:
            singles.append(str(e))
    assert [isinstance(one, str) for one in singles] == [0, 0, 1, 0, 0]
    monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", block)
    reps = global_mle_1d_rows(base, xs, cfg, seeds)
    # every report field bit for bit, and the same error text
    assert [str(r) if isinstance(r, Exception) else r for r in reps] == singles


@pytest.mark.parametrize("estimate", [
    lambda x: global_mle_1d(Laplace(0, 1), x, Config1d(delta=0.1), RngSeed(51)),
    lambda x: local_mle_1d(Laplace(0, 1), 0.3, x, 0.1, RngSeed(52)),
    lambda x: quantile_initial_estimate(Laplace(0, 1), x, 0.3),
], ids=["global_mle_1d", "local_mle_1d", "quantile_initial_estimate"])
def test_public_estimators_leave_the_callers_samples_unwritten(estimate):
    # the rows functions reorder the initialization split and perturb and
    # score the local split in place; the public ones hand them a copy
    x = Laplace(0, 1).sample(5000, RngSeed(50))
    before = hashlib.sha256(x.tobytes()).hexdigest()
    estimate(x)
    assert hashlib.sha256(x.tobytes()).hexdigest() == before


def test_global_small_budget_names_minimum():
    x = Gaussian(0, 1).sample(50, RngSeed(9))
    with pytest.raises(ConfigurationError, match="need n >= 300"):
        global_mle_1d(Gaussian(0, 1), x, Config1d(delta=0.1), RngSeed(10))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_global_rejects_non_finite_samples(bad):
    # index 5 falls in the initialization slice, 9000 in the local slice
    base, cfg = Laplace(0, 1), Config1d(delta=0.1)
    x = base.sample(10**4, RngSeed(21))
    for where in ((5,), (9000,), (9000, 5, 7000)):
        y = x.copy()
        y[list(where)] = bad
        with pytest.raises(PreconditionError,
                           match=rf"{len(where)} non-finite sample\(s\), "
                                 rf"the first at index {min(where)}$"):
            global_mle_1d(base, y, cfg, RngSeed(22))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_local_rejects_non_finite_samples(bad):
    x = np.array([0.5, bad, 1.0, bad])
    with pytest.raises(PreconditionError,
                       match=r"2 non-finite sample\(s\), the first at index 1$"):
        local_mle_1d(Laplace(0, 1), 0.3, x, 0.0, RngSeed(1))


def test_config_validation():
    for bad in (dict(delta=0.0), dict(delta=0.6),
                dict(delta=0.1, r_override=-1.0),
                dict(delta=0.1, min_n_factor=0.0),
                # an infinite guard once overflowed in the budget message
                dict(delta=0.1, min_n_factor=math.inf),
                dict(delta=0.1, min_n_factor=1e308)):
        with pytest.raises(ConfigurationError):
            Config1d(**bad)


def test_global_coverage_laplace():
    base, n, delta = Laplace(0, 1), 10**4, 0.1
    root = RngSeed(77)
    misses = 0
    trials = 300
    for t in range(trials):
        ts = root.derive(t)
        lam = ts.derive(1).generator().uniform(-2.0, 2.0)
        x = base.sample(n, ts.derive(2)) + lam
        rep = global_mle_1d(base, x, Config1d(delta=delta), ts.derive(3))
        if abs(rep.lambda_hat - lam) > 1.3 * rep.theoretical_radius:
            misses += 1
    assert misses / trials <= 0.12


# -- the asymptotic constant -------------------------------------------------
#
# The smoothed estimator's error tends to N(0, 1/(n_local I_r)), so the
# median of |err| * sqrt(n_local I_r) tends to the median of |N(0, 1)|,
# Phi^{-1}(0.75) = 0.674.  Over 1000 trials that median has a standard
# deviation of about sqrt(0.25/1000) / (2 phi(0.674)) = 0.025; the band
# below is 4 of those.  Against the plain Cramer-Rao constant the gap is
# the init split: the quantile initializer takes (log(2/delta)/n)^0.1 of
# the samples (44 % at n = 10^4, delta = 0.1), so sqrt(n) * median reads
# 0.93-1.04 on these rows rather than 0.674 / sqrt(I).

PHI_INV_075 = 0.6744897501960817
MEDIAN_BAND = 4 * 0.025


def _normalized_errors(spec, n, delta, trials, seed):
    """|err| * sqrt(n_local I_r) per trial, and the share of trials whose
    error exceeds the reported radius."""
    base, cfg, root = parse_model(spec), Config1d(delta=delta), RngSeed(seed)
    z, misses = [], 0
    for t in range(trials):
        ts = root.derive(t)
        rep = global_mle_1d(base, base.sample(n, ts.derive(2)), cfg,
                            ts.derive(3))
        err = abs(rep.lambda_hat)  # true location 0
        z.append(err * math.sqrt(rep.n_used_local * rep.fisher_at_r))
        misses += err > rep.theoretical_radius
    return np.array(z), misses / trials


@pytest.mark.parametrize("spec,delta,seed", [("laplace(0,1)", 0.1, 1),
                                             ("gaussian(0,1)", 0.1, 2),
                                             ("laplace(0,1)", 0.5, 3)])
def test_error_constant_is_fisher_limit(spec, delta, seed):
    z, failure = _normalized_errors(spec, 10**4, delta, 1000, seed)
    assert abs(np.median(z) - PHI_INV_075) <= MEDIAN_BAND
    # coverage at a constant failure probability: the reported radius
    # holds with probability at least 1 - delta (0.5 here for delta = 0.5)
    assert failure <= delta
