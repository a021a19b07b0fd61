"""Subgamma norm bounds, samplers, and Monte Carlo validators."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from smoothloc import (
    ConfigurationError,
    PreconditionError,
    RngSeed,
    SmoothedModelHd,
    SubgammaSpec,
    empirical_norm_quantile,
    exponential_generator,
    gaussian_generator,
    gaussian_tail,
    m_norm,
    mgf_check,
    norm_bound,
    parse_model,
    rademacher_generator,
    score_vector_generator,
    tail_bound,
)
from smoothloc import concentration

I4I4 = SubgammaSpec(np.eye(4), np.eye(4))


# -- closed-form bound values ---------------------------------------------------


def test_tail_bound_values():
    sub = SubgammaSpec(np.eye(1), 0.0)
    assert tail_bound(sub, 4.0) == pytest.approx(2.0 / math.e, rel=1e-12)
    assert tail_bound(sub, 0.0) == 1.0
    assert tail_bound(I4I4, 8.0) == 1.0  # exponent still too weak to bite
    # min picks the linear t/||C|| branch: 2 exp(-20/16)
    assert tail_bound(I4I4, 20.0) == pytest.approx(0.5730095937203802, rel=1e-12)


def test_tail_bound_monotone_and_validated():
    ts = np.linspace(0.0, 40.0, 81)
    vals = [tail_bound(I4I4, t) for t in ts]
    assert np.all(np.diff(vals) <= 0)
    with pytest.raises(PreconditionError):
        tail_bound(I4I4, -1.0)
    with pytest.raises(PreconditionError):
        tail_bound(SubgammaSpec(np.zeros((2, 2)), 0.0), 1.0)


def test_norm_bound_values():
    sub = SubgammaSpec(np.eye(16), 0.0)
    want = 4.0 + 4.0 * math.sqrt(math.log(40.0))
    assert norm_bound(sub, 0.05) == pytest.approx(want, rel=1e-12)
    assert norm_bound(sub, 0.05) == pytest.approx(11.682582330559367, rel=1e-12)
    full = SubgammaSpec(np.eye(16), np.eye(16))
    assert norm_bound(full, 0.05) == pytest.approx(101.43498291861981, rel=1e-12)


def test_norm_bound_increases_as_delta_shrinks():
    vals = [norm_bound(I4I4, d) for d in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(PreconditionError):
        norm_bound(I4I4, 0.0)


def test_gaussian_tail_values():
    assert gaussian_tail(np.eye(16), 0.05) == pytest.approx(
        4.0 + math.sqrt(2.0 * math.log(20.0)), rel=1e-12)
    assert gaussian_tail(np.eye(16), 0.05) == pytest.approx(
        6.447746830680817, rel=1e-12)
    assert gaussian_tail(np.diag([2.0, 3.0]), 1.0) == pytest.approx(math.sqrt(5.0))
    s2 = 1.7
    spherical = gaussian_tail(s2 * np.eye(9), 0.02)
    want = math.sqrt(s2) * (3.0 + math.sqrt(2.0 * math.log(50.0)))
    assert spherical == pytest.approx(want, rel=1e-12)


# -1 raised "math domain error", NaN returned nan and the asymmetric
# matrix a bound of 3.56
@pytest.mark.parametrize("sigma,msg", [
    ([-1.0], "Sigma must be positive semidefinite"),
    ([math.nan], "Sigma must be finite"),
    ([[1.0, 5.0], [0.0, 1.0]], "Sigma must be symmetric within 1e-10"),
], ids=["negative", "nan", "asymmetric"])
def test_gaussian_tail_checks_sigma_as_subgamma_spec_does(sigma, msg):
    with pytest.raises(PreconditionError, match=f"^{re.escape(msg)}$"):
        gaussian_tail(sigma, 0.1)
    with pytest.raises(PreconditionError, match=f"^{re.escape(msg)}$"):
        SubgammaSpec(np.asarray(sigma), 0.0)


def test_quantile_bound_consistent_with_tail_bound():
    # inverting the tail bound at level delta can never beat norm_bound
    gen = RngSeed(300).generator()
    for _ in range(100):
        d = int(gen.integers(1, 17))
        a = gen.standard_normal((d, d))
        spec = SubgammaSpec(a @ a.T / d + 0.1 * np.eye(d),
                            0.5 * gen.standard_normal((d, d)))
        delta = float(gen.uniform(0.001, 0.3))
        lo, hi = 0.0, 1.0
        while tail_bound(spec, hi) > delta:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if tail_bound(spec, mid) > delta else (lo, mid)
        assert math.sqrt(spec.trace_sigma) + hi <= norm_bound(spec, delta) + 1e-9


def test_subgaussian_bound_within_constant_of_gaussian_baseline():
    gen = RngSeed(301).generator()
    for _ in range(50):
        d = int(gen.integers(1, 13))
        a = gen.standard_normal((d, d))
        sigma = a @ a.T / d + 0.05 * np.eye(d)
        delta = float(gen.uniform(0.001, 0.3))
        spec = SubgammaSpec(sigma, 0.0)
        assert norm_bound(spec, delta) <= 4.0 * gaussian_tail(sigma, delta**2 / 4.0)


# -- spec validation -------------------------------------------------------------


def test_subgamma_spec_validation():
    with pytest.raises(PreconditionError):
        SubgammaSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)
    with pytest.raises(PreconditionError):
        SubgammaSpec(np.diag([1.0, -0.5]), 0.0)
    with pytest.raises(PreconditionError):
        SubgammaSpec(np.eye(2), np.eye(3))
    with pytest.raises(PreconditionError, match="^C must be finite$"):
        SubgammaSpec(np.eye(2), np.diag([1.0, np.nan]))
    # 1-d Sigma and C are diagonals
    for sigma in (np.eye(2), np.ones(2)):
        for bad in ([1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(PreconditionError, match="^C must be finite$"):
                SubgammaSpec(sigma, np.array(bad))
        with pytest.raises(PreconditionError,
                           match="^C must be nonnegative as a diagonal$"):
            SubgammaSpec(sigma, np.array([1.0, -0.5]))
        with pytest.raises(PreconditionError, match="^C must be a scalar, a 2-vector"):
            SubgammaSpec(sigma, np.ones(3))
    for bad, what in (([np.nan, 1.0], "finite"), ([1.0, -np.inf], "finite"),
                      ([1.0, -0.5], "positive semidefinite")):
        with pytest.raises(PreconditionError, match=f"^Sigma must be {what}$"):
            SubgammaSpec(np.array(bad), 0.0)
    for empty in (np.zeros(0), np.zeros((0, 0))):
        with pytest.raises(PreconditionError, match="^Sigma must not be empty$"):
            SubgammaSpec(empty, 0.0)
    with pytest.raises(PreconditionError, match="^Sigma must not be empty$"):
        rademacher_generator(np.zeros(0))
    spec = SubgammaSpec(np.eye(2), 0.0)
    assert spec.is_subgaussian and spec.dim == 2 and spec.trace_sigma == 2.0
    # a scalar C is a diagonal, never a d x d matrix
    diag = SubgammaSpec(np.ones(3), 0.0)
    assert diag.is_subgaussian and diag.dim == 3 and diag.trace_sigma == 3.0
    assert np.array_equal(diag.c, np.zeros(3))
    assert np.array_equal(SubgammaSpec(np.eye(3), 2.0).c, np.full(3, 2.0))


@pytest.mark.parametrize("bad,what", [
    (np.ones((2, 3)), "square"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric within 1e-10"),
    (np.diag([1.0, -0.5]), "positive semidefinite"),
    (np.array([[np.nan]]), "finite"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "finite"),
    (np.array([np.nan, 1.0]), "finite"),
    (np.array([1.0, np.inf]), "finite"),
    (np.array([1.0, -0.5]), "positive semidefinite"),
])
def test_sym_psd_check_names_its_matrix(bad, what):
    # Sigma and the estimator's norm matrix share one check
    with pytest.raises(PreconditionError, match=f"^Sigma must be {what}$"):
        SubgammaSpec(bad, 0.0)
    with pytest.raises(PreconditionError, match=f"^norm matrix must be {what}$"):
        m_norm(np.zeros(2), bad)


# -- empirical quantiles ----------------------------------------------------------


def test_empirical_quantile_chi_16():
    gen = gaussian_generator(np.eye(16))
    q = empirical_norm_quantile(gen, 100_000, 0.05, RngSeed(2026))
    oracle = math.sqrt(stats.chi2.ppf(0.95, df=16))
    assert abs(q - oracle) < 0.03


def test_empirical_quantile_degenerate_and_validation():
    zero = gaussian_generator(np.zeros((3, 3)))
    assert empirical_norm_quantile(zero, 500, 0.1, RngSeed(1)) == 0.0
    with pytest.raises(ConfigurationError, match="need at least 100"):
        empirical_norm_quantile(zero, 50, 0.1, RngSeed(1))
    with pytest.raises(PreconditionError):
        empirical_norm_quantile(zero, 500, 1.0, RngSeed(1))


def _generators():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), 0.5)
    scales = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    return [gaussian_generator(np.eye(5)), gaussian_generator(np.diag(scales)),
            gaussian_generator(scales), exponential_generator(scales),
            rademacher_generator(scales),
            score_vector_generator(m, np.array([0.1, 0.0, 0.0, 0.0]))]


# (coordinates per chunk, n): n below one chunk; n not a multiple of the
# chunk's 13107 rows; 3-row chunks with a 2-row tail; d = 5 above the
# chunk's coordinate count, so one row per chunk
@pytest.mark.parametrize("chunk_coords,n", [
    (1 << 16, 1000), (1 << 16, 30_000), (16, 101), (4, 41)])
def test_streamed_norms_equal_one_call_draw(chunk_coords, n, monkeypatch):
    monkeypatch.setattr(concentration, "_CHUNK_COORDS", chunk_coords)
    for i, gen in enumerate(_generators()):
        seed = RngSeed(606).derive(i)
        want = np.linalg.norm(gen.draw(n, seed), axis=1)
        assert np.array_equal(concentration._norms(gen, n, seed), want)
        q = empirical_norm_quantile(gen, n, 0.25, seed)
        assert q == np.sort(want)[math.ceil((1.0 - 0.25) * n) - 1]


@pytest.mark.parametrize("family", ["gaussian", "exponential", "rademacher"])
def test_bounds_dominate_empirical_quantiles(family):
    make = {"gaussian": lambda d: gaussian_generator(np.eye(d)),
            "exponential": lambda d: exponential_generator(np.ones(d)),
            "rademacher": lambda d: rademacher_generator(np.ones(d))}[family]
    root = RngSeed(404)
    for i, d in enumerate((4, 16, 64)):
        gen = make(d)
        for j, delta in enumerate((0.2, 0.1, 0.05, 0.01)):
            q = empirical_norm_quantile(gen, 20_000, delta, root.derive(i, j))
            assert q <= norm_bound(gen.claimed, delta)


@pytest.mark.parametrize("d", [1, 7, 129, 5000, (1 << 16) + 3])
def test_rademacher_fixed_norm_is_the_streamed_norm(d):
    # the quantile draws nothing; every drawn row has that norm, to the bit
    b = RngSeed(707).derive(d).generator().uniform(0.1, 3.0, d)
    gen = rademacher_generator(b)
    seed = RngSeed(708).derive(d)
    q = empirical_norm_quantile(gen, 100, 0.1, seed)
    assert np.array_equal(concentration._norms(gen, 100, seed), np.full(100, q))
    assert q == pytest.approx(np.linalg.norm(b), rel=1e-14)


@pytest.mark.parametrize("d", [1, 4, 64, 1000])
def test_diagonal_gaussian_norms_equal_dense_identity(d):
    seed = RngSeed(709).derive(d)
    want = concentration._norms(gaussian_generator(np.eye(d)), 2000, seed)
    got = concentration._norms(gaussian_generator(np.ones(d)), 2000, seed)
    assert np.array_equal(got, want)
    # general variances: the dense root comes from eigh, so the last
    # places may differ
    var = RngSeed(709).generator().uniform(0.01, 10.0, d)
    want = concentration._norms(gaussian_generator(np.diag(var)), 2000, seed)
    got = concentration._norms(gaussian_generator(var), 2000, seed)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def _same_mgf_report(a, b):
    return (a.passed == b.passed and a.worst_margin == b.worst_margin
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("lambdas", "empirical", "std_err", "envelope")))


def test_diagonal_claims_match_dense_claims():
    # unit entries: equal to the bit.  General entries: trace, top
    # eigenvalue and the MGF check are equal to the bit; ||C||_2 (an SVD)
    # and ||C||_F (a BLAS dot over the whole matrix) may differ in the
    # last two places, so the bounds carry a relative tolerance of 1e-15
    gen = RngSeed(710).generator()
    for d in (1, 4, 64, 1000):
        for sigma, c, rel in ((np.ones(d), 0.0, 0.0),
                              (2.0 * np.ones(d), 2.0 * np.ones(d), 0.0),
                              (gen.uniform(0.01, 10.0, d), 0.0, 1e-15),
                              (gen.uniform(0.01, 10.0, d),
                               gen.uniform(0.0, 5.0, d), 1e-15)):
            diag = SubgammaSpec(sigma, c)
            dense = SubgammaSpec(np.diag(sigma), np.diag(diag.c))
            assert diag.trace_sigma == dense.trace_sigma
            assert diag.sigma_norm == dense.sigma_norm
            for delta in (0.2, 0.01):
                assert norm_bound(diag, delta) == pytest.approx(
                    norm_bound(dense, delta), rel=rel, abs=0.0)
                assert gaussian_tail(sigma, delta) == gaussian_tail(
                    np.diag(sigma), delta)
            for t in (0.5, 5.0, 50.0):
                assert tail_bound(diag, t) == pytest.approx(
                    tail_bound(dense, t), rel=rel, abs=0.0)
    # the grid is admissible for all three claims (the tightest cap,
    # 1/||Cv|| of the first, is 0.297)
    s, v = np.array([0.5, 1.0, 2.0]), np.array([0.3, -0.5, 0.8])
    grid = [-0.25, 0.1, 0.25]
    for vg in (exponential_generator(s), gaussian_generator(s * s),
               exponential_generator(np.ones(3))):
        spec = vg.claimed
        dense = dataclasses.replace(
            vg, claimed=SubgammaSpec(np.diag(spec.sigma), np.diag(spec.c)))
        assert _same_mgf_report(mgf_check(vg, v, grid, 100_000, RngSeed(711)),
                                mgf_check(dense, v, grid, 100_000, RngSeed(711)))


# -- samplers and their claims -----------------------------------------------------


def test_generator_draw_shapes_and_determinism():
    gen = exponential_generator(np.array([1.0, 2.0]))
    a = gen.draw(100, RngSeed(5))
    b = gen.draw(100, RngSeed(5))
    assert a.shape == (100, 2) and np.array_equal(a, b)
    assert np.array_equal(gen.claimed.sigma, [2.0, 8.0])
    assert np.array_equal(gen.claimed.c, [2.0, 4.0])
    with pytest.raises(PreconditionError):
        exponential_generator(np.array([1.0, -1.0]))
    with pytest.raises(PreconditionError):
        rademacher_generator(np.array([0.0]))
    with pytest.raises(PreconditionError, match="^Sigma must be finite$"):
        gaussian_generator([[np.nan]])
    for bad in ([np.inf], [1.0, np.nan]):
        with pytest.raises(PreconditionError, match="finite positive"):
            exponential_generator(bad)
        with pytest.raises(PreconditionError, match="finite positive"):
            rademacher_generator(bad)


def test_mgf_check_gaussian_passes():
    gen = gaussian_generator(np.eye(4))
    v = np.array([1.0, 0.0, 0.0, 0.0])
    rep = mgf_check(gen, v, [0.5, 1.0, 2.0, 3.0], 200_000, RngSeed(11))
    assert rep.passed and rep.worst_margin >= 0.0


def test_mgf_check_detects_understated_variance():
    gen = gaussian_generator(np.eye(1))
    lying = dataclasses.replace(
        gen, claimed=SubgammaSpec(0.25 * np.eye(1), 0.0))
    rep = mgf_check(lying, np.array([1.0]), [2.0], 200_000, RngSeed(12))
    assert not rep.passed


def test_mgf_check_exponential_identity_claim_is_false():
    # claiming (I, I) for centered unit exponentials fails analytically:
    # E exp(0.9 (E-1)) = e^{-0.9}/0.1 exceeds e^{0.81/2}
    assert math.exp(-0.9) / 0.1 > math.exp(0.405)
    gen = exponential_generator(np.ones(1))
    lying = dataclasses.replace(gen, claimed=SubgammaSpec(np.eye(1), np.eye(1)))
    rep = mgf_check(lying, np.array([1.0]), [0.9], 200_000, RngSeed(13))
    assert not rep.passed


def test_mgf_check_exponential_shipped_claim_passes():
    gen = exponential_generator(np.ones(3))
    v = np.array([1.0, 0.0, 0.0])
    rep = mgf_check(gen, v, [-0.5, -0.25, 0.1, 0.25, 0.5], 200_000, RngSeed(14))
    assert rep.passed
    # the claim is analytic, not just empirical: -t - log(1-t) <= t^2
    # across the whole admissible range t = lambda * s_j in [-1/2, 1/2]
    t = np.linspace(-0.5, 0.5, 2001)
    assert np.all(-t - np.log1p(-t) <= t * t + 1e-15)


def test_mgf_check_preconditions():
    gen = exponential_generator(np.ones(2))
    v = np.array([1.0, 0.0])
    with pytest.raises(PreconditionError, match="admissible"):
        mgf_check(gen, v, [0.6], 200_000, RngSeed(1))
    with pytest.raises(PreconditionError):
        mgf_check(gen, np.ones(3), [0.1], 200_000, RngSeed(1))
    with pytest.raises(PreconditionError):
        mgf_check(gen, v, [], 200_000, RngSeed(1))
    with pytest.raises(PreconditionError):
        mgf_check(gen, v, [0.1], 50_000, RngSeed(1))
    # a NaN would otherwise read as a failed claim (worst_margin nan)
    with pytest.raises(PreconditionError, match="^v must be finite$"):
        mgf_check(gen, np.array([np.nan, 0.0]), [0.1], 200_000, RngSeed(1))
    for grid in ([0.1, np.nan], [np.inf]):
        with pytest.raises(PreconditionError, match="^lambda_grid must be finite$"):
            mgf_check(gen, v, grid, 200_000, RngSeed(1))


# a fractional, infinite or NaN count failed inside the draw with a bare
# TypeError, OverflowError or ValueError
@pytest.mark.parametrize("call,msg", [
    (lambda gen, n: mgf_check(gen, np.array([1.0, 0.0]), [0.1], n, RngSeed(1)),
     "n_mc must be an integer >= 100000, got {}"),
    (lambda gen, n: empirical_norm_quantile(gen, n, 0.1, RngSeed(1)),
     "n_trials must be an integer >= 1, got {}"),
    (lambda gen, n: gen.draw(n, RngSeed(1)),
     "n_trials must be an integer >= 1, got {}"),
], ids=["mgf_check", "empirical_norm_quantile", "draw"])
@pytest.mark.parametrize("n", [100000.5, math.inf, math.nan])
def test_counts_must_be_integers(call, msg, n):
    for gen in (exponential_generator(np.ones(2)), gaussian_generator(np.eye(2))):
        with pytest.raises(PreconditionError, match=f"^{re.escape(msg.format(n))}$"):
            call(gen, n)


def test_score_vector_generator_centered_and_claimed():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), 0.5)
    gen = score_vector_generator(m, np.array([0.1, 0.0, 0.0, 0.0]))
    draws = gen.draw(100_000, RngSeed(21))
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)
    cap = 1.0 / gen.claimed.c[0]
    rep = mgf_check(gen, np.array([1.0, 0.0, 0.0, 0.0]),
                    [-cap, -0.5 * cap, 0.5 * cap, cap], 100_000, RngSeed(22))
    assert rep.passed
    with pytest.raises(PreconditionError):
        score_vector_generator(m, np.array([0.3, 0.0, 0.0, 0.0]))

