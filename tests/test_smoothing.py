"""Smoothed density/score/Fisher engine against independent oracles."""

import hashlib
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from smoothloc import (
    Config1d,
    ConfigHd,
    ConfigurationError,
    Gaussian,
    GaussianMixture,
    GaussianSawtooth,
    Laplace,
    PreconditionError,
    RngSeed,
    SmoothedModel1d,
    SmoothedModelHd,
    TailUnderflowError,
    check_score_inversion_bias,
    fisher_1d,
    fisher_hd,
    parse_config,
    parse_model,
    score_vector_generator,
    smoothed_pdf_1d,
    smoothed_score_1d,
    smoothed_score_hd,
)
from smoothloc import smoothing
from smoothloc.smoothing import (
    expected_score_taylor_check,
    expected_shifted_score,
    score_moment_check,
)

MIX = GaussianMixture((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))
SAW = GaussianSawtooth(0.05, 4.0)


def convolve_oracle(base, r, x, moment=0):
    """Direct adaptive quadrature of (f * N(0, r^2))(x), kink-aware.

    With moment=k the kernel carries an extra z^k, so moment=1 gives
    -r^2 f_r'(x).
    """
    def integrand(z):
        return z**moment * base.pdf(x - z) * math.exp(-0.5 * (z / r) ** 2) / (
            r * math.sqrt(2 * math.pi))
    kinks = sorted(x - b for b in base.breakpoints()
                   if abs(x - b) < 10 * r)
    val, err = integrate.quad(integrand, -10 * r, 10 * r,
                              points=kinks or None, limit=300,
                              epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    return val


# -- smoothed pdf ----------------------------------------------------------


def test_gaussian_smoothing_closed_forms():
    mu, sigma, r = 0.7, 1.3, 0.8
    m = SmoothedModel1d(Gaussian(mu, sigma), r)
    s2 = sigma**2 + r**2
    xs = np.linspace(mu - 6 * math.sqrt(s2), mu + 6 * math.sqrt(s2), 61)
    pdf_exact = np.exp(-0.5 * (xs - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)
    assert np.max(np.abs(smoothed_pdf_1d(m, xs) - pdf_exact)) < 1e-8
    assert np.max(np.abs(smoothed_score_1d(m, xs) + (xs - mu) / s2)) < 1e-8
    assert abs(fisher_1d(m) - 1.0 / s2) < 1e-6


def test_smoothed_pdf_laplace_against_quadrature():
    m = SmoothedModel1d(Laplace(0, 1), 0.5)
    for x in (0.0, 0.7, -2.3):
        oracle = convolve_oracle(Laplace(0, 1), 0.5, x)
        assert abs(smoothed_pdf_1d(m, x) - oracle) < 1e-8 * max(1.0, oracle)


def test_smoothed_pdf_symmetry_around_shift():
    lam = 2.0
    for base in (Gaussian(lam, 1), Laplace(lam, 1)):
        m = SmoothedModel1d(base, 0.7)
        for t in (0.3, 1.1, 2.6):
            a, b = smoothed_pdf_1d(m, lam + t), smoothed_pdf_1d(m, lam - t)
            assert abs(a - b) <= 1e-9 * a


@pytest.mark.parametrize("base,r", [(Laplace(0, 1), 0.5), (SAW, 0.2), (MIX, 1.0)])
def test_smoothed_pdf_normalized(base, r):
    m = SmoothedModel1d(base, r)
    lo, hi, sig = base.quadrature_extent()
    grid = np.linspace(lo - 10 * sig - 10 * r, hi + 10 * sig + 10 * r, 20001)
    total = integrate.simpson(smoothed_pdf_1d(m, grid), x=grid)
    assert abs(total - 1.0) < 1e-5


# -- smoothed score --------------------------------------------------------


def test_score_gaussian_closed_form():
    m = SmoothedModel1d(Gaussian(0, 1), 1.0)
    assert abs(smoothed_score_1d(m, 1.0) - (-0.5)) < 1e-9


def test_score_laplace_symmetry_point():
    m = SmoothedModel1d(Laplace(0, 1), 0.5)
    assert abs(smoothed_score_1d(m, 0.0)) < 1e-10


def test_score_laplace_matches_log_density_slope():
    # oracle: central difference of log f_r from direct quadrature
    base, r, x, h = Laplace(0, 1), 0.5, 1.0, 1e-5
    lo = math.log(convolve_oracle(base, r, x - h))
    hi = math.log(convolve_oracle(base, r, x + h))
    m = SmoothedModel1d(base, r)
    assert abs(smoothed_score_1d(m, x) - (hi - lo) / (2 * h)) < 1e-6


@pytest.mark.parametrize("base", [Gaussian(0, 1), Laplace(0, 1), MIX, SAW],
                         ids=lambda b: type(b).__name__)
def test_score_zero_mean(base):
    for r in (0.1, 0.5, 1.0, 2.0):
        m = SmoothedModel1d(base, r)
        assert abs(expected_shifted_score(m, 0.0)) < 1e-6


def test_score_batch_matches_pointwise():
    # large batches ride a dense interpolation table; must agree with
    # the direct quadrature path used for small inputs
    cases = [(Laplace(0, 1), 0.3), (MIX, 0.5), (SAW, 0.2)]
    xs = np.linspace(-6.0, 6.0, 6000)
    for base, r in cases:
        m = SmoothedModel1d(base, r)
        batch = smoothed_score_1d(m, xs)
        direct = np.concatenate(
            [smoothed_score_1d(m, xs[i:i + 1000]) for i in range(0, 6000, 1000)]
        )
        assert np.max(np.abs(batch - direct)) < 5e-9
    m = SmoothedModel1d(Gaussian(0, 1), 1.0)
    batch = smoothed_score_1d(m, xs)
    assert np.max(np.abs(batch + xs / 2.0)) < 1e-9


def oracle_score(base, r, x):
    return -convolve_oracle(base, r, x, moment=1) / (
        r * r * convolve_oracle(base, r, x))


@pytest.mark.parametrize("base,r,xs", [
    # dense kinks: a laddered quadrature once stopped here on two rungs
    # of the same rule, off by up to 0.69
    (GaussianSawtooth(0.01, 20.0), 0.01, np.linspace(-1.1, 1.1, 45)),
    (GaussianSawtooth(0.02, 10.0), 0.05, np.linspace(-1.3, 1.3, 53)),
    # batch of 4096 points: a spline table once served these to 3e-6
    (SAW, 0.01, np.linspace(-1.2, 1.2, 4096)),
], ids=["w0.01", "w0.02", "batch"])
def test_sawtooth_score_against_quad_oracle(base, r, xs):
    got = smoothed_score_1d(SmoothedModel1d(base, r), xs)
    idx = np.arange(0, xs.size, max(1, xs.size // 64))
    want = np.array([oracle_score(base, r, xs[i]) for i in idx])
    assert np.max(np.abs(got[idx] - want)) < 1e-8


def hermite_ripple(grid, curvature, u):
    """(R, R') by the cubic Hermite basis on the grid nodes, u inside."""
    # node values are the cells' constant terms, exact as tabulated
    value, slope = grid.ripple[0], grid.ripple_slope[0]
    s = (u - grid.lo) / grid.h
    i = np.minimum(s.astype(np.intp), value.size - 2)
    f = s - i
    g = 1.0 - f
    h00 = (1.0 + 2.0 * f) * g * g
    h01 = 1.0 - h00
    h10 = grid.h * f * g * g
    h11 = -grid.h * f * f * g
    j = i + 1
    ripple = (h00 * value[i] + h01 * value[j]
              + h10 * slope[i] + h11 * slope[j])
    ripple_slope = (h00 * slope[i] + h01 * slope[j]
                    + h10 * curvature[i] + h11 * curvature[j])
    return ripple, ripple_slope


@pytest.mark.parametrize("base,r", [(SAW, 0.137), (SAW, 0.01),
                                    (GaussianSawtooth(0.01, 20.0), 0.02)])
def test_ripple_lookup_matches_hermite_basis(base, r):
    from smoothloc.models import _ripple_grid

    grid = _ripple_grid(base.w, base.slope, r)
    count = grid.ripple.shape[1]
    assert np.array_equal(grid.ripple[1, :-1],
                          grid.h * grid.ripple_slope[0, :-1])
    # R'' at the nodes in closed form: sum_j D_j phi((u - b_j)/r) / r
    nodes = grid.lo + grid.h * np.arange(count)
    jumps = np.diff(base._segment_slopes(), prepend=0.0, append=0.0)
    t = (nodes[:, None] - np.asarray(base.breakpoints())) / r
    curvature = (jumps * np.exp(-0.5 * t * t)).sum(axis=1)
    curvature /= r * math.sqrt(2.0 * math.pi)
    curvature[[0, -1]] = 0.0
    # three random points in every cell, the nodes, and both ends
    cells = np.arange(count - 1)[:, None]
    frac = RngSeed(3).generator().random((count - 1, 3))
    inside = np.concatenate([
        (grid.lo + grid.h * (cells + frac)).ravel(), nodes,
        [grid.lo, nodes[-1], np.nextafter(nodes[-1], -np.inf)],
    ])
    got_r, got_s = grid.lookup(inside)
    want_r, want_s = hermite_ripple(grid, curvature, inside)
    ulp = np.finfo(float).eps
    assert np.max(np.abs(got_r - want_r)) <= 4 * ulp * np.max(np.abs(want_r))
    assert np.max(np.abs(got_s - want_s)) <= 4 * ulp * np.max(np.abs(want_s))
    outside = np.array([grid.lo - grid.h, grid.lo - 1.0, nodes[-1] + grid.h,
                        nodes[-1] + 1.0, -1e300, 1e300, -np.inf, np.inf,
                        np.nan])
    for got in grid.lookup(outside):
        assert np.array_equal(got, np.zeros(outside.size))


# The allocating sawtooth kernel that the in-place one replaced, kept as the
# reference for its bits: a fresh array per gather and per operation.
def _reference_gaussian_smoothed(base, u, r):
    var = base.sigma**2 + r * r
    d = np.asarray(u, dtype=float) - base.mu
    return -0.5 * d * d / var - 0.5 * math.log(2.0 * math.pi * var), -d / var


def _reference_horner(coef, i, f):
    out = coef[3][i]
    for k in (2, 1, 0):
        out *= f
        out += coef[k][i]
    return out


def _reference_lookup(grid, u):
    f = u - grid.lo
    f /= grid.h
    np.fmax(f, 0.0, out=f)
    np.fmin(f, grid.ripple.shape[1] - 1, out=f)
    i = f.astype(np.intp)
    f -= i
    return (_reference_horner(grid.ripple, i, f),
            _reference_horner(grid.ripple_slope, i, f))


def _reference_sawtooth_smoothed(base, u, r):
    from smoothloc.models import _LOOKUP_BLOCK, _ripple_grid

    shape = np.shape(u)
    u = np.asarray(u, dtype=float).ravel()
    log_pdf, score = _reference_gaussian_smoothed(Gaussian(0.0, 1.0), u, r)
    if base.slope == 0.0:
        return log_pdf.reshape(shape), score.reshape(shape)
    grid = _ripple_grid(base.w, base.slope, float(r))
    for start in range(0, u.size, _LOOKUP_BLOCK):
        sl = slice(start, start + _LOOKUP_BLOCK)
        ripple, ripple_slope = _reference_lookup(grid, u[sl])
        inv_gauss = np.exp(-np.maximum(log_pdf[sl], -700.0))
        ripple *= inv_gauss
        ripple_slope *= inv_gauss
        score[sl] = (score[sl] + ripple_slope) / (1.0 + ripple)
        log_pdf[sl] += np.log1p(ripple)
    return log_pdf.reshape(shape), score.reshape(shape)


def _same_bits(got, want):
    # values, signs of zero, shape and scalar-or-array type
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _kernel_points(base, r):
    # before and after the grid, its nodes and both sides of each cell
    # edge, the kinks, +-0, |u| = 1e6 and 1e300 (where N underflows and the
    # -700 cap acts), and noisy draws; 2^15 + 17 points in all
    from smoothloc.models import _ripple_grid

    # slope 0 has no grid; the nodes of slope 4's serve as its points
    grid = _ripple_grid(base.w, base.slope or 4.0, r)
    nodes = grid.lo + grid.h * np.arange(0, grid.ripple.shape[1], 97)
    kinks = np.asarray(base.breakpoints())
    fixed = np.concatenate([
        [grid.lo - 1.0, grid.lo - grid.h, grid.lo, nodes[-1] + grid.h, 8.0],
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf),
        [0.0, -0.0, 1e6, -1e6, 1e300, -1e300],
    ])
    noisy = base.sample((1 << 15) + 17 - fixed.size, RngSeed(31))
    noisy += r * RngSeed(32).generator().standard_normal(noisy.size)
    return np.concatenate([fixed, noisy])


@pytest.mark.parametrize("base,r", [(SAW, 0.137), (SAW, 0.01),
                                    (GaussianSawtooth(0.01, 20.0), 0.02),
                                    (GaussianSawtooth(0.05, 0.0), 0.137)],
                         ids=["saw-0.137", "saw-0.01", "w0.01", "slope0"])
def test_sawtooth_kernel_matches_allocating_reference(base, r):
    from smoothloc.models import _ripple_grid

    u = _kernel_points(base, r)
    assert u.size == (1 << 15) + 17
    with np.errstate(over="ignore"):
        if base.slope:
            grid = _ripple_grid(base.w, base.slope, r)
            for got, want in zip(grid.lookup(u), _reference_lookup(grid, u)):
                _same_bits(got, want)
        for shaped in (u, u[:15000].reshape(3, 5000), u[7], u[-1],
                       np.array(u[3]), -0.0, 1e300, 1e6):
            for got, want in zip(base._smoothed(shaped, r),
                                 _reference_sawtooth_smoothed(base, shaped, r)):
                _same_bits(got, want)
            gauss = Gaussian(0.7, 2.0)
            for got, want in zip(gauss._smoothed(shaped, r),
                                 _reference_gaussian_smoothed(gauss, shaped, r)):
                _same_bits(got, want)


def test_fisher_laplace_small_radius_against_normal_laplace():
    # Laplace(0,1) * N(0, r^2) written out (Reed & Jorgensen 2004); a
    # uniform Simpson grid once missed the r-wide bend at the kink by 2e-4
    r = 1e-3

    def integrand(x):
        a = x + special.log_ndtr(-x / r - r)
        c = -x + special.log_ndtr(x / r - r)
        pdf = 0.5 * math.exp(0.5 * r * r + np.logaddexp(a, c))
        return pdf * math.tanh(0.5 * (a - c)) ** 2

    near, _ = integrate.quad(integrand, 0.0, 40 * r, epsabs=0.0, epsrel=1e-13,
                             limit=200)
    far, _ = integrate.quad(integrand, 40 * r, np.inf, epsabs=0.0,
                            epsrel=1e-13, limit=200)
    want = 2.0 * (near + far)  # the integrand is even
    got = fisher_1d(SmoothedModel1d(Laplace(0, 1), r))
    assert abs(got / want - 1.0) < 1e-7


def mp_normal_laplace(mp, u, mu, r, b):
    """(log f_r, s_r) of Laplace(mu, b) * N(0, r^2) at u, to 60 digits.

    f_r = e^{k^2/2}/(2b) [e^{t/b} Phi(-t/r - k) + e^{-t/b} Phi(t/r - k)]
    with t = u - mu and k = r/b; in f_r' the Gaussian terms cancel,
    leaving 1/b times the difference of the two bracketed terms.
    """
    with mp.workdps(60):
        t, r, b = mp.mpf(u) - mp.mpf(mu), mp.mpf(r), mp.mpf(b)
        k = r / b
        left = mp.exp(t / b) * mp.ncdf(-t / r - k)
        right = mp.exp(-t / b) * mp.ncdf(t / r - k)
        log_pdf = k * k / 2 - mp.log(2 * b) + mp.log(left + right)
        return float(log_pdf), float((left - right) / ((left + right) * b))


@pytest.mark.parametrize("k", [1e-4, 0.01, 0.25, 1.0, 10.0, 37.0, 100.0, 1e3])
@pytest.mark.parametrize("b,mu", [(1.0, 0.0), (1.0, 0.7), (2.0, 0.0), (2.0, 0.7)])
def test_laplace_smoothed_against_mpmath(b, mu, k):
    mp = pytest.importorskip("mpmath")
    r = k * b
    ts = [0.0, 1e-8, -1e-8, r * r / b, -r * r / b, 0.3, -1.0, 5.0, -30.0, 700.0, -1e6]
    u = mu + np.array(ts)
    log_pdf, score = Laplace(mu, b)._smoothed(u, r)
    for ui, got_log, got_score in zip(u, log_pdf, score):
        want_log, want_score = mp_normal_laplace(mp, ui, mu, r, b)
        assert abs(got_log - want_log) <= 1e-13 * max(1.0, abs(want_log)), ui
        assert abs(got_score - want_score) * b <= 1e-13, ui


# At r/b = k >> 1 the score is about 1/(k b), so the absolute tolerance
# above says little there; this checks its relative error.  Past k = 1e3
# the difference of the two erfcx terms loses about 1e-16 k of it (1e-4 at
# k = 1e6, all of it at 1e8), and _smoothed refuses such radii.
@pytest.mark.parametrize("b,mu", [(1.0, 0.0), (2.0, 0.7), (1e-100, 0.0)])
def test_laplace_score_relative_error_at_the_radius_ceiling(b, mu):
    mp = pytest.importorskip("mpmath")
    r = 1e3 * b
    ts = [r, -r, 3 * r, -3 * r, 30 * r, -30 * r]
    _, score = Laplace(mu, b)._smoothed(mu + np.array(ts), r)
    for t, got in zip(ts, score):
        _, want = mp_normal_laplace(mp, mu + t, mu, r, b)
        assert abs(got - want) <= 1e-9 * abs(want), t


@pytest.mark.parametrize("b,r", [(1.0, 1000.0000001), (1e-100, 1e-3),
                                 (2.0, math.inf), (1.0, math.nan)])
def test_laplace_smoothed_refuses_radii_past_the_ceiling(b, r):
    with pytest.raises(PreconditionError, match="r/b = "):
        Laplace(0.0, b)._smoothed(np.array([0.0, 1.0]), r)


def test_laplace_smoothed_keeps_shape():
    base, r = Laplace(0.7, 2.0), 0.5
    u = base.sample(3 * 5000, RngSeed(4)) + 0.1
    log_pdf, score = base._smoothed(u, r)
    # the stack, the 1-d call and each scalar call give every value bit
    # for bit
    grid_log, grid_score = base._smoothed(u.reshape(3, 5000), r)
    assert grid_log.shape == grid_score.shape == (3, 5000)
    assert np.array_equal(grid_log.ravel(), log_pdf)
    assert np.array_equal(grid_score.ravel(), score)
    for i in (0, 4999, 14999):
        one_log, one_score = base._smoothed(u[i], r)
        assert np.shape(one_log) == np.shape(one_score) == ()
        assert one_log == log_pdf[i] and one_score == score[i]


def laplace_plus_noise(base, r, n, seed):
    # the points a local step scores: base draws plus N(0, r^2) noise
    noise = np.random.default_rng(seed).standard_normal(n)
    return base.sample(n, RngSeed(seed)) + r * noise


# sha256 of log_pdf.tobytes() + score.tobytes() per k, over both (b, mu)
LAPLACE_SMOOTHED_DIGESTS = {
    1e-4: "5150f6d0022c38d57904cf00ab075b360ba887f946e0e5aec52903e9baafb1bc",
    0.25: "f39cda78bea0f3340605811f2e10e7ea35cbb3eb9fdda98dd6d15d122665a679",
    1.0: "d362922780e613fb7e36ad073136643620a01a9fd004f80ec30a907753c3fe85",
    36.0: "b31fbddbe9bf1ee6754df76680462214bd38b9a8993b677a8f806907baf65e6b",
    37.0: "8741761e0a25dc37f96565b91682a9ed346834f6e1db695c76307d2507bb4755",
    100.0: "dbd144fd8e86d3124e6cf8c455dc5a83137d89a6250306a6eac3ab8a67d73ac6",
    1e3: "9357b045575848077cef7317cd002eafd9a1b15b6c3a70d465c50ae311220894",
}


@pytest.mark.parametrize("k", list(LAPLACE_SMOOTHED_DIGESTS))
def test_laplace_smoothed_bits_are_frozen(k):
    # every value and every sign of zero, across the z = k + 40 cap and the
    # deep branch (k > 36.8), on fixed points and 10^5 noisy draws
    h = hashlib.sha256()
    for b, mu in ((1.0, 0.0), (2.0, 0.7)):
        r = k * b
        ts = [0.0, -0.0, 1e-8, r * r / b, 0.3, 5.0, 30.0, 700.0, 1e6, 1e308]
        fixed = mu + np.array(ts + [-t for t in ts])
        base = Laplace(mu, b)
        u = np.concatenate([fixed, laplace_plus_noise(base, r, 10**5, 12)])
        log_pdf, score = base._smoothed(u, r)
        h.update(log_pdf.tobytes() + score.tobytes())
    assert h.hexdigest() == LAPLACE_SMOOTHED_DIGESTS[k]


@pytest.mark.parametrize("k,slices", [(0.25, 5.5), (100.0, 8.5)])
def test_laplace_smoothed_holds_five_slices(k, slices):
    # t (then its sign and the score), log_scale (then log_pdf), z, x1 and
    # x2 are the call's five arrays; at k = 100 every point is in the deep
    # branch, whose mask and masked temporaries add about two more
    base = Laplace(0.0, 1.0)
    u = laplace_plus_noise(base, k, 1 << 15, 5)
    base._smoothed(u, k)  # load scipy.special
    tracemalloc.start()
    try:
        base._smoothed(u, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= slices * u.nbytes


def test_sawtooth_smoothed_holds_seven_slices():
    # log_pdf and score, and the lookup's fraction, cell index, R, R' and
    # gather buffer; after the lookup, one buffer for 1/N and then 1 + R.
    # The allocating kernel also peaked at seven, so this guards the count
    # and does not claim a fall
    r = 0.137
    u = SAW.sample(1 << 15, RngSeed(5))
    u += r * RngSeed(6).generator().standard_normal(u.size)
    SAW._smoothed(u, r)  # build the ripple grid
    tracemalloc.start()
    try:
        SAW._smoothed(u, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * u.nbytes


_LAP4 = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), 0.5)


@pytest.mark.parametrize("run", [
    lambda n: score_moment_check(_LAP4, np.array([1.0, 0.0, 0.0, 0.0]), 4, n,
                                 RngSeed(9)),
    lambda n: score_vector_generator(_LAP4, [0.1, 0.0, -0.05, 0.2]).draw(
        n, RngSeed(21)),
], ids=["score_moment_check", "score_vector_draw"])
def test_score_diagnostics_hold_their_sample_and_slices(run):
    # the sample, perturbed and scored in place slice by slice, plus a few
    # (n,) arrays; a whole perturbed copy and its scores would be 3 samples
    n = 10**5
    sample_bytes = n * _LAP4.dim * 8
    run(10**4)  # fill the Fisher caches
    tracemalloc.start()
    try:
        run(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sample_bytes


@pytest.mark.parametrize("r", [1e-4, 0.25])
@pytest.mark.parametrize("b", [1.0, 2.0])
def test_laplace_smoothed_far_points_finite_without_warnings(b, r):
    base = Laplace(0, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_pdf, score = base._smoothed(np.array([1e308, -1e308]), r)
        assert np.all(np.isfinite(log_pdf))
        assert score.tolist() == [-1.0 / b, 1.0 / b]
        m = SmoothedModel1d(base, r)
        assert smoothed_pdf_1d(m, 1e308) == 0.0
        with pytest.raises(TailUnderflowError):
            smoothed_score_1d(m, -1e308)


def test_score_tail_underflow():
    m = SmoothedModel1d(Laplace(0, 1), 0.1)
    with pytest.raises(TailUnderflowError) as exc:
        smoothed_score_1d(m, 900.0)
    assert exc.value.x == 900.0 and exc.value.r == 0.1
    assert smoothed_pdf_1d(m, 900.0) == 0.0  # pdf clamps, score refuses


def _hd_points(x):
    x = np.asarray(x, dtype=float)
    return np.stack([np.zeros_like(x), x], axis=-1)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               [0.5, math.nan, 1.0]],
                         ids=["nan", "inf", "-inf", "array-with-nan"])
@pytest.mark.parametrize("score", [
    lambda x: smoothed_score_1d(SmoothedModel1d(Laplace(0, 1), 0.3), x),
    lambda x: smoothed_pdf_1d(SmoothedModel1d(Laplace(0, 1), 0.3), x),
    lambda x: smoothed_score_hd(
        SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 0.3),
        _hd_points(x)),
], ids=["score_1d", "pdf_1d", "score_hd"])
def test_non_finite_points_rejected(score, x):
    # a non-finite point is bad input, not a far tail: unchecked, the
    # scores would report an underflow at nan and the pdf a density of 0
    with pytest.raises(PreconditionError, match="must be finite"):
        score(x)


# -- fisher information ----------------------------------------------------


def test_panel_rule_nodes_are_roots_legendre():
    # the rule is a table of constants; scipy must still give those bits
    nodes, weights = smoothing._gauss_legendre()
    want_nodes, want_weights = special.roots_legendre(20)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)


def test_frozen_panel_rule_is_the_20_point_gauss_legendre_rule():
    # without scipy: 20 nodes inside (-1, 1) and weights that integrate
    # x^k exactly for k <= 39.  The moments are summed in exact rational
    # arithmetic on the stored doubles, so the only error is the rule's
    # own.  Its values solve an order-n problem whose matrix (the Jacobi
    # matrix of P_20) has norm < 1, so in float64 each node and weight
    # errs by at most n * eps, and to first order a moment by at most
    # n * eps * sum(|x|^k + k * w * |x|^(k-1)).
    nodes, weights = smoothing._gauss_legendre()
    n, eps = 20, np.finfo(float).eps
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    x, w = [Fraction(v) for v in nodes], [Fraction(v) for v in weights]
    ax = np.abs(nodes)
    for k in range(2 * n):
        moment = sum(wi * xi**k for wi, xi in zip(w, x))
        if k % 2:
            assert moment == 0, k  # the exact symmetry cancels it exactly
        else:
            # k = 0 is sum(w) = 2
            tol = n * eps * np.sum(ax**k + k * weights * ax ** max(k - 1, 0))
            assert abs(float(moment - Fraction(2, k + 1))) <= tol, k


def test_fisher_gaussian_closed_form():
    assert abs(fisher_1d(SmoothedModel1d(Gaussian(0, 1), 0.5)) - 0.8) < 1e-6


def test_fisher_laplace_sandwich_and_monotone():
    i_05 = fisher_1d(SmoothedModel1d(Laplace(0, 1), 0.5))
    assert 1.0 / 2.25 - 1e-6 <= i_05 <= 4.0 + 1e-6
    assert fisher_1d(SmoothedModel1d(Laplace(0, 1), 0.1)) > fisher_1d(
        SmoothedModel1d(Laplace(0, 1), 1.0))


@pytest.mark.parametrize("base", [Gaussian(0, 1), Laplace(0, 1), MIX, SAW],
                         ids=lambda b: type(b).__name__)
def test_fisher_monotone_in_r(base):
    vals = [fisher_1d(SmoothedModel1d(base, r))
            for r in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) <= 1e-12)


def test_fisher_monte_carlo_cross_check():
    base, r, n = Laplace(0, 1), 0.5, 200_000
    m = SmoothedModel1d(base, r)
    seed = RngSeed(314)
    x = base.sample(n, seed.derive(1))
    noise = seed.derive(2).generator().standard_normal(n)
    sq = smoothed_score_1d(m, x + r * noise) ** 2
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - fisher_1d(m)) < 4 * se


# -- high-dimensional paths --------------------------------------------------


def test_fisher_hd_product_gaussian():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^8)"), 1.0)
    f = fisher_hd(m)
    assert np.max(np.abs(f.matrix - 0.5 * np.eye(8))) < 1e-9


def test_fisher_hd_matches_coordinates():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), 0.5)
    f = fisher_hd(m)
    i1 = fisher_1d(SmoothedModel1d(Laplace(0, 1), 0.5))
    assert np.allclose(np.diag(f.matrix), i1, atol=1e-12)
    assert np.allclose(f.matrix, np.diag(np.diag(f.matrix)))


def monte_carlo_fisher_hd(m, n, seed):
    """E[s_R s_R^T] over n draws of f_R, and the largest relative standard
    error of its diagonal."""
    y = m.base.sample(n, seed.derive(1))
    noise = seed.derive(2).generator().standard_normal(y.shape)
    scores = smoothed_score_hd(m, y + m.r * noise)
    mat = scores.T @ scores / n
    se = np.std(scores[:, :, None] * scores[:, None, :], axis=0) / math.sqrt(n)
    return mat, float(np.max(np.diag(se) / np.diag(mat)))


def test_fisher_hd_monte_carlo_path():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^3)"), 0.5)
    exact = fisher_hd(m)
    mc, relative_se = monte_carlo_fisher_hd(m, 40_000, RngSeed(99))
    tol = 4 * relative_se * np.max(np.diag(exact.matrix)) + 4e-3
    assert np.max(np.abs(mc - exact.matrix)) < tol


def test_score_hd_gaussian_closed_form():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^8)"), 1.0)
    s = smoothed_score_hd(m, np.ones(8))
    assert np.max(np.abs(s + 0.5)) < 1e-9
    assert np.max(np.abs(smoothed_score_hd(m, np.zeros(8)))) < 1e-10


def test_score_hd_importance_sampling_oracle():
    r, n = 0.5, 2_000_000
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), r)
    x = np.array([1.0, 0.0, -1.0, 2.0])
    s = smoothed_score_hd(m, x)
    gen = RngSeed(2718).generator()
    base = Laplace(0, 1)
    for j in range(4):
        z = r * gen.standard_normal(n)
        w = base.pdf(x[j] - z)
        ratio = np.sum(w * z) / np.sum(w)
        est = -ratio / r**2
        resid = z * w - ratio * w
        se = (np.std(resid, ddof=1) * math.sqrt(n) / np.sum(w)) / r**2
        assert abs(s[j] - est) < 3 * se


def test_score_hd_coords_scores_each_listed_coordinate_once():
    # scores are written over their points, so a coordinate listed twice
    # must not be scored again from its own score
    base = parse_model("product(laplace(0,1),gaussian(0,2),laplace(1,1))")
    m = SmoothedModelHd(base, 0.5)
    x = np.array([[0.3, -1.0, 2.0], [1.5, 0.2, -0.7]])
    want = smoothed_score_hd(m, x)
    want[:, 1] = 0.0
    assert np.array_equal(smoothed_score_hd(m, x, coords=(2, 0, 2)), want)


# A negative index aliased a listed coordinate: coords=[3, -1] scored
# column 3 twice, returning s(s(x)).  Out-of-range and float entries raised
# a bare IndexError.
@pytest.mark.parametrize("coords,bad", [([3, -1], "[-1]"), ([4], "[4]"),
                                        ([-5], "[-5]"), ([1.0], "[1.0]")])
def test_score_hd_coords_must_be_indices(coords, bad):
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^4)"), 0.5)
    x = np.array([[0.1, -0.4, 0.9, 1.2]])
    with pytest.raises(PreconditionError) as exc:
        smoothed_score_hd(m, x, coords=coords)
    assert str(exc.value) == f"coords must be integers in [0, 4), got {bad}"


# -- diagnostics -------------------------------------------------------------


def test_inversion_bias_gaussian_zero():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), 1.0)
    chk = check_score_inversion_bias(m, np.array([0.3, 0.1]))
    assert chk.bias_norm < 1e-8
    assert check_score_inversion_bias(m, np.zeros(2)).bias_norm == 0.0


def test_inversion_bias_laplace_under_ceiling():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 1.0)
    scales = (0.05, 0.1, 0.2)
    norms, biases = [], []
    for s in scales:
        chk = check_score_inversion_bias(m, np.array([s, 0.0]))
        assert chk.bias_norm <= chk.predicted_ceiling
        norms.append(s)
        biases.append(chk.bias_norm)
    slope = np.polyfit(np.log(norms), np.log(biases), 1)[0]
    # symmetric base kills the quadratic term, so decay is at least
    # quadratic (here cubic); the ceiling above is the actual contract
    assert slope >= 2.0


def test_inversion_bias_quadratic_on_asymmetric_base():
    # skewed base: the quadratic term survives and sets the decay rate,
    # unlike symmetric bases where it cancels and the decay is cubic
    m = SmoothedModelHd(parse_model(
        "product(mixture(0.8*gaussian(0,0.3)+0.2*gaussian(2,0.6))^2)"), 1.0)
    scales = (0.05, 0.1, 0.2)
    biases = [check_score_inversion_bias(m, np.array([s, 0.0])).bias_norm
              for s in scales]
    slope = np.polyfit(np.log(scales), np.log(biases), 1)[0]
    assert 1.8 <= slope <= 2.3


def test_inversion_bias_precondition():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), 1.0)
    with pytest.raises(PreconditionError):
        check_score_inversion_bias(m, np.array([0.6, 0.6]))


def test_taylor_check():
    g = SmoothedModel1d(Gaussian(0, 1), 1.0)
    assert abs(expected_score_taylor_check(g, 0.3).residual) < 1e-8
    lap = SmoothedModel1d(Laplace(0, 1), 1.0)
    assert abs(expected_score_taylor_check(lap, 0.0).lhs) < 1e-10
    i_r = fisher_1d(lap)
    for eps in (0.05, 0.1, 0.2):
        chk = expected_score_taylor_check(lap, eps)
        assert abs(chk.residual) / (math.sqrt(i_r) * eps**2) <= 10.0
    with pytest.raises(PreconditionError):
        expected_score_taylor_check(lap, 0.6)


_LAP2 = SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", [
    lambda e: check_score_inversion_bias(_LAP2, [e, 0.1]),
    lambda e: expected_score_taylor_check(SmoothedModel1d(Laplace(0, 1), 1.0), e),
    lambda e: score_vector_generator(_LAP2, [e, 0.0]),
], ids=["check_score_inversion_bias", "expected_score_taylor_check",
        "score_vector_generator"])
def test_non_finite_offsets_are_rejected_by_name(check, bad):
    # a NaN offset once passed the `> bound` guards: the first two
    # returned NaN, and the generator failed later on "Sigma must be finite"
    with pytest.raises(PreconditionError, match=r"requires .*, got eps = "):
        check(bad)


@pytest.mark.parametrize("check", [check_score_inversion_bias,
                                   score_vector_generator])
@pytest.mark.parametrize("eps", [[0.1, 0.1, 0.1], [[0.1, 0.1]], []])
def test_offsets_of_the_wrong_shape_are_rejected_by_name(check, eps):
    # three offsets on a 2-d model came out as numpy's broadcast ValueError
    with pytest.raises(PreconditionError, match=r"^eps must be a scalar or 2 offsets"):
        check(_LAP2, eps)


def test_score_moments_gaussian():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), 1.0)
    chk = score_moment_check(m, np.array([1.0, 0.0]), 4, 100_000, RngSeed(5))
    assert chk.ceiling == pytest.approx(1.6**2 * 16 * 0.5, rel=1e-9)
    assert chk.moment_abs == pytest.approx(0.75, abs=5 * chk.se_abs)
    assert chk.moment_abs <= chk.ceiling
    chk3 = score_moment_check(m, np.array([1.0, 0.0]), 3, 100_000, RngSeed(6))
    assert abs(chk3.moment_signed) <= 3 * chk3.se_signed


def test_score_moments_laplace():
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 0.5)
    chk = score_moment_check(m, np.array([1.0, 0.0]), 4, 100_000, RngSeed(7))
    assert chk.moment_abs <= chk.ceiling + 3 * chk.se_abs


def test_score_moments_preconditions():
    m = SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), 1.0)
    v = np.array([1.0, 0.0])
    with pytest.raises(PreconditionError):
        score_moment_check(m, 2 * v, 4, 100_000, RngSeed(1))
    with pytest.raises(PreconditionError):
        score_moment_check(m, v, 9, 100_000, RngSeed(1))
    with pytest.raises(PreconditionError):
        score_moment_check(m, v, 4, 5000, RngSeed(1))


# a NaN direction returned an all-NaN MomentCheck (its norm passed the unit
# test), k = 3.7 ran k = 3 and n_mc = 20000.5 ran
@pytest.mark.parametrize("v,k,n_mc,msg", [
    ([math.nan, 0.0], 4, 10**4, "v must be finite, got [nan, 0.0]"),
    ([math.nan, math.nan], 4, 10**4, "v must be finite, got [nan, nan]"),
    ([math.inf, 0.0], 4, 10**4, "v must be finite, got [inf, 0.0]"),
    ([1.0, 0.0], 3.7, 10**4, "k must be an integer in 3..8, got 3.7"),
    ([1.0, 0.0], math.nan, 10**4, "k must be an integer in 3..8, got nan"),
    ([1.0, 0.0], 4, 20000.5, "n_mc must be an integer >= 10000, got 20000.5"),
    ([1.0, 0.0], 4, math.inf, "n_mc must be an integer >= 10000, got inf"),
    ([1.0, 0.0], 4, math.nan, "n_mc must be an integer >= 10000, got nan"),
])
def test_score_moment_check_rejects_bad_inputs_by_name(v, k, n_mc, msg):
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^2)"), 0.5)
    with pytest.raises(PreconditionError, match=f"^{re.escape(msg)}$"):
        score_moment_check(m, np.array(v), k, n_mc, RngSeed(1))


# float.hex of score_moment_check's MomentCheck fields on _LAP4 (n_mc =
# 10^5, seed 9) per (k, v), and the sha256 of a 10^5-row score-vector draw
# (seed 21), which spans several scoring slices
MOMENT_CHECK_BITS = {
    (3, "e1"): ("0x1.0e070a685e322p-4", "0x1.39320eaed79c9p+0",
                "0x1.4c5d8956742ffp-13", "-0x1.427c99ee2b157p-12",
                "0x1.1297f0ef96a11p-12"),
    (4, "(e1+e2)/sqrt2"): ("0x1.84815e2825ae7p-5", "0x1.81c1c1775a3dcp+2",
                           "0x1.ebb2ece2aba6fp-13", "0x1.84815e2825ae7p-5",
                           "0x1.ebb2ece2aba6fp-13"),
}
SCORE_VECTOR_DIGEST = (
    "93dbc59c2c8250d9e9f35f44329645003606880bc32f7fac67883b56be1010dc")


def test_score_diagnostics_bits_are_frozen(monkeypatch):
    vs = {"e1": np.array([1.0, 0.0, 0.0, 0.0]),
          "(e1+e2)/sqrt2": np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)}
    for (k, name), want in MOMENT_CHECK_BITS.items():
        chk = score_moment_check(_LAP4, vs[name], k, 100_000, RngSeed(9))
        got = (chk.moment_abs, chk.ceiling, chk.se_abs, chk.moment_signed,
               chk.se_signed)
        assert tuple(float(f).hex() for f in got) == want
    gen = score_vector_generator(_LAP4, [0.1, 0.0, -0.05, 0.2])
    for block in (None, 1000):
        if block is not None:
            monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", block)
        x = gen.draw(100_000, RngSeed(21))
        assert hashlib.sha256(x.tobytes()).hexdigest() == SCORE_VECTOR_DIGEST


def test_score_diagnostics_underflow_as_smoothed_score_hd(monkeypatch):
    # with the underflow floor raised to log f_r = -3, ordinary draws
    # underflow; each diagnostic reports the point that smoothed_score_hd
    # reports for its whole perturbed sample, in the same words
    monkeypatch.setattr("smoothloc.smoothing._LOG_UNDERFLOW", -3.0)
    m = SmoothedModelHd(parse_model("product(laplace(0,1)^3)"), 0.5)
    seed, eps = RngSeed(3), np.array([0.1, 0.0, 0.0])
    y = m.base.sample(10**5, seed.derive(1))
    pts = y + m.r * seed.derive(2).generator().standard_normal(y.shape)
    for run, x, coords in [
        (lambda: score_moment_check(m, np.array([0.0, 0.6, 0.8]), 4, 10**5, seed),
         pts, [1, 2]),
        (lambda: score_vector_generator(m, eps).draw(10**5, seed), pts + eps, None),
    ]:
        with pytest.raises(TailUnderflowError) as want:
            smoothed_score_hd(m, x, coords=coords)
        with pytest.raises(TailUnderflowError) as got:
            run()
        assert str(got.value) == str(want.value)


def test_smoothed_model_validation():
    with pytest.raises(PreconditionError):
        SmoothedModel1d(Gaussian(0, 1), 0.0)
    with pytest.raises(PreconditionError, match="ripple grid"):
        smoothed_score_1d(SmoothedModel1d(SAW, 1e-4), 0.0)


def test_infinite_radius_rejected():
    inf = float("inf")
    with pytest.raises(PreconditionError):
        SmoothedModel1d(Gaussian(0, 1), inf)
    with pytest.raises(PreconditionError):
        SmoothedModelHd(parse_model("product(gaussian(0,1)^2)"), inf)
    with pytest.raises(ConfigurationError):
        Config1d(delta=0.1, r_override=inf)
    with pytest.raises(ConfigurationError):
        ConfigHd(delta=0.1, r=inf)
    with pytest.raises(ConfigurationError, match="out of range"):
        parse_config("experiment = coverage-hd\nr = inf")
