"""Model families: densities, quantiles, sampling, and the spec grammar."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from smoothloc import (
    Gaussian,
    GaussianMixture,
    GaussianSawtooth,
    Laplace,
    ModelSpecError,
    PreconditionError,
    ProductDensity,
    RngSeed,
    format_model,
    parse_model,
)
from smoothloc import models
from smoothloc.models import _tri_wave

SAW = GaussianSawtooth(0.05, 4.0)
MIX = GaussianMixture((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))
FAMILIES = [Gaussian(0.0, 1.0), Laplace(0.0, 1.0), MIX, SAW]


def dense_integral(fn, lo, hi, panels=1 << 20):
    grid = np.linspace(lo, hi, panels + 1)
    return integrate.simpson(fn(grid), dx=(hi - lo) / panels)


# -- densities and closed forms -----------------------------------------


def test_pdf_closed_forms():
    assert abs(Gaussian(0, 1).pdf(0.0) - 1 / math.sqrt(2 * math.pi)) < 1e-12
    assert Laplace(0, 1).pdf(0.0) == 0.5


def test_sawtooth_pdf_normalized():
    total = dense_integral(SAW.pdf, -12.0, 12.0)
    assert abs(total - 1.0) < 1e-6


def test_sawtooth_ripple_integrates_to_zero():
    ripple = lambda x: SAW.pdf(x) - Gaussian(0, 1).pdf(x)
    assert abs(dense_integral(ripple, -1.0, 1.0)) < 1e-8
    # and vanishes outside the perturbed section
    assert ripple(np.array([-1.5, 1.5, 3.0])) == pytest.approx(0.0, abs=1e-15)


def test_pdf_nonnegative_everywhere():
    grid = np.linspace(-8, 8, 4001)
    for model in FAMILIES:
        assert np.all(model.pdf(grid) >= 0.0)


@given(lam=st.floats(-50, 50), x=st.floats(-60, 60))
@settings(max_examples=80, deadline=None)
def test_translation_equivariance_exact(lam, x):
    # a family's own location is an exact translation
    assert Gaussian(lam, 1.0).pdf(x) == Gaussian(0.0, 1.0).pdf(x - lam)
    assert Laplace(lam, 1.0).pdf(x) == Laplace(0.0, 1.0).pdf(x - lam)


def test_scalar_pdf_matches_array_pdf():
    # a scalar sawtooth pdf once dropped the ripple
    for model in FAMILIES:
        for x in (-0.975, 0.025, 0.3, 2.0):
            assert model.pdf(x) == model.pdf(np.array([x]))[0]


# -- quantiles -----------------------------------------------------------


def test_quantile_closed_forms():
    assert Gaussian(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert Laplace(0, 1).quantile(0.75) == pytest.approx(
        0.6931471806, abs=1e-9)


def test_sawtooth_quantile_against_cdf():
    q = SAW.quantile(0.25)
    assert abs(SAW.cdf(q) - 0.25) <= 1e-8


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_quantile_cdf_round_trip(model):
    for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        assert abs(model.cdf(model.quantile(p)) - p) <= 1e-8


def test_quantile_monotone():
    ps = np.linspace(0.02, 0.98, 49)
    for model in FAMILIES:
        qs = [model.quantile(p) for p in ps]
        assert np.all(np.diff(qs) >= 0)
        assert model.pdf(model.quantile(0.5)) > 0


@pytest.mark.parametrize("s", [1e-20, 1e-50, 1e-100])
def test_narrow_mixture_quantiles_are_the_gaussian_ones(s):
    # with an absolute 1e-10 tolerance the bisection of a bracket narrower
    # than that ended after one halving: at s = 1e-20 the upper quartile
    # read 7e-20, where 6.74e-21 is exact
    mix, exact = GaussianMixture((1.0,), (0.0,), (s,)), Gaussian(0.0, s)
    ps = np.array([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    assert np.max(np.abs(mix.quantile(ps) - exact.quantile(ps))) <= 1e-9 * s
    assert abs(mix.iqr() - exact.iqr()) <= 1e-9 * s


def test_quantile_domain_error():
    with pytest.raises(PreconditionError):
        Gaussian(0, 1).quantile(0.0)
    with pytest.raises(PreconditionError):
        Gaussian(0, 1).quantile(1.0)


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("p", [math.nan, [0.3, math.nan]], ids=["scalar", "array"])
def test_quantile_rejects_nan(model, p):
    # NaN once slipped past the range test: NaN from the closed forms,
    # a finite bracket end from the bisection
    with pytest.raises(PreconditionError, match="0 < p < 1"):
        model.quantile(p)


def test_iqr_values_and_shift_invariance():
    assert Gaussian(0, 1).iqr() == pytest.approx(1.3489795003, abs=1e-8)
    assert Laplace(0, 1).iqr() == pytest.approx(1.3862943611, abs=1e-9)
    for model in FAMILIES:
        assert model.iqr() > 0
    # moving a family's own location leaves its spread alone
    moved = GaussianMixture(MIX.weights, (3.25, 6.25), MIX.sigmas)
    for a, b in ((Gaussian(4.25, 1), Gaussian(0, 1)),
                 (Laplace(4.25, 1), Laplace(0, 1)), (moved, MIX)):
        assert a.iqr() == pytest.approx(b.iqr(), abs=1e-9)


# -- sampling ------------------------------------------------------------


def test_sampling_deterministic_given_seed():
    for model in FAMILIES:
        a = model.sample(1000, RngSeed(42, 3))
        b = model.sample(1000, RngSeed(42, 3))
        assert np.array_equal(a, b)
        c = model.sample(1000, RngSeed(42, 4))
        assert not np.array_equal(a, c)


def test_gaussian_sample_mean_clt():
    x = Gaussian(0, 1).sample(10**6, RngSeed(7))
    assert abs(x.mean()) < 0.005  # 3 sigma / sqrt(n) = 0.003


@pytest.mark.parametrize("model", FAMILIES, ids=lambda m: type(m).__name__)
def test_sampler_fidelity_ks(model):
    x = model.sample(10**5, RngSeed(123))
    res = stats.kstest(x, model.cdf)
    assert res.pvalue > 1e-3
    if isinstance(model, GaussianSawtooth):
        assert res.statistic < 0.01


# The sawtooth sampler draws n normals, removes points of the negative
# lobes by thinning and overwrites each removed point with a draw from the
# positive lobes, working in vectorised slices.  These pin its draws, bit
# for bit, to a plain loop over the points, and the generator's end state
# to where that loop leaves it.


def _reference_tri_wave(t):
    return np.abs(np.mod(t - 0.5, 2.0) - 1.0) - 0.5


def _reference_phi(u):
    return np.exp(-0.5 * np.square(u)) / math.sqrt(2.0 * math.pi)


def _reference_sawtooth_draw(model, gen, n):
    y = gen.standard_normal(n)
    ripple = model.w * model.slope * _reference_tri_wave(y / model.w)
    inside = np.abs(y) <= model.n_teeth * model.w
    phi = _reference_phi(y)
    # one coin per point of a negative lobe, in index order
    removed = []
    for i in range(n):
        if inside[i] and ripple[i] < 0.0 and gen.random() * phi[i] < -ripple[i]:
            removed.append(i)
    # then, per removed point, a positive lobe u/w in (2j, 2j + 1) and a
    # triangular variate in it
    first = -(model.n_teeth // 2)
    for i in removed:
        u0, u1, u2 = gen.random(3)
        j = first + math.floor(u0 * model.n_teeth)
        y[i] = model.w * (2 * j + 0.5 * (u1 + u2))
    return y


def _draw(model, gen, n):
    out = np.empty(n)
    model._draw_into(gen, out)
    return out


@pytest.mark.parametrize("w,slope", [(0.05, 4.0), (0.05, 0.0), (0.01, 20.0),
                                     (0.02, 10.0), (0.3, 1.2), (0.5, 0.8)])
def test_sawtooth_draws_match_reference_loop(w, slope):
    model = GaussianSawtooth(w, slope)
    # one draw, under one slice, across several slices, a full phase-scan n
    for n, seed in ((1, 1), (1000, 2), (200_001, 3), (10**6, 4)):
        gen, ref_gen = RngSeed(seed, 7).generator(), RngSeed(seed, 7).generator()
        want = _reference_sawtooth_draw(model, ref_gen, n)
        assert np.array_equal(model.sample(n, RngSeed(seed, 7)), want), (w, slope, n)
        assert np.array_equal(_draw(model, gen, n), want), (w, slope, n)
        assert (gen.bit_generator.random_raw()
                == ref_gen.bit_generator.random_raw()), (w, slope, n)


# slices of 1000 and 1 points: a slice edge inside and at the end of every
# draw, so the draws do not depend on the slice size.  A product draws its
# next component from where the sawtooth leaves the generator.
@pytest.mark.parametrize("block,sizes", [(1000, (1, 1000, 200_001)),
                                         (1, (1, 1000, 3000))])
def test_sawtooth_draws_match_reference_loop_at_small_blocks(block, sizes,
                                                             monkeypatch):
    monkeypatch.setattr(models, "_LOOKUP_BLOCK", block)
    for w, slope in ((0.05, 4.0), (0.01, 20.0), (0.5, 0.8)):
        model = GaussianSawtooth(w, slope)
        for n in sizes:
            gen, ref_gen = RngSeed(n, 8).generator(), RngSeed(n, 8).generator()
            got = _draw(model, gen, n)
            want = _reference_sawtooth_draw(model, ref_gen, n)
            assert np.array_equal(got, want), (block, w, slope, n)
            assert (gen.bit_generator.random_raw()
                    == ref_gen.bit_generator.random_raw()), (block, w, slope, n)
    got = ProductDensity((SAW, Gaussian(0.0, 1.0))).sample(1000, RngSeed(12))
    gen = RngSeed(12).generator()
    first = _reference_sawtooth_draw(SAW, gen, 1000)
    assert np.array_equal(got, np.column_stack([first, gen.standard_normal(1000)]))


# sha256 of each model's draws at every n of the grid, each followed by
# the generator's next raw word, from RngSeed(n, 15).  Regenerated by
# tests/refreeze.py; 1023-1025, 65536 and 65537 put slice edges at every
# offset.
SAWTOOTH_DIGEST_NS = (1, 2, 5, 100, 1000, 1023, 1024, 1025, 5000, 65536,
                      65537, 10**5, 10**6)
SAWTOOTH_DIGESTS = {
    (0.05, 4.0): "65c2b421f98ca4a5709f8b5e3e0ea9f7e97427d0de45052d50c45a35fc9480ad",
    (0.05, 0.0): "412a407a6e26daa3e8a87f759122cfb0417f619e1adfe7a8256a78c9f94b86c2",
    (0.1, 2.0): "6f1a0385863472bfecdab6693dc3b3f63d50dbd20632290a51c7ebb745ff9f4b",
    (0.5, 0.8): "85c19bb78fb58f57d175a76b5e0cdffd697ef3955693cbe4235167616cc43d96",
    (0.001, 10.0): "3d73460bd36eed1045537c7dc81bfd6200a65a6b111265cbcfbf852b5a51e6f9",
}


def sawtooth_digest(w, slope):
    model = GaussianSawtooth(w, slope)
    h = hashlib.sha256()
    for n in SAWTOOTH_DIGEST_NS:
        gen = RngSeed(n, 15).generator()
        h.update(_draw(model, gen, n).tobytes())
        h.update(np.uint64(gen.bit_generator.random_raw()).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("w,slope", SAWTOOTH_DIGESTS, ids=str)
def test_sawtooth_draws_match_frozen_digests(w, slope):
    assert sawtooth_digest(w, slope) == SAWTOOTH_DIGESTS[(w, slope)]


# sha256 of pdf, cdf and _ripple, then _smoothed's log_pdf and score at
# each radius of SAWTOOTH_SMOOTHED_RADII, per (w, slope), over a grid, the
# ripple's edges and far points, and the same points one at a time.
SAWTOOTH_SMOOTHED_RADII = (0.01, 0.14, 1.0)
SAWTOOTH_FORM_DIGESTS = {
    (1e-3, 100.0): "fbd0a9e45d2b8280d358817e73fc24cf4655baa990ab5d110a82e3ec62a87246",
    (0.05, 4.0): "9a1d5701ece40f085c019414bd0c356dee6c25af17f100edb00e72903beac28c",
    (0.05, 0.0): "d9ac9d53819ceefdb587c541bf4422f01b81100d276011ee5fce6c6a12297b0f",
    (0.5, 0.8): "073d58d35aba4be9df1658eb8d47323e037f9e06c8ac780f00a33f2297097d66",
}


def sawtooth_form_digest(w, slope):
    model = GaussianSawtooth(w, slope)
    edge = model.n_teeth * w
    ends = [0.0, edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0),
            1e300]
    u = np.concatenate([np.linspace(-6.0, 6.0, 120_001), ends,
                        [-v for v in ends]])
    h = hashlib.sha256()
    with np.errstate(over="ignore"):
        for form in (model._pdf, model._cdf, model._ripple):
            h.update(form(u).tobytes())
            h.update(np.array([form(np.float64(v)) for v in u[-10:]]).tobytes())
        for r in SAWTOOTH_SMOOTHED_RADII:
            for values in model._smoothed(u, r):
                h.update(values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("w,slope", SAWTOOTH_FORM_DIGESTS, ids=str)
def test_sawtooth_forms_match_frozen_digests(w, slope):
    assert sawtooth_form_digest(w, slope) == SAWTOOTH_FORM_DIGESTS[(w, slope)]


def test_flat_sawtooth_draw_is_the_standard_normal():
    # slope 0 has no lobes: the draw is the normals alone, and leaves the
    # generator where standard_normal leaves it
    for n in (1, 1000, 70_000):
        gen, ref_gen = RngSeed(n, 19).generator(), RngSeed(n, 19).generator()
        got = _draw(GaussianSawtooth(0.05, 0.0), gen, n)
        assert np.array_equal(got.view(np.int64),
                              ref_gen.standard_normal(n).view(np.int64))
        assert np.array_equal(gen.bit_generator.random_raw(5),
                              ref_gen.bit_generator.random_raw(5))
        assert np.array_equal(GaussianSawtooth(0.3, 0.0).sample(n, RngSeed(n, 19)),
                              RngSeed(n, 19).generator().standard_normal(n))


def test_sawtooth_draw_holds_one_slice_of_temporaries():
    # beside `out` the sampler holds one slice of thinning temporaries and
    # the removed points' indices; each slice refills in turn.  The whole
    # refill drawn at once, with its (m, 3) uniforms, took 0.36 x 8n
    n, buf = 10**6, np.empty(10**6)
    SAW.sample(n, RngSeed(20, 6), out=buf)
    tracemalloc.start()
    try:
        SAW.sample(n, RngSeed(20, 7), out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * n


def _fine_bin_chi2_pvalue(model, x):
    # bins of at most w/8 over [-1.2, 1.2], past the ripple's support,
    # and one tail bin on each side, against the exact cdf
    edges = np.linspace(-1.2, 1.2, math.ceil(2.4 / (model.w / 8)) + 1)
    counts = np.bincount(np.searchsorted(edges, x, side="right"),
                         minlength=edges.size + 1)
    expected = x.size * np.diff(np.concatenate(([0.0], model.cdf(edges), [1.0])))
    stat = np.sum(np.square(counts - expected) / expected)
    return stats.chi2.sf(stat, counts.size - 1)


# a sampler that thinned the positive lobes and refilled the negative ones
# would draw from phi - ripple = f(-x), since the ripple is odd; its draws
# are the negated draws, and the test must reject them
@pytest.mark.parametrize("w,slope", [(0.05, 4.0), (0.01, 20.0), (0.3, 1.2),
                                     (0.5, 0.8)])
def test_sawtooth_draws_fine_bin_chi2(w, slope):
    model = GaussianSawtooth(w, slope)
    x = model.sample(4 * 10**6, RngSeed(20, 5))
    assert _fine_bin_chi2_pvalue(model, x) > 1e-3
    np.negative(x, out=x)
    assert _fine_bin_chi2_pvalue(model, x) < 1e-6


# in product(sawtooth^2) the second column starts where the first
# component's draw leaves the generator
@pytest.mark.parametrize("model", FAMILIES + [
    parse_model("product(gaussian(0,1),laplace(2,0.5))"),
    parse_model("product(sawtooth(0.05,4)^2)"),
    parse_model("product(mixture(0.3*gaussian(-1,0.5)+0.7*gaussian(2,1.5)),"
                "sawtooth(0.1,2),laplace(0,1))"),
], ids=format_model)
def test_sample_into_out_is_sample(model):
    for n in (1, 1000, 70_000):
        want = model.sample(n, RngSeed(n, 16))
        buf = np.full(want.shape, np.nan)
        got = model.sample(n, RngSeed(n, 16), out=buf)
        assert got is buf
        assert np.array_equal(buf.view(np.int64), want.view(np.int64)), n


@pytest.mark.parametrize("model,out", [
    (SAW, np.empty(99)),
    (SAW, np.empty((100, 1))),
    (SAW, np.empty(100, dtype=np.float32)),
    (SAW, np.empty(200)[::2]),
    (SAW, [0.0] * 100),
    (SAW, np.frombuffer(bytes(800))),  # read-only
    (Laplace(0.0, 1.0), np.empty(100, dtype=np.int64)),
    (parse_model("product(laplace(0,1)^2)"), np.empty((100, 3))),
    (parse_model("product(laplace(0,1)^2)"), np.empty((2, 100)).T),
    (parse_model("product(laplace(0,1)^2)"), np.empty(200)),
])
def test_sample_rejects_bad_out_by_name(model, out):
    with pytest.raises(PreconditionError, match="sample out must be"):
        model.sample(100, RngSeed(1), out=out)


def test_tri_wave_floor_form_matches_mod_form_bitwise():
    t = np.concatenate([
        np.linspace(-25.0, 25.0, 2_000_001),
        np.arange(-50.0, 50.5, 0.5),            # every integer and half-integer
        np.arange(-1000, 1001) * 0.05 / 0.05,   # rounded tooth positions
        np.arange(-1000, 1001) * 0.01 / 0.03,
        np.nextafter(np.arange(-20.0, 20.5, 0.5), np.inf),
        np.nextafter(np.arange(-20.0, 20.5, 0.5), -np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e15 + 0.5, -1e15 - 0.5],
    ])
    assert np.array_equal(_tri_wave(t).view(np.int64),
                          _reference_tri_wave(t).view(np.int64))


# -- product densities ---------------------------------------------------


def test_product_covariance():
    g8 = parse_model("product(gaussian(0,1)^8)")
    assert np.array_equal(g8.covariance(), np.eye(8))
    l4 = parse_model("product(laplace(0,1)^4)")
    assert np.allclose(l4.covariance(), 2.0 * np.eye(4), atol=1e-12)


def test_product_sawtooth_variance_quadrature():
    prod = ProductDensity((SAW, Gaussian(0, 1)))
    mean_quad = dense_integral(lambda x: x * SAW.pdf(x), -12.0, 12.0)
    second = dense_integral(lambda x: x * x * SAW.pdf(x), -12.0, 12.0)
    assert abs(SAW.mean() - mean_quad) < 1e-9  # ripple mean is not zero
    assert abs(prod.covariance()[0, 0] - (second - mean_quad**2)) < 1e-6


def test_product_sampling_shape_and_determinism():
    model = parse_model("product(gaussian(0,1),laplace(2,0.5))")
    x = model.sample(50, RngSeed(5))
    assert x.shape == (50, 2)
    assert np.array_equal(x, model.sample(50, RngSeed(5)))


# -- parameter validation ------------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises(PreconditionError):
        Gaussian(0, 0.0)
    with pytest.raises(PreconditionError):
        Laplace(0, -1.0)
    with pytest.raises(PreconditionError):
        GaussianMixture((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))  # weights != 1
    with pytest.raises(PreconditionError):
        GaussianSawtooth(0.05, 9.0)  # amplitude w*slope/2 > 0.2


# Each of these crashed (OverflowError from sigma**2, a math domain error),
# printed an infinite Fisher information, failed later with a misleading
# diagnosis, or (the sawtooth) spent seconds and hundreds of MB on 20000
# kinks.
@pytest.mark.parametrize("make,name", [
    (lambda: Gaussian(0, 1e300), "gaussian sigma"),
    (lambda: Gaussian(0, 1e-200), "gaussian sigma"),
    (lambda: Gaussian(0, math.nan), "gaussian sigma"),
    (lambda: Gaussian(1e20, 1), "gaussian mu"),
    (lambda: Laplace(0, 1e-300), "laplace scale b"),
    (lambda: Laplace(0, 1e101), "laplace scale b"),
    (lambda: Laplace(1e20, 1), "laplace mu"),
    (lambda: Laplace(math.inf, 1), "laplace mu"),
    (lambda: GaussianMixture((0.5, 0.5), (0, 1), (1, 1e-101)),
     "mixture component 1 sigma"),
    (lambda: GaussianMixture((0.5, 0.5), (1e12, 0), (1, 1)),
     "mixture component 0 mean"),
    (lambda: GaussianMixture((math.nan, 1.0), (0, 0), (1, 1)), "mixture weights"),
    (lambda: GaussianSawtooth(1e-4, 0.0), "sawtooth tooth width w"),
    (lambda: GaussianSawtooth(0.05, math.nan), "sawtooth slope"),
])
def test_out_of_range_parameters_rejected_by_name(make, name):
    with pytest.raises(PreconditionError, match=f"^{name} "):
        make()


def test_parameter_range_ends_accepted():
    for scale in (1e-100, 1e100):
        Gaussian(0, scale)
        Laplace(0, scale)
        GaussianMixture((0.5, 0.5), (0, 0), (scale, 1))
    Gaussian(1e6, 1)  # spacing 1.2e-10, within 1e-6 of the scale
    GaussianSawtooth(1e-3, 400.0)


# -- spec grammar --------------------------------------------------------

ROUND_TRIP_SPECS = [
    "gaussian(0,1)",
    "laplace(-2,0.5)",
    "sawtooth(0.05,4)",
    "mixture(0.3*gaussian(-1,0.5)+0.7*gaussian(2,1.5))",
    "product(gaussian(0,1)^8)",
    "product(laplace(0,1),gaussian(1,2))",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_grammar_round_trip(spec):
    model = parse_model(spec)
    again = parse_model(format_model(model))
    assert again == model


def test_grammar_whitespace_and_scientific():
    assert parse_model(" gaussian( 0 , 1 ) ") == Gaussian(0.0, 1.0)
    assert parse_model("laplace(0,5e-1)") == Laplace(0.0, 0.5)


def test_grammar_errors_carry_position():
    with pytest.raises(ModelSpecError) as exc:
        parse_model("gauss(0,1)")
    assert exc.value.position is not None
    assert "position" in str(exc.value)
    for bad in ("gaussian(0,1", "gaussian(0,)", "gaussian(0,1)x",
                "product(gaussian(0,1)^0)", "mixture(1.5*gaussian(0,1))"):
        with pytest.raises(ModelSpecError):
            parse_model(bad)


@pytest.mark.parametrize("spec,message,position", [
    ("gauss(0,1)", "unknown family 'gauss'", 0),
    ("product(product(gaussian(0,1)^2),laplace(0,1))",
     "product components must be one-dimensional", 0),
    ("product(laplace(0,1),product(gaussian(0,1)^2))",
     "product components must be one-dimensional", 20),
    ("product(gaussian(0,1)^0)", "expected a positive integer", 22),
    ("product(gaussian(0,1)^2,laplace(0,1))", "expected ')', found ','", 23),
    ("gaussian(0,1)x", "trailing input 'x'", 13),
    ("mixture(0.5*gaussian(0,1)+0.5*laplace(0,1))",
     "mixture components must be gaussian", 30),
])
def test_grammar_error_text_and_position(spec, message, position):
    with pytest.raises(ModelSpecError) as exc:
        parse_model(spec)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


# A number that overflows to inf was accepted: gaussian(1e400,1) then failed
# with a misleading shift diagnosis, laplace(0,1e400) with non-finite
# samples, and a 1e400 product exponent with an OverflowError traceback.
@pytest.mark.parametrize("spec,position", [
    ("gaussian(1e400,1)", 9),
    ("laplace(0,1e400)", 10),
    ("gaussian(-1e400,1)", 10),
    ("product(laplace(0,1)^1e400)", 21),
])
def test_grammar_rejects_numbers_out_of_range(spec, position):
    with pytest.raises(ModelSpecError, match="^number out of range") as exc:
        parse_model(spec)
    assert exc.value.position == position


# -- rng -----------------------------------------------------------------


def test_rng_seed_reproducible_and_splittable():
    a = RngSeed(9, 2).generator().standard_normal(8)
    b = RngSeed(9, 2).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngSeed(9, 3).generator().standard_normal(8)
    assert not np.array_equal(a, c)
    d1 = RngSeed(9).derive(4, 7).generator().standard_normal(8)
    d2 = RngSeed(9).derive(4, 7).generator().standard_normal(8)
    d3 = RngSeed(9).derive(4, 8).generator().standard_normal(8)
    assert np.array_equal(d1, d2)
    assert not np.array_equal(d1, d3)


# numpy converts the key list [2^64 - 1, small] through float64, with a
# cast warning; the generator must reproduce that key too
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_rng_seed_generator_matches_philox_key(seed):
    root = RngSeed(seed)
    draws = (lambda g: g.standard_normal(64), lambda g: g.laplace(size=64),
             lambda g: g.random(64), lambda g: g.uniform(-2.0, 3.0, 64),
             lambda g: g.integers(0, 2, 64), lambda g: g.exponential(1.0, 64))
    for s in (root, root.derive(1), root.derive(2, 3), root.derive(40),
              RngSeed(seed, 2**63), RngSeed(seed, 2**64 - 1)):
        mine = s.generator()
        ref = np.random.Generator(np.random.Philox(key=[s.seed, s.stream]))
        for draw in draws:
            assert np.array_equal(draw(mine), draw(ref))
    for n_words, dtype in ((2, np.uint32), (4, np.uint64), (1, np.uint64)):
        with pytest.raises(ValueError, match="only a Philox key"):
            root.generate_state(n_words, dtype)
