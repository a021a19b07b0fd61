"""Model families: densities, quantiles, sampling, and the spec grammar."""

import math

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


# The sawtooth sampler draws its uniforms block by block behind each
# round's normals, decides its rejection test per block, and skips the
# ripple where it cannot change the outcome.  These pin its draws, bit for
# bit, to the plain loop that draws each round's normals and then all its
# uniforms in two calls and evaluates the full pdf on every candidate.


def _reference_tri_wave(t):
    return np.abs(np.mod(t - 0.5, 2.0) - 1.0) - 0.5


def _reference_phi(u):
    return np.exp(-0.5 * np.square(u)) / math.sqrt(2.0 * math.pi)


def _reference_sawtooth_pdf(model, u):
    out = _reference_phi(u)
    inside = np.abs(u) <= model.n_teeth * model.w
    out[inside] += model.w * model.slope * _reference_tri_wave(u[inside] / model.w)
    return out


def _reference_sawtooth_draw(model, gen, n):
    amp = 0.5 * model.w * model.slope
    m_env = 1.0 + amp / float(_reference_phi(1.0))
    out = np.empty(n)
    k = 0
    while k < n:
        batch = max(1024, int(1.2 * (n - k) * m_env) + 1)
        y = gen.standard_normal(batch)
        u = gen.random(batch)
        phi = _reference_phi(y)
        accepted = y[u * m_env * phi <= _reference_sawtooth_pdf(model, y)]
        take = min(n - k, accepted.shape[0])
        out[k : k + take] = accepted[:take]
        k += take
    return out


@pytest.mark.parametrize("w,slope", [(0.05, 4.0), (0.05, 0.0), (0.01, 20.0),
                                     (0.02, 10.0), (0.3, 1.2), (0.5, 0.8)])
def test_sawtooth_draws_match_reference_loop(w, slope):
    model = GaussianSawtooth(w, slope)
    # one draw, under one block, across several blocks, a full phase-scan n
    for n, seed in ((1, 1), (1000, 2), (200_001, 3), (10**6, 4)):
        got = model.sample(n, RngSeed(seed, 7))
        want = _reference_sawtooth_draw(model, RngSeed(seed, 7).generator(), n)
        assert np.array_equal(got, want), (w, slope, n)


# blocks of 1000 and 1 uniforms: a block boundary inside and at the end of
# every round.  Each generator must also be left where the reference
# leaves it, the round's untested uniforms skipped (at n = 1000 the round
# stops inside its short last block), since a product draws its next
# component from it.
@pytest.mark.parametrize("block,sizes", [(1000, (1, 1000, 200_001)),
                                         (1, (1, 1000, 3000))])
def test_sawtooth_draws_match_reference_loop_at_small_blocks(block, sizes,
                                                             monkeypatch):
    monkeypatch.setattr(models, "_LOOKUP_BLOCK", block)
    for w, slope in ((0.05, 4.0), (0.01, 20.0), (0.5, 0.8)):
        model = GaussianSawtooth(w, slope)
        for n in sizes:
            gen, ref_gen = RngSeed(n, 8).generator(), RngSeed(n, 8).generator()
            got = model._draw(gen, n)
            want = _reference_sawtooth_draw(model, ref_gen, n)
            assert np.array_equal(got, want), (block, w, slope, n)
            assert (gen.bit_generator.random_raw()
                    == ref_gen.bit_generator.random_raw()), (block, w, slope, n)
    got = ProductDensity((SAW, Gaussian(0.0, 1.0))).sample(1000, RngSeed(12))
    gen = RngSeed(12).generator()
    first = _reference_sawtooth_draw(SAW, gen, 1000)
    assert np.array_equal(got, np.column_stack([first, gen.standard_normal(1000)]))


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
