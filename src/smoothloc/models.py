"""Translation families f^lambda(x) = f(x - lambda).

Four one-dimensional shapes (Gaussian, Laplace, finite Gaussian mixture,
Gaussian plus sawtooth ripple) and their products, each with exact pdf,
cdf, quantile, and sampler, and the exact log-density and score of the
shape convolved with N(0, r^2).  A model is the base f, located by its
own parameters; the unknown shift lambda belongs to the data, which
callers form as samples of f plus lambda.

Instances are frozen and hashable; downstream caches key on them
directly.  Parameters are checked on construction: scales within
[1e-100, 1e100], a location that float64 resolves at its scale, and a
sawtooth tooth width of at least 1e-3.

scipy.special (ndtr, ndtri, erfc, erfcx, logsumexp) is imported on the
first call that needs it, not with this module, so that importing
smoothloc needs numpy alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ModelSpecError, PreconditionError
from .rng import RngSeed

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_ERFC_MAX_X = 26.0  # erfc underflows past this argument


def _special():
    # scipy.special is loaded on first use, not at import: it costs most of
    # `import smoothloc`, and the concentration study never calls it
    from scipy import special

    return special


def _phi(u):
    return np.exp(-0.5 * np.square(u)) / _SQRT2PI


def _return_like(x, values):
    # scalar in -> float out, array in -> array out
    if np.ndim(x) == 0:
        return float(values)
    return values


class Density1d:
    """Shared behavior for the one-dimensional families.

    Subclasses implement the shape on float arrays (_pdf and friends)
    and its moments; this class adds the argument checks, the
    scalar-or-array return, and the generic quantile bisection.
    """

    # -- shape, implemented per family ---------------------------------

    def _pdf(self, u):
        raise NotImplementedError

    def _cdf(self, u):
        raise NotImplementedError

    def _quantile(self, p):
        # generic bisection; closed-form families override
        lo, hi = self._bracket()
        return _bisect_cdf(self._cdf, p, lo, hi)

    def _bracket(self):
        raise NotImplementedError

    def _draw(self, gen: np.random.Generator, n: int):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def breakpoints(self):
        # x-locations where the pdf is not smooth; () when C^inf
        return ()

    def _smoothed(self, u, r: float):
        """(log f_r(u), score s_r(u)) of the shape smoothed by N(0, r^2).

        Exact forms, in log space so that far tails keep a finite log
        density and score.
        """
        raise NotImplementedError

    # -- public surface ------------------------------------------------

    def pdf(self, x):
        return _return_like(x, self._pdf(np.asarray(x, dtype=float)))

    def cdf(self, x):
        return _return_like(x, self._cdf(np.asarray(x, dtype=float)))

    def quantile(self, p):
        parr = np.asarray(p, dtype=float)
        # written so that NaN fails too
        if not ((parr > 0.0) & (parr < 1.0)).all():
            raise PreconditionError("quantile requires 0 < p < 1")
        return _return_like(p, self._quantile(parr))

    def sample(self, n: int, seed: RngSeed):
        if n < 1:
            raise PreconditionError("sample requires n >= 1")
        return self._draw(seed.generator(), int(n))

    def iqr(self) -> float:
        return _iqr(self)

    def quadrature_extent(self):
        """(lo_center, hi_center, sigma_max) for truncated integrals.

        Tail integrands decay at least like the widest component's
        Gaussian/Laplace tail outside [lo - k*sigma, hi + k*sigma].
        """
        raise NotImplementedError


@lru_cache(maxsize=None)
def _iqr(model: Density1d) -> float:
    # cached per model: the sawtooth's quartiles are a 60-step bisection
    q = model._quantile(np.array([0.25, 0.75]))
    return float(q[1] - q[0])


def _bisect_cdf(cdf, p, lo, hi, tol=1e-10):
    p = np.asarray(p, dtype=float)
    flat = np.atleast_1d(p)
    a = np.full(flat.shape, float(lo))
    b = np.full(flat.shape, float(hi))
    # 60 halvings take any desk-scale bracket below 1e-10
    for _ in range(60):
        mid = 0.5 * (a + b)
        left = cdf(mid) < flat
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
        if np.max(b - a) <= tol:
            break
    return (0.5 * (a + b)).reshape(p.shape)


@dataclass(frozen=True)
class Gaussian(Density1d):
    mu: float
    sigma: float

    def __post_init__(self):
        _require_scale("gaussian sigma", self.sigma)
        _require_resolved("gaussian mu", abs(self.mu), self.sigma, "its sigma")

    def _pdf(self, u):
        return _phi((u - self.mu) / self.sigma) / self.sigma

    def _cdf(self, u):
        return _special().ndtr((u - self.mu) / self.sigma)

    def _quantile(self, p):
        return self.mu + self.sigma * _special().ndtri(p)

    def _draw(self, gen, n):
        return self.mu + self.sigma * gen.standard_normal(n)

    def mean(self):
        return float(self.mu)

    def variance(self):
        return self.sigma**2

    def _smoothed(self, u, r):
        var = self.sigma**2 + r * r
        d = np.asarray(u, dtype=float) - self.mu
        return -0.5 * d * d / var - 0.5 * math.log(2.0 * math.pi * var), -d / var

    def quadrature_extent(self):
        return (self.mu, self.mu, self.sigma)


@dataclass(frozen=True)
class Laplace(Density1d):
    mu: float
    b: float

    def __post_init__(self):
        _require_scale("laplace scale b", self.b)
        _require_resolved("laplace mu", abs(self.mu), self.b, "its scale b")

    def _pdf(self, u):
        return np.exp(-np.abs(u - self.mu) / self.b) / (2.0 * self.b)

    def _cdf(self, u):
        t = (np.asarray(u, dtype=float) - self.mu) / self.b
        return np.where(t <= 0, 0.5 * np.exp(t), 1.0 - 0.5 * np.exp(-t))

    def _quantile(self, p):
        p = np.asarray(p, dtype=float)
        lower = self.mu + self.b * np.log(2.0 * p)
        upper = self.mu - self.b * np.log(2.0 * (1.0 - p))
        return np.where(p <= 0.5, lower, upper)

    def _draw(self, gen, n):
        return gen.laplace(self.mu, self.b, n)

    def mean(self):
        return float(self.mu)

    def variance(self):
        return 2.0 * self.b**2

    def breakpoints(self):
        return (self.mu,)

    def _smoothed(self, u, r):
        # The normal-Laplace density (Reed & Jorgensen 2004), even in t:
        #   f_r = e^{k^2/2}/(2b) [e^{t/b} Phi(-t/r - k) + e^{-t/b} Phi(t/r - k)]
        # with k = r/b.  Put tau = |t|, z = tau/r, x1 = (z + k)/sqrt2 and
        # x2 = (k - z)/sqrt2.  With Phi(-y) = erfc(y/sqrt2)/2 and
        # erfc(x1) = erfcx(x1) e^{-x1^2}, where 2zk - x1^2 = -x2^2,
        #   f_r = e^{k^2/2 - tau/b}/(4b) [near + far],
        #   near = erfc(x2),  far = erfcx(x1) e^{-x2^2} <= near,
        # and, as the Gaussian terms of the derivative cancel,
        #   s_r = sign(t) (far - near)/(near + far)/b.
        # erfc(x2) underflows past x2 = 26, which needs r/b > 36.8; there
        # both terms are divided by e^{-x2^2}: near = erfcx(x2),
        # far = erfcx(x1), and the prefactor becomes e^{-z^2/2}/(4b).
        # Beyond z = k + 40, far is 0 and near is 2 to the last bit, so z is
        # capped there, which keeps tau/r finite.
        b = self.b
        k = r / b
        t = np.reshape(np.asarray(u, dtype=float) - self.mu, -1)
        tau = np.abs(t)
        z = np.minimum(tau, r * (k + 40.0)) / r
        x1 = (z + k) * _SQRT_HALF
        x2 = (k - z) * _SQRT_HALF
        log_scale = (0.5 * k * k - math.log(4.0 * b)) - tau / b
        any_deep = k * _SQRT_HALF > _ERFC_MAX_X  # x2 is at most k/sqrt2
        x2_near = np.minimum(x2, _ERFC_MAX_X) if any_deep else x2
        special = _special()
        near = special.erfc(x2_near)
        far = special.erfcx(x1)
        if any_deep:
            deep = x2 > _ERFC_MAX_X
            near[deep] = special.erfcx(x2[deep])
            log_scale[deep] = -0.5 * np.square(z[deep]) - math.log(4.0 * b)
            x2_near[deep] = 0.0  # far stays erfcx(x1) there
        far *= np.exp(-x2_near * x2_near)
        total = near + far
        log_pdf = np.log(total) + log_scale
        score = np.sign(t) * (far - near) / (total * b)
        return log_pdf.reshape(np.shape(u)), score.reshape(np.shape(u))

    def quadrature_extent(self):
        # sd of Laplace is sqrt(2) b; its tails are heavier than Gaussian
        return (self.mu, self.mu, math.sqrt(2.0) * self.b)


@dataclass(frozen=True)
class GaussianMixture(Density1d):
    weights: tuple
    means: tuple
    sigmas: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        m = tuple(float(v) for v in self.means)
        s = tuple(float(v) for v in self.sigmas)
        if not (len(w) == len(m) == len(s)) or len(w) == 0:
            raise PreconditionError("mixture needs matching, nonempty parameter tuples")
        if not all(v > 0 for v in w):
            raise PreconditionError("mixture weights must be positive")
        if abs(sum(w) - 1.0) > 1e-9:
            raise PreconditionError("mixture weights must sum to 1 within 1e-9")
        for i, (mu, sigma) in enumerate(zip(m, s)):
            _require_scale(f"mixture component {i} sigma", sigma)
            _require_resolved(f"mixture component {i} mean", abs(mu), sigma,
                              "its sigma")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sigmas", s)

    def _arrays(self):
        return (np.asarray(self.weights), np.asarray(self.means), np.asarray(self.sigmas))

    def _pdf(self, u):
        w, m, s = self._arrays()
        u = np.asarray(u, dtype=float)
        t = (u[..., None] - m) / s
        comp = np.exp(-0.5 * np.square(t)) / (s * _SQRT2PI)
        return np.sum(w * comp, axis=-1)

    def _cdf(self, u):
        w, m, s = self._arrays()
        u = np.asarray(u, dtype=float)
        return np.sum(w * _special().ndtr((u[..., None] - m) / s), axis=-1)

    def _bracket(self):
        w, m, s = self._arrays()
        return (float(np.min(m - 14.0 * s)), float(np.max(m + 14.0 * s)))

    def _draw(self, gen, n):
        w, m, s = self._arrays()
        comp = gen.choice(len(self.weights), size=n, p=w / w.sum())
        return m[comp] + s[comp] * gen.standard_normal(n)

    def mean(self):
        w, m, _ = self._arrays()
        return float(np.sum(w * m))

    def variance(self):
        w, m, s = self._arrays()
        mu = np.sum(w * m)
        return float(np.sum(w * (s**2 + m**2)) - mu**2)

    def _smoothed(self, u, r):
        w, m, s = self._arrays()
        var = s**2 + r * r
        d = np.asarray(u, dtype=float)[..., None] - m
        log_comp = np.log(w) - 0.5 * np.log(2.0 * math.pi * var) - 0.5 * d * d / var
        log_pdf = _special().logsumexp(log_comp, axis=-1)
        resp = np.exp(log_comp - log_pdf[..., None])
        return log_pdf, np.sum(resp * (-d / var), axis=-1)

    def quadrature_extent(self):
        _, m, s = self._arrays()
        return (float(np.min(m)), float(np.max(m)), float(np.max(s)))


# Every cost of the sawtooth grows with its tooth count, about 2/w kinks:
# the Fisher rule puts panel edges around each, and the ripple grid sums a
# term per kink.  On a 2-core host, a `fisher` call at w = 1e-3 takes
# about 1 s and 110 MB, and at w = 1e-4 4.2 s and 216 MB.
_SAWTOOTH_MIN_W = 1e-3


def _tri_wave(t):
    # odd triangle wave, period 2, slope +-1, peaks +-1/2 at half-integers;
    # s - 2 floor(s/2) rounds the same exact value as np.mod(s, 2), once
    s = t - 0.5
    return np.abs(s - 2.0 * np.floor(0.5 * s) - 1.0) - 0.5


def _tri_wave_integral(t):
    # G(t) = int_0^t tri(s) ds; even, period 2, ranges [0, 1/4]
    tau = np.mod(t + 0.5, 2.0) - 0.5
    return np.where(tau < 0.5, 0.5 * tau * tau, 0.25 - 0.5 * np.square(tau - 1.0))


@dataclass(frozen=True)
class GaussianSawtooth(Density1d):
    """Standard Gaussian plus a triangular ripple of period 2w.

    The ripple has peak amplitude w*slope/2, integrates to zero over
    each tooth, and occupies whole teeth inside [-1, 1], so the total
    mass stays exactly 1 and the density stays positive whenever
    w*slope/2 <= 0.2 < min standard-normal pdf on [-1, 1].
    slope = 0 degenerates to the pure Gaussian (control runs).
    """

    w: float
    slope: float

    def __post_init__(self):
        if not _SAWTOOTH_MIN_W <= self.w <= 0.5:
            raise PreconditionError(f"sawtooth tooth width w must be in "
                                    f"[{_SAWTOOTH_MIN_W:g}, 0.5], got {self.w:g}")
        if not self.slope >= 0:
            raise PreconditionError("sawtooth slope must be >= 0")
        if self.w * self.slope / 2.0 > 0.2 + 1e-12:
            raise PreconditionError(
                "sawtooth amplitude w*slope/2 must be <= 0.2 to keep the pdf positive"
            )

    @property
    def n_teeth(self) -> int:
        # whole teeth on each side of 0 inside [-1, 1]
        return int(math.floor(1.0 / self.w + 1e-9))

    def _ripple(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        self._add_ripple(u.reshape(-1), out.reshape(-1))
        return out

    def _add_ripple(self, flat_u, flat_out):
        # ripple support is narrow; evaluate the wave only inside it
        inside = np.abs(flat_u) <= self.n_teeth * self.w
        if np.any(inside):
            flat_out[inside] += self.w * self.slope * _tri_wave(flat_u[inside] / self.w)

    def _pdf(self, u):
        u = np.asarray(u, dtype=float)
        # asarray: for 0-d u, _phi returns a numpy scalar, whose reshape
        # is a copy that would drop the ripple
        out = np.asarray(_phi(u))
        self._add_ripple(u.reshape(-1), out.reshape(-1))
        return out

    def _cdf(self, u):
        u = np.asarray(u, dtype=float)
        edge = self.n_teeth * self.w
        t = np.clip(u, -edge, edge) / self.w
        ripple_mass = (
            self.w**2
            * self.slope
            * (_tri_wave_integral(t) - _tri_wave_integral(np.float64(self.n_teeth)))
        )
        return _special().ndtr(u) + ripple_mass

    def _bracket(self):
        return (-14.0, 14.0)

    def _draw(self, gen, n):
        # Rejection from the Gaussian envelope m_env * phi.  The batch size
        # depends only on the remaining count, so the candidate stream, and
        # with it the accepted draws, is reproducible.  A round draws its
        # batch of normals in one call; the batch's uniforms follow them in
        # the stream, one 64-bit word each, so they are drawn block by
        # block as each block is tested and are the numbers one call for
        # the whole batch would give.  Once n are accepted the words of the
        # round's untested uniforms are skipped, not converted, so the
        # generator ends where the whole batch would leave it (a product
        # draws its next component from it).  The test
        # u * m_env * phi(y) <= phi(y) + fl(w*slope * tri(y/w)) is decided
        # per block.  |tri| <= 1/2 and rounding is monotone, so every ripple
        # term lies in [-amp, amp] and the right side rounds into
        # [fl(phi - amp), fl(phi + amp)]: a left side at or below the low
        # end passes and one above the high end fails whatever the ripple.
        # Only the band between, inside the ripple's support, needs the
        # ripple; every decision, and so every draw, is the one the full
        # test makes.
        ws = self.w * self.slope
        amp = 0.5 * ws
        m_env = 1.0 + amp / float(_phi(1.0))
        edge = self.n_teeth * self.w
        out = np.empty(n)
        k = 0
        while k < n:
            batch = max(1024, int(1.2 * (n - k) * m_env) + 1)
            y_batch = gen.standard_normal(batch)
            for start in range(0, batch, _LOOKUP_BLOCK):
                y = y_batch[start : start + _LOOKUP_BLOCK]
                # phi(y) and u * m_env * phi(y), in place, in _phi's order
                p = np.square(y)
                p *= -0.5
                np.exp(p, out=p)
                p /= _SQRT2PI
                lhs = gen.random(y.size)
                lhs *= m_env
                lhs *= p
                keep = lhs <= p
                in_band = lhs > p - amp
                in_band &= lhs <= p + amp
                in_band &= np.abs(y) <= edge
                band = np.flatnonzero(in_band)
                keep[band] = lhs[band] <= p[band] + ws * _tri_wave(y[band] / self.w)
                accepted = y[np.flatnonzero(keep)]
                take = min(n - k, accepted.shape[0])
                out[k : k + take] = accepted[:take]
                k += take
                if k == n:
                    gen.bit_generator.random_raw(batch - start - y.size,
                                                 output=False)
                    break
        return out

    def mean(self):
        # int x*ripple dx = -int Ripple(x) dx by parts; the tooth-count
        # parity decides the sign of the leftover quadratic areas
        nt = self.n_teeth
        sign = -1.0 if nt % 2 == 0 else 1.0
        return sign * self.w**3 * self.slope * nt / 4.0

    def variance(self):
        # int x^2 * ripple dx vanishes (odd integrand after parts)
        return 1.0 - self.mean() ** 2

    def breakpoints(self):
        nt = self.n_teeth
        pts = [self.w * (k + 0.5) for k in range(-nt, nt)]
        pts += [-nt * self.w, nt * self.w]
        return tuple(sorted(pts))

    def _segment_slopes(self):
        # ripple slope between consecutive breakpoints; the wave climbs
        # through even integers of u/w and falls through odd ones
        nt = self.n_teeth
        return self.slope * (-1.0) ** (nt + np.arange(2 * nt + 1))

    def _smoothed(self, u, r):
        # N(0, 1 + r^2) times (1 + R/N), with the smoothed ripple R and
        # its slope read from the cached grid; R is exactly 0 outside the
        # grid, where N may underflow, so 1/N is capped to stay finite
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).ravel()
        var = 1.0 + r * r
        log_pdf = -0.5 * u * u / var - 0.5 * math.log(2.0 * math.pi * var)
        score = -u / var
        grid = _ripple_grid(self.w, self.slope, float(r))
        for start in range(0, u.size, _LOOKUP_BLOCK):
            sl = slice(start, start + _LOOKUP_BLOCK)
            ripple, ripple_slope = grid.lookup(u[sl])
            inv_gauss = np.exp(-np.maximum(log_pdf[sl], -700.0))
            ripple *= inv_gauss
            ripple_slope *= inv_gauss
            score[sl] = (score[sl] + ripple_slope) / (1.0 + ripple)
            log_pdf[sl] += np.log1p(ripple)
        return log_pdf.reshape(shape), score.reshape(shape)

    def quadrature_extent(self):
        return (0.0, 0.0, 1.0)


# The smoothed ripple R = ripple * N(0, r^2) is sum_j D_j (u - b_j)_+ * N(0, r^2)
# over the breakpoints b_j with slope changes D_j, and (x)_+ * N(0, r^2) is
# r g(x/r) with g(t) = t Phi(t) + phi(t).  Since g(t) = t + g(-t), R is the
# exact ripple plus sum_j D_j r g(-|t_j|), a sum of bounded terms that vanish
# beyond |t_j| = _RIPPLE_REACH (g(-12) < 1e-33): no cancellation between the
# large linear parts.  Evaluating it per point costs one term per
# breakpoint (42 at w = 0.05), so it is tabulated once per (w, slope, r) on
# a uniform grid with exact first and second derivatives.  Each cell holds
# the monomial coefficients, in the cell fraction, of the cubic Hermite
# interpolants of R and of R' (8 float64 per grid point, 64 MiB at
# _RIPPLE_MAX_POINTS), and a lookup is one cell index, one fraction and two
# Horner cubics.  At spacing r/128 the score error is about 1e-11,
# independent of r.  A run scores at one radius per sample size, so the
# cache keeps the last two tables: at most 128 MiB however many radii a
# sweep visits.
_RIPPLE_REACH = 12.0
_RIPPLE_POINTS_PER_R = 128
_RIPPLE_MAX_POINTS = 1 << 20
_LOOKUP_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class _RippleGrid:
    lo: float
    h: float
    ripple: np.ndarray  # (4, cells): R = sum_k ripple[k, i] * f^k in cell i
    ripple_slope: np.ndarray  # (4, cells): the same for R'

    def lookup(self, u):
        """(R(u), R'(u)); points outside the grid read exact zeros."""
        last = self.ripple.shape[1] - 1
        # points before the grid, and NaN (which fmin/fmax send there), read
        # the zero first node; the Gaussian part keeps the NaN
        f = u - self.lo
        f /= self.h
        np.fmax(f, 0.0, out=f)
        np.fmin(f, last, out=f)
        i = f.astype(np.intp)
        f -= i
        return _horner(self.ripple, i, f), _horner(self.ripple_slope, i, f)


def _horner(coef, i, f):
    out = coef[3][i]
    for k in (2, 1, 0):
        out *= f
        out += coef[k][i]
    return out


def _hermite_cells(value, slope, h):
    # (4, count) monomial coefficients in f = (x - x_i)/h of the cubic
    # matching value and slope at both ends of each cell [x_i, x_i+1];
    # the last cell, past the grid's end, is all zeros
    rise = np.diff(value)
    step_i = h * slope[:-1]
    step_j = h * slope[1:]
    coef = np.zeros((4, value.size))
    coef[0, :-1] = value[:-1]
    coef[1, :-1] = step_i
    coef[2, :-1] = 3.0 * rise - 2.0 * step_i - step_j
    coef[3, :-1] = step_i + step_j - 2.0 * rise
    return coef


@lru_cache(maxsize=2)
def _ripple_grid(w: float, slope: float, r: float) -> _RippleGrid:
    saw = GaussianSawtooth(w, slope)
    kinks = np.asarray(saw.breakpoints())
    seg = saw._segment_slopes()
    jumps = np.diff(seg, prepend=0.0, append=0.0)
    h = r / _RIPPLE_POINTS_PER_R
    lo = kinks[0] - _RIPPLE_REACH * r
    count = int(math.ceil((kinks[-1] + _RIPPLE_REACH * r - lo) / h)) + 1
    if count > _RIPPLE_MAX_POINTS:
        raise PreconditionError(
            f"sawtooth smoothing radius r={r} is too small: its ripple grid "
            f"would need {count} > {_RIPPLE_MAX_POINTS} points"
        )
    u = lo + h * np.arange(count)
    value = saw._ripple(u)
    slope_at = np.concatenate(([0.0], seg, [0.0]))[np.searchsorted(kinks, u)]
    curvature = np.zeros(count)
    reach = int(math.ceil(_RIPPLE_REACH * _RIPPLE_POINTS_PER_R)) + 1
    for b, jump in zip(kinks, jumps):
        center = int(round((b - lo) / h))
        sl = slice(max(center - reach, 0), min(center + reach + 1, count))
        t = (u[sl] - b) / r
        a = -np.abs(t)
        tail = _special().ndtr(a)
        dens = _phi(a)
        value[sl] += jump * r * (a * tail + dens)
        slope_at[sl] += jump * np.where(t > 0.0, -tail, tail)
        curvature[sl] += jump * dens / r
    # the terms left at the end points are below 1e-31; exact zeros make
    # every point before the grid read R = R' = 0, and the zero cell past
    # the end every point after it
    for arr in (value, slope_at, curvature):
        arr[[0, -1]] = 0.0
    return _RippleGrid(float(lo), h, _hermite_cells(value, slope_at, h),
                       _hermite_cells(slope_at, curvature, h))


@dataclass(frozen=True)
class ProductDensity:
    """Product of independent 1-d components; the high-d model."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1 or not all(isinstance(c, Density1d) for c in comps):
            raise PreconditionError("product needs >= 1 one-dimensional components")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def sample(self, n: int, seed: RngSeed):
        if n < 1:
            raise PreconditionError("sample requires n >= 1")
        gen = seed.generator()
        cols = [c._draw(gen, int(n)) for c in self.components]
        return np.column_stack(cols)

    def covariance(self):
        return np.diag([c.variance() for c in self.components])


# Float64 resolves a shifted sample only while the spacing of doubles at
# |lambda| is small against the model's spread.  A shift is accepted up
# to a spacing of this fraction of the model's IQR (the smallest
# component IQR of a product): forming lambda + draw then moves a sample
# by at most half a millionth of the IQR, far below the estimator's error
# at any n the harness runs.  Past it the draws round away, and an error
# of 0 would measure nothing.  A family's own location is held to the
# same fraction of its scale.
_SHIFT_SPACING_FRACTION = 1e-6

# Scales the Gaussian, Laplace and mixture families accept.  Inside this
# range their closed forms run free of overflow, underflow and invalid
# operations; past it sigma**2, the normal-Laplace terms or the Fisher
# integrand overflow or lose the density.
_SCALE_RANGE = (1e-100, 1e100)


def _require_scale(name: str, scale) -> None:
    lo, hi = _SCALE_RANGE
    if not lo <= scale <= hi:
        raise PreconditionError(f"{name} must be in [{lo:g}, {hi:g}], got {scale:g}")


def _require_resolved(name: str, size: float, spread: float, of: str) -> None:
    # a magnitude `size` whose float64 spacing passes the fraction of the
    # spread rounds every draw placed there onto a handful of doubles
    spacing = float(np.spacing(size))
    if not spacing <= _SHIFT_SPACING_FRACTION * spread:
        raise PreconditionError(
            f"{name} = {size:g} is too large for this model: float64 spacing "
            f"there is {spacing:.3g}, more than {_SHIFT_SPACING_FRACTION:g} "
            f"of {of} {spread:.6g}")


def require_resolvable_shift(base, shift, key: str) -> None:
    """Raise PreconditionError naming `key` unless float64 resolves the
    samples of `base` shifted by `shift`, a float or a vector (its
    largest magnitude counts)."""
    comps = base.components if isinstance(base, ProductDensity) else (base,)
    iqr = min(c.iqr() for c in comps)
    _require_resolved(key, float(np.max(np.abs(shift))), iqr, "the model's IQR")

# -- model-spec grammar ------------------------------------------------
#
#   gaussian(mu,sigma) | laplace(mu,b) | sawtooth(w,delta)
#   mixture(w1*gaussian(m1,s1)+w2*gaussian(m2,s2)+...)
#   product(SPEC^d) | product(SPEC,SPEC,...)
#
# Whitespace-insensitive; numbers decimal or scientific.

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<sym>[(),*+^-])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSpecError(f"unexpected character {text[pos]!r}", position=pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ModelSpecError(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                                 position=tok[2])
        return tok

    def number(self) -> float:
        sign = 1.0
        kind, text, pos = self.peek()
        if kind == "sym" and text in "+-":
            self.take()
            sign = -1.0 if text == "-" else 1.0
            kind, text, pos = self.peek()
        if kind != "num":
            raise ModelSpecError(f"expected a number, found {text or 'end of input'!r}",
                                 position=pos)
        self.take()
        value = float(text)
        if math.isinf(value):
            raise ModelSpecError("number out of range", position=pos)
        return sign * value

    def integer(self) -> int:
        kind, text, pos = self.peek()
        v = self.number()
        if v != int(v) or v < 1:
            raise ModelSpecError("expected a positive integer", position=pos)
        return int(v)

    def density(self):
        kind, name, pos = self.take()
        if kind != "name":
            raise ModelSpecError(f"expected a family name, found {name or 'end of input'!r}",
                                 position=pos)
        if name == "gaussian":
            mu, sigma = self._two_args()
            return self._validated(Gaussian, pos, mu, sigma)
        if name == "laplace":
            mu, b = self._two_args()
            return self._validated(Laplace, pos, mu, b)
        if name == "sawtooth":
            w, delta = self._two_args()
            return self._validated(GaussianSawtooth, pos, w, delta)
        if name == "mixture":
            return self._mixture(pos)
        if name == "product":
            return self._product(pos)
        raise ModelSpecError(f"unknown family {name!r}", position=pos)

    def _two_args(self):
        self.expect("sym", "(")
        a = self.number()
        self.expect("sym", ",")
        b = self.number()
        self.expect("sym", ")")
        return a, b

    def _validated(self, ctor, pos, *args):
        try:
            return ctor(*args)
        except PreconditionError as exc:
            raise ModelSpecError(str(exc), position=pos) from exc

    def _mixture(self, pos):
        self.expect("sym", "(")
        weights, means, sigmas = [], [], []
        while True:
            weights.append(self.number())
            self.expect("sym", "*")
            _, name, npos = self.take()
            if name != "gaussian":
                raise ModelSpecError("mixture components must be gaussian", position=npos)
            m, s = self._two_args()
            means.append(m)
            sigmas.append(s)
            kind, text, _ = self.peek()
            if kind == "sym" and text == "+":
                self.take()
                continue
            break
        self.expect("sym", ")")
        return self._validated(GaussianMixture, pos,
                               tuple(weights), tuple(means), tuple(sigmas))

    def _product(self, pos):
        self.expect("sym", "(")
        first = self.density()
        if isinstance(first, ProductDensity):
            raise ModelSpecError("product components must be one-dimensional", position=pos)
        kind, text, _ = self.peek()
        if kind == "sym" and text == "^":
            self.take()
            d = self.integer()
            self.expect("sym", ")")
            return ProductDensity((first,) * d)
        comps = [first]
        while True:
            kind, text, cpos = self.peek()
            if kind == "sym" and text == ",":
                self.take()
                comp = self.density()
                if isinstance(comp, ProductDensity):
                    raise ModelSpecError("product components must be one-dimensional",
                                         position=cpos)
                comps.append(comp)
                continue
            break
        self.expect("sym", ")")
        return ProductDensity(tuple(comps))


def parse_model(text: str):
    """Parse a model-spec string into a Density1d or ProductDensity."""
    p = _Parser(text)
    model = p.density()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ModelSpecError(f"trailing input {tok!r}", position=pos)
    return model


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def format_model(model) -> str:
    """Canonical spec string; inverse of parse_model."""
    if isinstance(model, ProductDensity):
        comps = model.components
        if len(comps) > 1 and all(c == comps[0] for c in comps[1:]):
            return f"product({format_model(comps[0])}^{len(comps)})"
        return "product(" + ",".join(format_model(c) for c in comps) + ")"
    if isinstance(model, Gaussian):
        return f"gaussian({_fmt_num(model.mu)},{_fmt_num(model.sigma)})"
    if isinstance(model, Laplace):
        return f"laplace({_fmt_num(model.mu)},{_fmt_num(model.b)})"
    if isinstance(model, GaussianSawtooth):
        return f"sawtooth({_fmt_num(model.w)},{_fmt_num(model.slope)})"
    if isinstance(model, GaussianMixture):
        terms = [
            f"{_fmt_num(w)}*gaussian({_fmt_num(m)},{_fmt_num(s)})"
            for w, m, s in zip(model.weights, model.means, model.sigmas)
        ]
        return "mixture(" + "+".join(terms) + ")"
    raise ModelSpecError(f"cannot format {type(model).__name__}")

