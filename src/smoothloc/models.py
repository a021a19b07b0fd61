"""Translation families f^lambda(x) = f(x - lambda).

Four one-dimensional shapes (Gaussian, Laplace, finite Gaussian mixture,
Gaussian plus sawtooth ripple) and their products, each with exact pdf,
cdf, quantile, and sampler, and the exact log-density and score of the
shape convolved with N(0, r^2).  A model is the base f, located by its
own parameters; the unknown shift lambda belongs to the data, which
callers form as samples of f plus lambda.  The sawtooth is the standard
Gaussian plus one ripple evaluation.  parse_model and format_model read
the two-parameter families from one table, _FAMILIES.

`sample(n, seed, out=None)` draws from seed's generator into a new array
or, as numpy's generators do, into the caller's C-contiguous float64
`out`, with the same bits either way.  Each family has one draw path,
`_draw_into`, which fills the vector it is given; a product fills each
component's column in turn from one generator.  The sawtooth draws n
normals into the caller's array, thins its negative ripple lobes there
and refills the removed points from the positive lobes, slice by slice,
so beside the array it holds one slice of temporaries and the removed
points' indices.

Instances are frozen and hashable; downstream caches key on them
directly.  Parameters are checked on construction: scales within
[1e-100, 1e100], a location that float64 resolves at its scale, and a
sawtooth tooth width of at least 1e-3.

scipy.special (ndtr, ndtri, erfc, erfcx and logsumexp) is imported by
_special() on the first call that needs it, not with this module, so
that importing smoothloc needs numpy alone.  No other scipy module is
loaded by the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ModelSpecError, PreconditionError, require_int
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

    def _draw_into(self, gen: np.random.Generator, out: np.ndarray) -> None:
        # fill the contiguous float64 vector `out` with draws from gen
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

    def sample(self, n: int, seed: RngSeed, out: np.ndarray | None = None):
        """n draws from seed's generator, as a new array or written into
        `out`, a C-contiguous float64 array of shape (n,), and returned."""
        n = _sample_count(n)
        out = np.empty(n) if out is None else _require_out(out, (n,))
        self._draw_into(seed.generator(), out)
        return out

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


def _sample_count(n) -> int:
    return require_int(n, "n", 1)


def _require_out(out, shape: tuple) -> np.ndarray:
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape and out.flags.c_contiguous
            and out.flags.writeable):
        got = (f"{out.dtype} array of shape {out.shape}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise PreconditionError(
            f"sample out must be a writable C-contiguous float64 array of "
            f"shape {shape}, got {got}")
    return out


def _bisect_cdf(cdf, p, lo, hi, tol=1e-10):
    p = np.asarray(p, dtype=float)
    flat = np.atleast_1d(p)
    a = np.full(flat.shape, float(lo))
    b = np.full(flat.shape, float(hi))
    # tol is absolute for a bracket at least 1 wide and relative to a
    # narrower one (an absolute 1e-10 would end a 1e-19-wide bracket after
    # one halving); 60 halvings take any desk-scale bracket below it
    tol *= min(1.0, float(hi) - float(lo))
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

    def _draw_into(self, gen, out):
        # mu + sigma * z, in that rounding
        gen.standard_normal(out=out)
        out *= self.sigma
        out += self.mu

    def mean(self):
        return float(self.mu)

    def variance(self):
        return self.sigma**2

    def _smoothed(self, u, r):
        # log_pdf = -0.5 d d / var - log(2 pi var)/2 and score = -d / var,
        # in two arrays of u's shape, each step in place in that rounding
        # order; a 0-d u gives numpy scalars
        var = self.sigma**2 + r * r
        d = np.array(u, dtype=float)
        d -= self.mu
        log_pdf = -0.5 * d
        log_pdf *= d
        log_pdf /= var
        log_pdf -= 0.5 * math.log(2.0 * math.pi * var)
        score = np.negative(d, out=d)
        score /= var
        return log_pdf[()], score[()]

    def quadrature_extent(self):
        return (self.mu, self.mu, self.sigma)


# The largest r/b at which Laplace._smoothed is used; see there.
_LAPLACE_MAX_K = 1e3


@dataclass(frozen=True)
class Laplace(Density1d):
    """Laplace(mu, b).  Its smoothing by N(0, r^2) is evaluated for
    r/b <= 1e3 and refused beyond, where the score loses its digits."""

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

    def _draw_into(self, gen, out):
        # Generator.laplace has no out=
        out[...] = gen.laplace(self.mu, self.b, out.size)

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
        # At k >> 1 near and far agree to about 1/k, so far - near keeps
        # roughly 1e-16 k of relative precision: 3e-10 at k = 1e3, 1e-4 at
        # 1e6, none at 1e8.
        b = self.b
        k = r / b
        if not k <= _LAPLACE_MAX_K:
            raise PreconditionError(
                f"laplace smoothing radius r = {r:g} is r/b = {k:g} times the "
                f"scale b = {b:g}; the score keeps its digits only up to "
                f"r/b = {_LAPLACE_MAX_K:g}")
        # A call holds five arrays of u's length, its outputs included: t
        # (then sign(t), then the score), tau (then log_scale, then log_pdf),
        # z (then near), x1 (then far) and x2 (then e^{-x2^2}, then total).
        # Each step is done in place in the rounding order of the forms above.
        t = np.reshape(np.asarray(u, dtype=float) - self.mu, -1)
        log_scale = np.abs(t)  # tau
        np.sign(t, out=t)
        z = np.minimum(log_scale, r * (k + 40.0))
        z /= r
        log_scale /= b
        np.subtract(0.5 * k * k - math.log(4.0 * b), log_scale, out=log_scale)
        far = z + k
        far *= _SQRT_HALF  # x1
        x2 = k - z
        x2 *= _SQRT_HALF
        special = _special()
        if k * _SQRT_HALF > _ERFC_MAX_X:  # x2 is at most k/sqrt2
            deep = x2 > _ERFC_MAX_X
            log_scale[deep] = -0.5 * np.square(z[deep]) - math.log(4.0 * b)
            near = special.erfc(np.minimum(x2, _ERFC_MAX_X, out=z), out=z)
            near[deep] = special.erfcx(x2[deep])
            x2[deep] = 0.0  # far stays erfcx(x1) there
        else:
            near = special.erfc(x2, out=z)
        special.erfcx(far, out=far)
        np.square(x2, out=x2)
        np.negative(x2, out=x2)  # -(x2 x2) rounds as (-x2) x2 does
        far *= np.exp(x2, out=x2)
        total = np.add(near, far, out=x2)
        far -= near
        log_pdf = log_scale
        log_pdf += np.log(total, out=near)
        score = t
        score *= far
        total *= b
        score /= total
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

    def _draw_into(self, gen, out):
        # m + s * z per draw's component, in that rounding
        w, m, s = self._arrays()
        comp = gen.choice(len(self.weights), size=out.size, p=w / w.sum())
        gen.standard_normal(out=out)
        out *= s[comp]
        out += m[comp]

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
    # odd triangle wave, period 2, slope +-1, peaks +-1/2 at half-integers:
    # |s - 2 floor(s/2) - 1| - 1/2 with s = t - 1/2, in place on two
    # temporaries; s - 2 floor(s/2) rounds the same exact value as
    # np.mod(s, 2), once
    s = t - 0.5
    k = 0.5 * s
    np.floor(k, out=k)
    k *= 2.0
    s -= k
    s -= 1.0
    np.abs(s, out=s)
    s -= 0.5
    return s


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

    def _ripple_at(self, flat_u):
        """(idx, ripple): the indices of the 1-d flat_u inside the ripple's
        narrow support, and the ripple there."""
        idx = np.flatnonzero(np.abs(flat_u) <= self.n_teeth * self.w)
        t = flat_u[idx]
        t /= self.w
        ripple = _tri_wave(t)
        ripple *= self.w * self.slope
        return idx, ripple

    def _ripple(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        idx, ripple = self._ripple_at(u.reshape(-1))
        out.reshape(-1)[idx] += ripple  # 0 + ripple: a -0 ripple reads +0
        return out

    def _pdf(self, u):
        return _STANDARD_NORMAL._pdf(u) + self._ripple(u)

    def _cdf(self, u):
        u = np.asarray(u, dtype=float)
        edge = self.n_teeth * self.w
        t = np.clip(u, -edge, edge) / self.w
        ripple_mass = (
            self.w**2
            * self.slope
            * (_tri_wave_integral(t) - _tri_wave_integral(np.float64(self.n_teeth)))
        )
        return _STANDARD_NORMAL._cdf(u) + ripple_mass

    def _bracket(self):
        return (-14.0, 14.0)

    def _draw_into(self, gen, out):
        # Thinning and refill.  The ripple has zero mass, so it splits as
        # ripple+ - ripple-, its positive and negative lobes, each of mass
        # A = n_teeth * w * amp / 2.  Draw n normals into out; remove each
        # point y in a negative lobe with probability ripple-(y) / phi(y)
        # (at most amp / phi(1) < 0.83, since amp <= 0.2), which leaves
        # density phi - ripple- and removes mass A; then overwrite each
        # removed point with a draw from ripple+ / A.  Every position ends
        # with density phi - ripple- + ripple+ = f, independently of the
        # others.  The stream holds all n normals, then one uniform per
        # point in a negative lobe, in index order, then three uniforms
        # per removed point (the lobe, and two for its triangle), in index
        # order, so the slices below bound the temporaries without
        # changing a draw: the refill keeps each slice's removed indices
        # and draws its (k, 3) uniforms in turn, the numbers of one
        # (m, 3) draw.  At slope 0 there are no lobes, and the draw is
        # the normals alone.
        gen.standard_normal(out=out)
        if self.slope == 0.0:
            return
        removed = []
        for start in range(0, out.size, _LOOKUP_BLOCK):
            y = out[start : start + _LOOKUP_BLOCK]
            idx, ripple = self._ripple_at(y)
            neg = np.flatnonzero(ripple < 0.0)
            idx = idx[neg]
            # remove where u * phi(y) < ripple-(y) = -ripple(y), with phi
            # in place in _phi's order
            p = y[idx]
            np.square(p, out=p)
            p *= -0.5
            np.exp(p, out=p)
            p /= _SQRT2PI
            p *= gen.random(idx.size)
            removed.append(start + idx[p < -ripple[neg]])
        # each removed point becomes a draw from ripple+ / A: one of the
        # n_teeth positive lobes, u/w in (2j, 2j + 1), uniformly, then the
        # lobe's triangle w * (2j + (U1 + U2) / 2)
        for idx in removed:
            unif = gen.random((idx.size, 3))
            lobe = np.floor(unif[:, 0] * self.n_teeth)
            lobe -= self.n_teeth // 2
            tri = unif[:, 1] + unif[:, 2]
            tri *= 0.5
            tri += 2.0 * lobe
            tri *= self.w
            out[idx] = tri

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
        # grid, where N may underflow, so 1/N is capped to stay finite.
        # At slope 0, R = 0 everywhere and the Gaussian part is the answer
        # (adding R's zeros would only turn a score of -0 into +0).
        # Beside the two outputs a slice holds the lookup's five arrays, then
        # R, R' and one buffer: 1/N, then 1 + R.  Each step is done in place
        # with the operands of (score + R'/N) / (1 + R/N) and
        # log_pdf + log1p(R/N) in their order, so every bit is kept.
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).ravel()
        log_pdf, score = _STANDARD_NORMAL._smoothed(u, r)
        if self.slope == 0.0:
            return log_pdf.reshape(shape), score.reshape(shape)
        grid = _ripple_grid(self.w, self.slope, float(r))
        for start in range(0, u.size, _LOOKUP_BLOCK):
            sl = slice(start, start + _LOOKUP_BLOCK)
            ripple, ripple_slope = grid.lookup(u[sl])
            buf = np.maximum(log_pdf[sl], -700.0)
            np.negative(buf, out=buf)
            inv_gauss = np.exp(buf, out=buf)
            ripple *= inv_gauss
            ripple_slope *= inv_gauss
            np.add(score[sl], ripple_slope, out=ripple_slope)
            np.divide(ripple_slope, np.add(1.0, ripple, out=buf),
                      out=score[sl])
            log_pdf[sl] += np.log1p(ripple, out=ripple)
        return log_pdf.reshape(shape), score.reshape(shape)

    def quadrature_extent(self):
        return _STANDARD_NORMAL.quadrature_extent()


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
# Points per slice of the sawtooth draw, its ripple lookup and the scorer.
# The 2-thread 1-d coverage benchmark (laplace, n = 10^4) peaks at 61.3 MB
# RSS with 2^15 and at 65.1 MB with 2^16; 2^14 scaled worse on 2 threads.
_LOOKUP_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class _RippleGrid:
    lo: float
    h: float
    ripple: np.ndarray  # (4, cells): R = sum_k ripple[k, i] * f^k in cell i
    ripple_slope: np.ndarray  # (4, cells): the same for R'

    def lookup(self, u):
        """(R(u), R'(u)) at the 1-d u; points outside the grid read exact
        zeros.  Each is a Horner cubic in the cell fraction f, computed in
        place: a call holds five arrays of u's length, its two outputs
        included (f, the cell index, R, R' and one buffer that each
        coefficient is gathered into)."""
        last = self.ripple.shape[1] - 1
        # points before the grid, and NaN (which fmin/fmax send there), read
        # the zero first node; the Gaussian part keeps the NaN
        f = u - self.lo
        f /= self.h
        np.fmax(f, 0.0, out=f)
        np.fmin(f, last, out=f)
        i = f.astype(np.intp)
        f -= i
        # every index is in range, so mode="clip" only skips the bounds check
        gathered = np.empty_like(f)
        values = []
        for coef in (self.ripple, self.ripple_slope):
            value = np.take(coef[3], i, mode="clip")
            for k in (2, 1, 0):
                value *= f
                value += np.take(coef[k], i, out=gathered, mode="clip")
            values.append(value)
        return tuple(values)


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

    def sample(self, n: int, seed: RngSeed, out: np.ndarray | None = None):
        """(n, dim) draws, the components in turn from one generator, as a
        new array or written into `out`, a C-contiguous float64 array of
        that shape, and returned."""
        n = _sample_count(n)
        shape = (n, self.dim)
        out = np.empty(shape) if out is None else _require_out(out, shape)
        # the generators fill contiguous vectors only, and a column is strided
        col = np.empty(n)
        gen = seed.generator()
        for j, c in enumerate(self.components):
            c._draw_into(gen, col)
            out[:, j] = col
        return out

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


# The sawtooth's Gaussian part, built once the checks above exist.  Its forms
# at mu = 0, sigma = 1 round as the plain ones: u - 0.0 and u / 1.0 are u,
# and 1.0**2 + r*r is 1 + r*r.
_STANDARD_NORMAL = Gaussian(0.0, 1.0)


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

# The two-parameter families by spec name.  The parser passes a spec's
# arguments to the class in order, and format_model writes its dataclass
# fields in that order.
_FAMILIES = {"gaussian": Gaussian, "laplace": Laplace, "sawtooth": GaussianSawtooth}

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
        if name in _FAMILIES:
            return self._validated(_FAMILIES[name], pos, *self._two_args())
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
            if self.peek()[:2] != ("sym", "+"):
                break
            self.take()
        self.expect("sym", ")")
        return self._validated(GaussianMixture, pos,
                               tuple(weights), tuple(means), tuple(sigmas))

    def _component(self, pos):
        # a product's factor; an error names `pos`, the product or the comma
        comp = self.density()
        if isinstance(comp, ProductDensity):
            raise ModelSpecError("product components must be one-dimensional", position=pos)
        return comp

    def _product(self, pos):
        self.expect("sym", "(")
        comps = [self._component(pos)]
        if self.peek()[:2] == ("sym", "^"):
            self.take()
            comps *= self.integer()
        else:
            while self.peek()[:2] == ("sym", ","):
                comps.append(self._component(self.take()[2]))
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
    for name, family in _FAMILIES.items():
        if isinstance(model, family):
            args = ",".join(_fmt_num(getattr(model, f.name)) for f in fields(family))
            return f"{name}({args})"
    if isinstance(model, GaussianMixture):
        terms = [
            f"{_fmt_num(w)}*gaussian({_fmt_num(m)},{_fmt_num(s)})"
            for w, m, s in zip(model.weights, model.means, model.sigmas)
        ]
        return "mixture(" + "+".join(terms) + ")"
    raise ModelSpecError(f"cannot format {type(model).__name__}")

