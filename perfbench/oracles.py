"""Reference computations made apart from smoothloc.

Nothing here imports the package.  The Laplace case uses the closed
form of Laplace convolved with a Gaussian (the normal-Laplace density,
Reed & Jorgensen 2004); every other density uses a brute-force
composite Gauss-Legendre integral over the density's own variable, with
panel edges on its kinks.  The concentration oracles are the chi
distribution from scipy.stats and the subgamma norm bound written out
from its formula.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special, stats

_SQRT2PI = math.sqrt(2.0 * math.pi)
_GL_NODES = 16
_WINDOW = 12.0  # kernel half-width in units of r; phi(12) ~ 1e-32


# -- normal-Laplace: Laplace(0, b) convolved with N(0, r^2) -------------


def _laplace_log_terms(x, b, r):
    x = np.asarray(x, dtype=float)
    a = x / b + special.log_ndtr(-x / r - r / b)   # mass left of 0
    c = -x / b + special.log_ndtr(x / r - r / b)   # mass right of 0
    return a, c


def normal_laplace_pdf(x, b, r):
    a, c = _laplace_log_terms(x, b, r)
    return np.exp(r * r / (2 * b * b) + np.logaddexp(a, c)) / (2.0 * b)


def normal_laplace_score(x, b, r):
    """(log f_r)'(x); the Gaussian-kernel terms cancel exactly."""
    a, c = _laplace_log_terms(x, b, r)
    return np.tanh(0.5 * (a - c)) / b


def normal_laplace_fisher(b, r):
    """int f_r s_r^2 by adaptive quadrature on the closed form."""
    def integrand(x):
        return normal_laplace_pdf(x, b, r) * normal_laplace_score(x, b, r) ** 2

    half, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0,
                             epsrel=1e-13, limit=500)
    return 2.0 * half  # the integrand is even


# -- brute-force kink-aligned Gauss-Legendre convolution ----------------


def sawtooth_pdf(u, w, slope):
    """N(0,1) pdf plus the triangle ripple, from the family's definition.

    The ripple w*slope*tri(u/w) is odd with period 2w, slope +-slope,
    peaks +-w*slope/2 at (k+1/2)w, and covers the whole teeth inside
    [-1, 1].
    """
    u = np.asarray(u, dtype=float)
    teeth = math.floor(1.0 / w + 1e-9)
    t = np.mod(u / w + 0.5, 2.0) - 0.5           # in [-1/2, 3/2)
    tri = np.where(t < 0.5, t, 1.0 - t)
    ripple = np.where(np.abs(u) <= teeth * w, w * slope * tri, 0.0)
    return np.exp(-0.5 * u * u) / _SQRT2PI + ripple


def sawtooth_kinks(w):
    teeth = math.floor(1.0 / w + 1e-9)
    pts = [(k + 0.5) * w for k in range(-teeth, teeth)]
    return tuple(sorted(pts + [-teeth * w, teeth * w]))


def laplace_pdf(u, b):
    return np.exp(-np.abs(np.asarray(u, dtype=float)) / b) / (2.0 * b)


def gaussian_pdf(u, sigma):
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * (u / sigma) ** 2) / (sigma * _SQRT2PI)


class GLConvolution:
    """f_r = f * N(0, r^2) and f_r' by composite Gauss-Legendre in u.

    Panels of width at most r/4 cover [-reach, reach], with extra edges
    on every kink of f, so f is smooth inside each panel and the
    Gaussian kernel is resolved to machine precision.
    """

    def __init__(self, pdf, kinks, r, reach):
        self.r = float(r)
        n_uniform = int(math.ceil(2.0 * reach / (self.r / 4.0)))
        edges = np.union1d(np.linspace(-reach, reach, n_uniform + 1),
                           np.asarray(kinks, dtype=float))
        t, wt = leggauss(_GL_NODES)
        lo, hi = edges[:-1, None], edges[1:, None]
        half = 0.5 * (hi - lo)
        self.u = (0.5 * (hi + lo) + half * t).ravel()
        self.wf = (half * wt).ravel() * pdf(self.u)

    def pdf_and_derivative(self, x):
        x = np.asarray(x, dtype=float)
        order = np.argsort(x)
        den = np.empty(x.size)
        der = np.empty(x.size)
        span = _WINDOW * self.r
        for start in range(0, x.size, 128):
            idx = order[start:start + 128]
            xs = x[idx]
            a = np.searchsorted(self.u, xs.min() - span)
            b = np.searchsorted(self.u, xs.max() + span)
            d = xs[:, None] - self.u[None, a:b]
            k = np.exp(-0.5 * (d / self.r) ** 2) / (self.r * _SQRT2PI)
            k *= self.wf[None, a:b]
            den[idx] = k.sum(axis=1)
            der[idx] = -(k * d).sum(axis=1) / (self.r * self.r)
        return den, der

    def score(self, x):
        den, der = self.pdf_and_derivative(x)
        return der / den

    def fisher(self, lo, hi):
        """int f_r'^2 / f_r over [lo, hi] by panels of width r/2."""
        n_panels = int(math.ceil((hi - lo) / (self.r / 2.0)))
        edges = np.linspace(lo, hi, n_panels + 1)
        t, wt = leggauss(_GL_NODES)
        half = 0.5 * (edges[1:, None] - edges[:-1, None])
        x = (0.5 * (edges[1:, None] + edges[:-1, None]) + half * t).ravel()
        w = (half * wt).ravel()
        den, der = self.pdf_and_derivative(x)
        return float(np.sum(w * der * der / den))


# -- concentration --------------------------------------------------------


def chi_quantile(d, delta, n):
    """(1-delta) quantile of ||N(0, I_d)|| and the Monte Carlo sd of the
    empirical order statistic from n draws (asymptotic normality)."""
    p = 1.0 - delta
    q = float(stats.chi.ppf(p, d))
    sd = math.sqrt(p * (1.0 - p) / n) / float(stats.chi.pdf(q, d))
    return q, sd


def unit_subgamma_bound(family, d, delta):
    """Norm bound of the unit-parameter families, written out by hand.

    gaussian and rademacher claim (I, 0); exponential claims (2I, 2I).
    """
    log_term = math.log(2.0 / delta)
    if family in ("gaussian", "rademacher"):
        return math.sqrt(d) + 4.0 * math.sqrt(log_term)
    if family == "exponential":
        trace, norm, c_norm, c_frob = 2.0 * d, 2.0, 2.0, 2.0 * math.sqrt(d)
        return (math.sqrt(trace) + 4.0 * math.sqrt(norm * log_term)
                + 16.0 * c_norm * log_term
                + min(4.0 * c_frob * math.sqrt(log_term),
                      8.0 * c_frob ** 2 / math.sqrt(trace) * log_term))
    raise ValueError(f"unknown family {family!r}")
