"""Numerical engine for the r-smoothed model f_r = f * N(0, r^2).

Evaluates the smoothed density, its score s_r = (log f_r)', and the
smoothed Fisher information I_r, plus the diagnostic checks used to
validate the estimator analysis (score inversion bias, expected-score
Taylor expansion, subgamma score moments).

Every family has an exact f_r, evaluated in log space by the family
itself (Density1d._smoothed): Gaussian components keep their form
with variance sigma^2 + r^2, Laplace becomes the normal-Laplace density
(one erfc and one erfcx per point), and the sawtooth is N(0, 1 + r^2)
plus its smoothed ripple, read from a cached grid of exact values and
derivatives.  Pointwise evaluation takes that one path for every batch
size, and each point's value depends on that point alone: a long row
scored in slices (as the 1-d local step scores its row) gives the bits
of the whole row scored at once.  Integrals over x (Fisher information,
expected shifted scores) use composite Gauss-Legendre panels whose
edges sit on every kink of the base density and at geometric multiples
of r around it, where f_r changes on the scale r.

High-d smoothing uses R = r^2*I on product bases, so everything reduces
exactly to per-coordinate 1-d evaluations.

This module needs numpy alone to import; the Gauss-Legendre rule, and
with it scipy.special, is loaded on the first quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError, TailUnderflowError
from .models import Density1d, ProductDensity
from .rng import RngSeed

_LOG_UNDERFLOW = math.log(1e-300)
_UNIFORM_PANELS = 128


@lru_cache(maxsize=None)
def _gauss_legendre():
    """The 20-point Gauss-Legendre nodes and weights on [-1, 1]."""
    from scipy import special

    return special.roots_legendre(20)


def _require_radius(r) -> None:
    if not (r > 0 and math.isfinite(r)):
        raise PreconditionError(f"smoothing radius r must be finite and > 0, got {r}")


@dataclass(frozen=True)
class SmoothedModel1d:
    base: Density1d
    r: float

    def __post_init__(self):
        _require_radius(self.r)


def _log_pdf_and_score(m: SmoothedModel1d, x):
    return m.base._smoothed(np.asarray(x, dtype=float), m.r)


def smoothed_pdf_1d(m: SmoothedModel1d, x):
    """f_r at x, clamped to 0 where it falls below 1e-300."""
    log_pdf, _ = _log_pdf_and_score(m, x)
    den = np.where(log_pdf > _LOG_UNDERFLOW, np.exp(log_pdf), 0.0)
    return float(den) if np.ndim(x) == 0 else den


def smoothed_score_1d(m: SmoothedModel1d, x):
    """s_r at x from the family's exact smoothed form.

    Raises TailUnderflowError at the first point where f_r < 1e-300:
    the score is not trusted that far into the tail.
    """
    log_pdf, score = _log_pdf_and_score(m, x)
    first = _first_underflows(np.reshape(x, (1, -1)), log_pdf.reshape(1, -1))[0]
    if first is not None:
        raise TailUnderflowError(first, m.r)
    return float(score) if np.ndim(x) == 0 else score


def _first_underflows(x: np.ndarray, log_pdf: np.ndarray) -> list:
    """Per row of 2-d x, the first point where f_r < 1e-300, or None."""
    bad = ~(log_pdf > _LOG_UNDERFLOW)
    firsts = [None] * x.shape[0]
    for b in np.flatnonzero(bad.any(axis=1)):
        firsts[b] = float(x[b][bad[b]][0])
    return firsts


def _panel_rule(m: SmoothedModel1d, shift: float = 0.0):
    """Points and weights for integrals over x of f_r(x) g(x + shift).

    Panel edges: a uniform partition of the base's extent padded by
    20 sigma + 12 r (Laplace tail mass beyond: exp(-28) ~ 5e-13), every
    kink b of the base (and b - shift), and b +- r 2^k for k >= -2, so
    panels resolve the r-wide bend of f_r at a kink and widen
    geometrically away from it.
    """
    lo_c, hi_c, sigma = m.base.quadrature_extent()
    pad = 20.0 * sigma + 12.0 * m.r
    lo, hi = lo_c - pad, hi_c + pad
    edges = [np.linspace(lo, hi, _UNIFORM_PANELS + 1)]
    kinks = np.asarray(m.base.breakpoints(), dtype=float)
    if kinks.size:
        kinks = np.union1d(kinks, kinks - shift)
        steps = m.r * 2.0 ** np.arange(-2, math.ceil(math.log2((hi - lo) / m.r)) + 1)
        offsets = np.concatenate((-steps, [0.0], steps))
        edges.append((kinks[:, None] + offsets).ravel())
    edges = np.unique(np.clip(np.concatenate(edges), lo, hi))
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = _gauss_legendre()
    x = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    return x, (half * weights).ravel()


@lru_cache(maxsize=None)
def fisher_1d(m: SmoothedModel1d) -> float:
    """I_r = int f_r s_r^2 by kink-aware Gauss-Legendre; cached per (base, r)."""
    x, w = _panel_rule(m)
    log_pdf, score = _log_pdf_and_score(m, x)
    return float(np.sum(w * np.exp(log_pdf) * score * score))


def expected_shifted_score(m: SmoothedModel1d, eps: float) -> float:
    """E_{x ~ f_r}[s_r(x + eps)] by kink-aware Gauss-Legendre."""
    x, w = _panel_rule(m, eps)
    log_pdf, _ = _log_pdf_and_score(m, x)
    _, score_shifted = _log_pdf_and_score(m, x + eps)
    return float(np.sum(w * np.exp(log_pdf) * score_shifted))


# -- high-dimensional wrappers (product bases, R = r^2 I) ---------------


@dataclass(frozen=True)
class SmoothedModelHd:
    base: ProductDensity
    r: float

    def __post_init__(self):
        if not isinstance(self.base, ProductDensity):
            raise PreconditionError("high-d smoothing expects a product density")
        _require_radius(self.r)

    @property
    def dim(self) -> int:
        return self.base.dim


@lru_cache(maxsize=None)
def _coord_engines(m: SmoothedModelHd):
    return tuple(SmoothedModel1d(c, m.r) for c in m.base.components)


@dataclass(frozen=True)
class FisherMatrix:
    """Smoothed Fisher information, symmetrized on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        mat = 0.5 * (mat + mat.T)  # symmetric within 1e-12 by construction
        object.__setattr__(self, "matrix", mat)

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def smoothed_score_hd(m: SmoothedModelHd, x, coords=None):
    """s_R(x) per coordinate; `coords` restricts evaluation (others 0)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != m.dim:
        raise PreconditionError(f"expected points of dimension {m.dim}")
    out, errors = _smoothed_score_rows(m, pts[None], coords)
    if errors[0] is not None:
        raise errors[0]
    return out[0, 0] if squeeze else out[0]


def _smoothed_score_rows(m: SmoothedModelHd, pts: np.ndarray, coords=None):
    """s_R over a (B, n, d) stack of point sets, one row per set.

    Each coordinate is one evaluation over all B*n points.  Returns the
    scores and, per row, the TailUnderflowError that smoothed_score_hd
    raises on that row alone (at its first coordinate, in `coords`
    order, with a point where f_r < 1e-300), or None.
    """
    engines = _coord_engines(m)
    out = np.zeros_like(pts)
    errors = [None] * pts.shape[0]
    for j in range(m.dim) if coords is None else coords:
        col = pts[:, :, j]
        log_pdf, out[:, :, j] = _log_pdf_and_score(engines[j], col)
        for b, first in enumerate(_first_underflows(col, log_pdf)):
            if errors[b] is None and first is not None:
                errors[b] = TailUnderflowError(f"coordinate {j} value {first}", m.r)
    return out, errors


def fisher_hd(m: SmoothedModelHd) -> FisherMatrix:
    """I_R: the exact diagonal, one 1-d quadrature per coordinate."""
    return FisherMatrix(np.diag([fisher_1d(e) for e in _coord_engines(m)]))


# -- diagnostic checks ---------------------------------------------------


@dataclass(frozen=True)
class InversionBiasCheck:
    bias_norm: float
    predicted_ceiling: float
    bias: np.ndarray


def check_score_inversion_bias(m: SmoothedModelHd, eps) -> InversionBiasCheck:
    """Bias of one exact-score Newton step from offset eps.

    Computes ||E_{x~f_R}[-I_R^{-1} s_R(x + eps)] - eps|| by per-coordinate
    quadrature and the quadratic-scaling reference value
    sqrt(||I_R^{-1}||) * (eps^T R^{-1} eps).
    """
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (m.dim,))
    quad_form = float(np.sum(np.square(eps)) / m.r**2)
    if quad_form > 0.25 + 1e-12:
        raise PreconditionError("requires eps^T R^{-1} eps <= 1/4")
    engines = _coord_engines(m)
    bias = np.empty(m.dim)
    inv_diag = np.empty(m.dim)
    for j, (e, ej) in enumerate(zip(engines, eps)):
        fisher = fisher_1d(e)
        inv_diag[j] = 1.0 / fisher
        if ej == 0.0:
            bias[j] = 0.0  # E[s_r] = 0 exactly; skip the quadrature noise
            continue
        bias[j] = -expected_shifted_score(e, ej) / fisher - ej
    ceiling = math.sqrt(float(np.max(inv_diag))) * quad_form
    return InversionBiasCheck(float(np.linalg.norm(bias)), ceiling, bias)


@dataclass(frozen=True)
class TaylorCheck:
    lhs: float
    linear_term: float
    residual: float


def expected_score_taylor_check(m: SmoothedModel1d, eps: float) -> TaylorCheck:
    """E_{x~f_r}[s_r(x - eps)] against its linearization I_r * eps."""
    eps = float(eps)
    if abs(eps) > m.r / 2 + 1e-12:
        raise PreconditionError("requires |eps| <= r/2")
    lhs = expected_shifted_score(m, -eps)
    linear = fisher_1d(m) * eps
    return TaylorCheck(lhs, linear, lhs - linear)


@dataclass(frozen=True)
class MomentCheck:
    moment_abs: float
    ceiling: float
    se_abs: float
    moment_signed: float
    se_signed: float


def score_moment_check(m: SmoothedModelHd, v, k: int, n_mc: int,
                       seed: RngSeed) -> MomentCheck:
    """Monte Carlo k-th absolute moment of v^T R^{1/2} s_R(x), x ~ f_R.

    Reports the empirical moment with its standard error and the
    subgamma ceiling 1.6^{k-2} k^{k/2} (v^T R^{1/2} I_R R^{1/2} v).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (m.dim,):
        raise PreconditionError(f"v must have dimension {m.dim}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise PreconditionError("v must be a unit vector within 1e-12")
    if not 3 <= int(k) <= 8:
        raise PreconditionError("k must be in 3..8")
    if n_mc < 10_000:
        raise PreconditionError("n_mc must be >= 10^4")
    k = int(k)
    y = m.base.sample(n_mc, seed.derive(1))
    noise = seed.derive(2).generator().standard_normal(y.shape)
    active = tuple(int(j) for j in np.nonzero(v)[0])
    scores = smoothed_score_hd(m, y + m.r * noise, coords=active)
    proj = m.r * (scores @ v)  # R^{1/2} = r I
    powered = np.abs(proj) ** k
    moment = float(powered.mean())
    se = float(powered.std(ddof=1) / math.sqrt(n_mc))
    signed = proj**k
    engines = _coord_engines(m)
    quad_form = m.r**2 * sum(v[j] ** 2 * fisher_1d(engines[j]) for j in active)
    ceiling = 1.6 ** (k - 2) * k ** (k / 2.0) * quad_form
    return MomentCheck(moment, float(ceiling), se,
                       float(signed.mean()),
                       float(signed.std(ddof=1) / math.sqrt(n_mc)))
