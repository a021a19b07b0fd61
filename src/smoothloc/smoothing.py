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
derivatives.  Each point's value depends on that point alone, so one
scorer, _score_in_place, writes scores over points _LOOKUP_BLOCK at a
time with the bits of one whole call.  _perturbed_scores alone perturbs:
per slice of a (B, n, d) stack it draws the rows' noise into one buffer,
perturbs and scores the points there and writes them back.  Both local
steps run it on their samples, and the two Monte Carlo score
diagnostics on one fresh draw (_scored_sample), every coordinate
scored; so each holds its sample plus slices.
Integrals over x (Fisher information, expected shifted scores) use
composite Gauss-Legendre panels whose edges sit on every kink of the
base density and at geometric multiples of r around it, where f_r
changes on the scale r.

High-d smoothing uses R = r^2*I on product bases, so everything reduces
exactly to per-coordinate 1-d evaluations.

This module needs numpy alone, and never loads scipy itself: the
Gauss-Legendre rule is a table of constants, and scipy.special loads
only with a family's smoothed form that calls it (models._special).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (PreconditionError, TailUnderflowError, require_finite_samples,
                     require_int)
from .models import _LOOKUP_BLOCK, Density1d, ProductDensity
from .rng import RngSeed

_LOG_UNDERFLOW = math.log(1e-300)
_UNIFORM_PANELS = 128

# The 20-point Gauss-Legendre rule on [-1, 1], the bits of
# scipy.special.roots_legendre(20): its positive nodes, ascending, and
# their weights.  That rule is exactly symmetric (x = -x[::-1],
# w = w[::-1]), so the negative half is the mirror image.
_GL_HALF = np.array([[float.fromhex(x), float.fromhex(w)] for x, w in (
    ("0x1.3973df98b86adp-4", "0x1.38d6c490a3367p-3"),
    ("0x1.d281636928bbfp-3", "0x1.31819b52c598dp-3"),
    ("0x1.7eaccf15652c4p-2", "0x1.230348f34a52bp-3"),
    ("0x1.05905c13f7ff6p-1", "0x1.0db2c5db26df8p-3"),
    ("0x1.45a8d3fa710dap-1", "0x1.e41ff31573b48p-4"),
    ("0x1.7e1f37346a54ep-1", "0x1.a1817a317a814p-4"),
    ("0x1.ada0bd5efd6e8p-1", "0x1.5519fe196e227p-4"),
    ("0x1.d31064173fd92p-1", "0x1.00b467df7e488p-4"),
    ("0x1.ed8dba7bd769ep-1", "0x1.4c9b5ea53b6cdp-5"),
    ("0x1.fc7b5a0c71ce0p-1", "0x1.209680274e953p-6"),
)])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


def _gauss_legendre():
    """The 20-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    return _GL_NODES, _GL_WEIGHTS


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
    require_finite_samples(x)
    log_pdf, _ = _log_pdf_and_score(m, x)
    den = np.where(log_pdf > _LOG_UNDERFLOW, np.exp(log_pdf), 0.0)
    return float(den) if np.ndim(x) == 0 else den


def smoothed_score_1d(m: SmoothedModel1d, x):
    """s_r at x from the family's exact smoothed form.

    Raises TailUnderflowError at the first point where f_r < 1e-300:
    the score is not trusted that far into the tail.
    """
    x = np.asarray(x, dtype=float)
    require_finite_samples(x)
    score = x.reshape(-1, 1).copy()
    (first,) = _score_in_place((m,), score, [None], 0, len(score))
    if first is not None:
        raise TailUnderflowError(first[1], m.r)
    return float(score[0, 0]) if x.ndim == 0 else score.reshape(x.shape)


def _score_in_place(engines, pts: np.ndarray, firsts: list, b0: int,
                    n: int) -> list:
    """Write over (m, d) points, whole n-point rows of a stack from row b0
    on or a piece of row b0, their smoothed scores, engines[j] scoring
    coordinate j, _LOOKUP_BLOCK points at a time.  firsts[b] keeps, as
    (j, x), row b's first underflow (f_r < 1e-300) in the least j; calls
    must come in point order.  Returns firsts."""
    for i0 in range(0, len(pts), _LOOKUP_BLOCK):
        for j, engine in enumerate(engines):
            col = pts[i0 : i0 + _LOOKUP_BLOCK, j]
            log_pdf, score = _log_pdf_and_score(engine, col)
            bad = i0 + np.flatnonzero(~(log_pdf > _LOG_UNDERFLOW))
            rows_bad, first_bad = np.unique(bad // n, return_index=True)
            for row, p in zip(rows_bad, bad[first_bad]):
                # an earlier slice's find in the same j came at an earlier point
                if firsts[b0 + row] is None or j < firsts[b0 + row][0]:
                    firsts[b0 + row] = (j, float(pts[p, j]))
            col[...] = score
    return firsts


def _perturbed_scores(engines, x: np.ndarray, shift: np.ndarray, seeds) -> list:
    """Score in place each row of (B, n, d) samples at x[b] + r * noise -
    shift[b], its noise from seeds[b].  Returns per row (j, x), the
    first point x with f_r < 1e-300 in the least such j, or None.

    Slice by slice, the rows' noise is drawn into one slice-long buffer,
    perturbed and scored there and written back over x.
    """
    rows, n, d = x.shape
    # a slice is up to _LOOKUP_BLOCK points: whole rows, or a piece of one
    per = max(_LOOKUP_BLOCK // n, 1)
    gens = [seed.generator() for seed in seeds]
    firsts = [None] * rows
    buf = np.empty(min(_LOOKUP_BLOCK, rows * n) * d)
    for b0 in range(0, rows, per):
        for i0 in range(0, n, _LOOKUP_BLOCK):
            sl = x[b0 : b0 + per, i0 : i0 + _LOOKUP_BLOCK]
            pts = buf[: sl.size].reshape(sl.shape)
            for gen, noise in zip(gens[b0 : b0 + per], pts):
                # one row's draws in pieces are its draws in one call
                gen.standard_normal(out=noise)
            # x + r * noise - shift: the same roundings, no temporaries
            pts *= engines[0].r
            pts += sl
            pts -= shift[b0 : b0 + per, None, :]
            _score_in_place(engines, pts.reshape(-1, d), firsts, b0, n)
            sl[...] = pts
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


def smoothed_score_hd(m: SmoothedModelHd, x):
    """s_R(x) per coordinate, at a point or at each row of x."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != m.dim:
        raise PreconditionError(f"expected points of dimension {m.dim}")
    require_finite_samples(pts)
    score = pts.copy()
    (first,) = _score_in_place(_coord_engines(m), score, [None], 0, len(score))
    if first is not None:
        raise TailUnderflowError(f"coordinate {first[0]} value {first[1]}", m.r)
    return score[0] if squeeze else score


def _scored_sample(m: SmoothedModelHd, n: int, shift: np.ndarray,
                   seed: RngSeed) -> np.ndarray:
    """s_R at y + r * noise - shift for n draws y ~ f, y from
    seed.derive(1) and the noise from seed.derive(2), scored in place
    (_perturbed_scores): the draw of both Monte Carlo score diagnostics.
    An underflow raises as smoothed_score_hd raises it on those points."""
    y = m.base.sample(n, seed.derive(1))
    (first,) = _perturbed_scores(_coord_engines(m), y[None], shift[None],
                                 [seed.derive(2)])
    if first is not None:
        raise TailUnderflowError(f"coordinate {first[0]} value {first[1]}", m.r)
    return y


def fisher_hd(m: SmoothedModelHd) -> FisherMatrix:
    """I_R: the exact diagonal, one 1-d quadrature per coordinate."""
    return FisherMatrix(np.diag([fisher_1d(e) for e in _coord_engines(m)]))


# -- diagnostic checks ---------------------------------------------------


@dataclass(frozen=True)
class InversionBiasCheck:
    bias_norm: float
    predicted_ceiling: float
    bias: np.ndarray


def _small_offset(m: SmoothedModelHd, eps) -> tuple[np.ndarray, float]:
    """eps as a new (dim,) array, and eps^T R^{-1} eps, which must be <= 1/4."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim > 1 or eps.size not in (1, m.dim):
        raise PreconditionError(f"eps must be a scalar or {m.dim} offsets, one per "
                                f"dimension, got shape {eps.shape}")
    eps = np.broadcast_to(eps, (m.dim,)).copy()
    quad_form = float(np.sum(np.square(eps)) / m.r**2)
    if not quad_form <= 0.25 + 1e-12:  # written so that NaN fails too
        raise PreconditionError(
            f"requires eps^T R^{{-1}} eps <= 1/4, got eps = {eps.tolist()}")
    return eps, quad_form


def check_score_inversion_bias(m: SmoothedModelHd, eps) -> InversionBiasCheck:
    """Bias of one exact-score Newton step from offset eps.

    Computes ||E_{x~f_R}[-I_R^{-1} s_R(x + eps)] - eps|| by per-coordinate
    quadrature and the quadratic-scaling reference value
    sqrt(||I_R^{-1}||) * (eps^T R^{-1} eps).
    """
    eps, quad_form = _small_offset(m, eps)
    bias = np.empty(m.dim)
    inv_diag = np.empty(m.dim)
    for j, (e, ej) in enumerate(zip(_coord_engines(m), eps)):
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
    if not abs(eps) <= m.r / 2 + 1e-12:  # written so that NaN fails too
        raise PreconditionError(f"requires |eps| <= r/2, got eps = {eps}")
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
    if not np.isfinite(v).all():  # a NaN norm would pass the unit test
        raise PreconditionError(f"v must be finite, got {v.tolist()}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise PreconditionError("v must be a unit vector within 1e-12")
    k = require_int(k, "k", 3, 8)
    n_mc = require_int(n_mc, "n_mc", 10_000)
    y = _scored_sample(m, n_mc, np.zeros(m.dim), seed)
    proj = m.r * (y @ v)  # R^{1/2} = r I
    powered = np.abs(proj) ** k
    signed = proj**k
    quad_form = m.r**2 * sum(vj ** 2 * fisher_1d(e)
                             for vj, e in zip(v, _coord_engines(m)) if vj)
    ceiling = 1.6 ** (k - 2) * k ** (k / 2.0) * quad_form
    root_n = math.sqrt(n_mc)
    return MomentCheck(float(powered.mean()), float(ceiling),
                       float(powered.std(ddof=1) / root_n), float(signed.mean()),
                       float(signed.std(ddof=1) / root_n))
