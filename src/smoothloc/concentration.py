"""Norm concentration bounds for subgamma random vectors, with samplers.

A vector x is (Sigma, C)-subgamma when E[exp(lambda <x,v>)] <=
exp(lambda^2 v^T Sigma v / 2) for every unit v and |lambda| <= 1/||Cv||.
C = 0 encodes the subgaussian case (no admissible-range cap).  The module
evaluates the tail bound

    Pr[||x|| >= sqrt(Tr Sigma) + t]
        <= 2 exp(-(1/16) min(t^2/||Sigma||, t/||C||,
                             (2 t sqrt(Tr Sigma) + t^2)/||C||_F^2))

and the matching 1-delta quantile bound, the Gaussian-case baseline, and
empirical validators (norm quantiles and a Monte Carlo MGF check) for a
small set of generator families with certified (Sigma, C) claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, PreconditionError, require_sym_psd
from .models import ProductDensity
from .rng import RngSeed
from .smoothing import (SmoothedModelHd, _coord_engines, expected_shifted_score,
                        fisher_hd, smoothed_score_hd)


@dataclass(frozen=True)
class SubgammaSpec:
    """Variance proxy Sigma and scale matrix C of a subgamma claim."""

    sigma: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        require_sym_psd(sigma, "Sigma")
        c = np.asarray(self.c, dtype=float)
        if c.ndim == 0:
            c = float(c) * np.eye(sigma.shape[0])
        if c.shape != sigma.shape:
            raise PreconditionError("C must match Sigma's shape (or be scalar 0)")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def trace_sigma(self) -> float:
        return float(np.trace(self.sigma))

    @property
    def sigma_norm(self) -> float:
        return float(np.linalg.eigvalsh(self.sigma).max())

    @property
    def c_norm(self) -> float:
        return float(np.linalg.norm(self.c, 2))

    @property
    def c_frob(self) -> float:
        return float(np.linalg.norm(self.c, "fro"))

    @property
    def is_subgaussian(self) -> bool:
        return not np.any(self.c)


@dataclass(frozen=True)
class VectorGenerator:
    """Mean-zero vector sampler with its claimed subgamma parameters."""

    family: str
    dim: int
    claimed: SubgammaSpec
    _draw: Callable[[int, RngSeed], np.ndarray]

    def draw(self, n_trials: int, seed: RngSeed) -> np.ndarray:
        if n_trials < 1:
            raise PreconditionError("n_trials must be >= 1")
        out = np.asarray(self._draw(int(n_trials), seed), dtype=float)
        return out.reshape(n_trials, self.dim)


def _psd_root(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix."""
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def gaussian_generator(sigma) -> VectorGenerator:
    """x ~ N(0, Sigma); claims (Sigma, 0), the subgaussian case."""
    spec = SubgammaSpec(np.asarray(sigma, dtype=float), 0.0)
    root = _psd_root(spec.sigma)

    def drawf(n, seed):
        return seed.generator().standard_normal((n, spec.dim)) @ root.T

    return VectorGenerator("gaussian", spec.dim, spec, drawf)


def exponential_generator(scales) -> VectorGenerator:
    """x_j = s_j (E_j - 1) with E_j ~ Exp(1) independent.

    Claims (2 diag(s^2), 2 diag(s)): with t = lambda s_j <= 1/2 on the
    admissible range, the exact centered-Exp MGF satisfies
    -t - log(1-t) <= t^2, i.e. the claim holds analytically.
    """
    s = np.asarray(scales, dtype=float)
    if s.ndim != 1 or not np.all(s > 0):
        raise PreconditionError("scales must be a 1-d positive vector")
    spec = SubgammaSpec(2.0 * np.diag(s * s), 2.0 * np.diag(s))

    def drawf(n, seed):
        return (seed.generator().exponential(1.0, (n, s.size)) - 1.0) * s

    return VectorGenerator("exponential", s.size, spec, drawf)


def rademacher_generator(bounds) -> VectorGenerator:
    """x_j = b_j xi_j with xi_j uniform on {-1, +1}; claims (diag(b^2), 0)."""
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 1 or not np.all(b > 0):
        raise PreconditionError("bounds must be a 1-d positive vector")
    spec = SubgammaSpec(np.diag(b * b), 0.0)

    def drawf(n, seed):
        signs = seed.generator().integers(0, 2, (n, b.size)) * 2 - 1
        return b * signs

    return VectorGenerator("rademacher", b.size, spec, drawf)


def score_vector_generator(m: SmoothedModelHd, eps) -> VectorGenerator:
    """Centered scaled score r*(s_R(x + eps) - E[s_R(x + eps)]), x ~ f_R.

    The claimed variance proxy inflates the exact ungapped covariance
    r^2 diag(I_r) by 2(1 + sqrt(eps^T R^{-1} eps) *
    sqrt(max(1, log(||I_R^{-1}||/r^2)))) to absorb the shift-induced
    covariance growth; the scale matrix is 15 (r^2 diag(I_r))^{1/2}.
    Requires eps^T R^{-1} eps <= 1/4, the regime where the inflation
    factor form is valid.
    """
    if not isinstance(m.base, ProductDensity):
        raise PreconditionError("score-vector generator expects a product density")
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (m.dim,)).copy()
    quad_form = float(np.sum(eps * eps)) / (m.r * m.r)
    if quad_form > 0.25 + 1e-12:
        raise PreconditionError("requires eps^T R^-1 eps <= 1/4")
    fisher_diag = np.diag(fisher_hd(m).matrix)
    m_prime = m.r * m.r * fisher_diag
    inv_norm = 1.0 / float(fisher_diag.min())
    inflation = 2.0 * (1.0 + math.sqrt(quad_form)
                       * math.sqrt(max(1.0, math.log(inv_norm / (m.r * m.r)))))
    spec = SubgammaSpec(np.diag(inflation * m_prime),
                        15.0 * np.diag(np.sqrt(m_prime)))
    centers = np.array([expected_shifted_score(e, float(ej))
                        for e, ej in zip(_coord_engines(m), eps)])

    def drawf(n, seed):
        y = m.base.sample(n, seed.derive(1))
        noise = seed.derive(2).generator().standard_normal(y.shape)
        scores = smoothed_score_hd(m, y + m.r * noise + eps)
        return m.r * (scores - centers)

    return VectorGenerator("score-vector", m.dim, spec, drawf)


def tail_bound(spec: SubgammaSpec, t: float) -> float:
    """Upper bound on Pr[||x|| >= sqrt(Tr Sigma) + t], capped at 1."""
    if not t >= 0:
        raise PreconditionError("t must be >= 0")
    if not spec.trace_sigma > 0:
        raise PreconditionError("Tr Sigma must be positive")
    terms = [t * t / spec.sigma_norm]
    if not spec.is_subgaussian:
        terms.append(t / spec.c_norm)
        terms.append((2.0 * t * math.sqrt(spec.trace_sigma) + t * t) / spec.c_frob**2)
    return min(1.0, 2.0 * math.exp(-min(terms) / 16.0))


def norm_bound(spec: SubgammaSpec, delta: float) -> float:
    """Value exceeded by ||x|| with probability at most delta."""
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must be in (0, 1)")
    if not spec.trace_sigma > 0:
        raise PreconditionError("Tr Sigma must be positive")
    log_term = math.log(2.0 / delta)
    out = math.sqrt(spec.trace_sigma) + 4.0 * math.sqrt(spec.sigma_norm * log_term)
    if not spec.is_subgaussian:
        out += 16.0 * spec.c_norm * log_term
        out += min(4.0 * spec.c_frob * math.sqrt(log_term),
                   8.0 * spec.c_frob**2 / math.sqrt(spec.trace_sigma) * log_term)
    return out


def gaussian_tail(sigma, delta: float) -> float:
    """sqrt(Tr Sigma) + sqrt(2 ||Sigma|| log(1/delta)), the Gaussian baseline."""
    if not 0.0 < delta <= 1.0:
        raise PreconditionError("delta must be in (0, 1]")
    sigma = np.asarray(sigma, dtype=float)
    trace = float(np.trace(sigma))
    norm = float(np.linalg.eigvalsh(sigma).max())
    return math.sqrt(trace) + math.sqrt(2.0 * norm * math.log(1.0 / delta))


def empirical_norm_quantile(gen: VectorGenerator, n_trials: int, delta: float,
                            seed: RngSeed) -> float:
    """Order statistic ceil((1-delta) n) of ||x|| over n fresh draws."""
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must be in (0, 1)")
    if n_trials < math.ceil(10.0 / delta):
        raise ConfigurationError(
            f"n_trials={n_trials} too small for delta={delta}; "
            f"need at least {math.ceil(10.0 / delta)}"
        )
    norms = np.sort(np.linalg.norm(gen.draw(n_trials, seed), axis=1))
    idx = int(math.ceil((1.0 - delta) * n_trials))
    return float(norms[min(max(idx, 1), n_trials) - 1])


@dataclass(frozen=True)
class MgfReport:
    passed: bool
    worst_margin: float
    lambdas: np.ndarray
    empirical: np.ndarray
    std_err: np.ndarray
    envelope: np.ndarray


def mgf_check(gen: VectorGenerator, v, lambda_grid, n_mc: int,
              seed: RngSeed) -> MgfReport:
    """Monte Carlo check of the subgamma MGF hypothesis along v.

    For each grid lambda, compares the empirical mean of
    exp(lambda <x, v>) minus 3 standard errors against the envelope
    exp(lambda^2 v^T Sigma v / 2).  Grid points outside the admissible
    range |lambda| <= 1/||Cv|| (or 3/sqrt(v^T Sigma v) when C = 0) are
    a precondition failure.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (gen.dim,):
        raise PreconditionError(f"v must have dimension {gen.dim}")
    lambdas = np.asarray(lambda_grid, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise PreconditionError("lambda_grid must be a nonempty 1-d sequence")
    if n_mc < 100_000:
        raise PreconditionError("n_mc must be >= 10^5")
    spec = gen.claimed
    quad = float(v @ spec.sigma @ v)
    if spec.is_subgaussian:
        cap = 3.0 / math.sqrt(quad) if quad > 0 else math.inf
    else:
        cv = float(np.linalg.norm(spec.c @ v))
        cap = math.inf if cv == 0 else 1.0 / cv
    if float(np.max(np.abs(lambdas))) > cap + 1e-12:
        raise PreconditionError(
            f"lambda grid exceeds the admissible range |lambda| <= {cap:.6g}"
        )
    proj = gen.draw(n_mc, seed) @ v
    empirical = np.empty(lambdas.shape)
    std_err = np.empty(lambdas.shape)
    for i, lam in enumerate(lambdas):
        vals = np.exp(lam * proj)
        empirical[i] = vals.mean()
        std_err[i] = vals.std(ddof=1) / math.sqrt(n_mc)
    envelope = np.exp(0.5 * lambdas * lambdas * quad)
    margins = envelope - (empirical - 3.0 * std_err)
    worst = float(margins.min())
    return MgfReport(bool(worst >= 0.0), worst, lambdas, empirical, std_err, envelope)
