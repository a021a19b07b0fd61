"""High-dimensional smoothed-MLE location estimation on product densities.

The local stage perturbs each sample by N(0, r^2 I) noise and applies one
inverse-Fisher-weighted step on the mean smoothed score.  The global
stage first runs geometric median-of-means on a small slice to get a
heavy-tail-robust initial vector, then hands the rest to the local stage.

Error reports use the M-norm sqrt(x^T M x) and the deviation bound
(1+eta)*sqrt(Tr T/n) + 5*sqrt(||T|| log(4/delta)/n) with
T = M^{1/2} I_R^{-1} M^{1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EstimationError,
    PreconditionError,
    TailUnderflowError,
    require_finite_samples,
)
from .models import ProductDensity
from .rng import RngSeed
from .smoothing import FisherMatrix, SmoothedModelHd, fisher_hd, smoothed_score_hd

_SYM_TOL = 1e-10
_WEISZFELD_TOL = 1e-10
_WEISZFELD_CAP = 200


@dataclass(frozen=True)
class ConfigHd:
    """Knobs of the high-dimensional estimator.

    M is the norm matrix of the error report (identity if omitted).
    init_fraction defaults to eta/10, the slice handed to the robust
    initializer.  The model-dependent requirement r^2 <= ||Sigma|| is
    checked by global_mle_hd, which sees the model.
    """

    delta: float
    r: float
    eta: float = 0.25
    init_fraction: float | None = None
    M: np.ndarray | None = None
    mom_buckets_multiplier: float = 3.5

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ConfigurationError("delta must be in (0, 0.5]")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ConfigurationError("r must be finite and positive")
        if not 0.0 < self.eta < 1.0:
            raise ConfigurationError("eta must be in (0, 1)")
        if self.init_fraction is not None and not 0.0 < self.init_fraction < 0.5:
            raise ConfigurationError("init_fraction must be in (0, 0.5)")
        if not self.mom_buckets_multiplier > 0:
            raise ConfigurationError("mom_buckets_multiplier must be positive")
        if self.M is not None:
            m = np.asarray(self.M, dtype=float)
            _require_sym_psd(m)
            object.__setattr__(self, "M", m)

    def effective_init_fraction(self) -> float:
        return self.eta / 10.0 if self.init_fraction is None else self.init_fraction

    def norm_matrix(self, dim: int) -> np.ndarray:
        if self.M is None:
            return np.eye(dim)
        if self.M.shape != (dim, dim):
            raise ConfigurationError(
                f"M has shape {self.M.shape}, model dimension is {dim}"
            )
        return self.M


@dataclass(frozen=True)
class ReportHd:
    lambda_hat: np.ndarray
    lambda_initial: np.ndarray
    m_norm_error_bound: float
    fisher: FisherMatrix
    d_eff_T: float
    n_used_local: int
    n_used_init: int


def _require_sym_psd(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError("norm matrix must be square")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > _SYM_TOL * scale:
        raise PreconditionError("norm matrix must be symmetric within 1e-10")
    if float(np.linalg.eigvalsh(m).min()) < -_SYM_TOL * scale:
        raise PreconditionError("norm matrix must be positive semidefinite")


def m_norm(x, M) -> float:
    """sqrt(x^T M x) for symmetric positive-semidefinite M."""
    x = np.asarray(x, dtype=float)
    M = np.asarray(M, dtype=float)
    _require_sym_psd(M)
    return math.sqrt(max(float(x @ M @ x), 0.0))


def _bucket_count(delta: float, multiplier: float) -> int:
    return int(math.ceil(multiplier * math.log(2.0 / delta)))


def _weiszfeld(points: np.ndarray) -> np.ndarray:
    y = points.mean(axis=0)
    for _ in range(_WEISZFELD_CAP):
        dist = np.linalg.norm(points - y, axis=1)
        at_point = dist < 1e-12
        if np.all(at_point):
            return y
        if np.any(at_point):
            # subgradient optimality test at a data point, else nudge off it
            rest = ~at_point
            g = np.sum((points[rest] - y) / dist[rest, None], axis=0)
            gn = float(np.linalg.norm(g))
            if gn <= np.count_nonzero(at_point) + 1e-12:
                return y
            y = y + (1e-12 / gn) * g
            continue
        w = 1.0 / dist
        y_next = (points * w[:, None]).sum(axis=0) / w.sum()
        step = float(np.linalg.norm(y_next - y)) / max(1.0, float(np.linalg.norm(y_next)))
        y = y_next
        if step <= _WEISZFELD_TOL:
            break
    return y


def geometric_median_of_means(samples, delta: float, seed: RngSeed | None = None,
                              buckets_multiplier: float = 3.5) -> np.ndarray:
    """Geometric median of bucket means; heavy-tail-robust location.

    Splits the samples by position into ceil(buckets_multiplier *
    log(2/delta)) equal buckets (remainder dropped) and returns the
    geometric median of the bucket means by Weiszfeld iteration.  The
    split is deterministic; `seed` is accepted for signature uniformity
    with the other stages and not consumed.
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must be in (0, 1)")
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    k = _bucket_count(delta, buckets_multiplier)
    if n < 2 * k:
        raise ConfigurationError(
            f"median-of-means needs at least {2 * k} samples for {k} buckets, got {n}"
        )
    size = n // k
    means = x[: k * size].reshape(k, size, x.shape[1]).mean(axis=1)
    return _weiszfeld(means)


def local_mle_hd(base: ProductDensity, r: float, samples, lambda1,
                 seed: RngSeed) -> np.ndarray:
    """One inverse-Fisher-weighted score step from lambda1.

    Perturbs each sample by N(0, r^2 I) noise from `seed`, averages the
    smoothed score at the recentered points, and subtracts
    I_R^{-1} times that average from lambda1.
    """
    if not r > 0:
        raise PreconditionError("smoothing radius r must be > 0")
    x = np.asarray(samples, dtype=float)
    lambda1 = np.asarray(lambda1, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise PreconditionError("samples must be a nonempty (n, d) array")
    if lambda1.shape != (x.shape[1],):
        raise PreconditionError("lambda1 must match the sample dimension")
    require_finite_samples(x)
    engine = SmoothedModelHd(base, r)
    noise = seed.generator().standard_normal(x.shape)
    perturbed = x + r * noise
    try:
        scores = smoothed_score_hd(engine, perturbed - lambda1)
    except TailUnderflowError as exc:
        raise EstimationError(
            f"smoothed score underflowed ({exc.x}, r={r}); "
            "initialization is likely far off"
        ) from exc
    fisher = fisher_hd(engine)
    eps_hat = fisher.inverse() @ scores.mean(axis=0)
    return lambda1 - eps_hat


def _t_eigenvalues(fisher: FisherMatrix, M: np.ndarray) -> np.ndarray:
    """Eigenvalues of T = M^{1/2} I_R^{-1} M^{1/2}."""
    evals, evecs = np.linalg.eigh(M)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    t_mat = root @ fisher.inverse() @ root
    return np.linalg.eigvalsh(0.5 * (t_mat + t_mat.T))


def theoretical_bound_hd(fisher: FisherMatrix, M, n: int, delta: float,
                         eta: float) -> float:
    """(1+eta)*sqrt(Tr T/n) + 5*sqrt(||T|| log(4/delta)/n).

    T = M^{1/2} I_R^{-1} M^{1/2}; ||T|| is the spectral norm.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    M = np.asarray(M, dtype=float)
    _require_sym_psd(M)
    t_evals = _t_eigenvalues(fisher, M)
    trace_t = float(np.sum(t_evals))
    norm_t = float(np.max(np.abs(t_evals)))
    return (1.0 + eta) * math.sqrt(trace_t / n) + 5.0 * math.sqrt(
        norm_t * math.log(4.0 / delta) / n
    )


def global_mle_hd(base: ProductDensity, samples, cfg: ConfigHd,
                  seed: RngSeed) -> ReportHd:
    """Robust initialization plus one smoothed-score correction step.

    The first max(ceil(init_fraction*n), 2k) samples feed the
    median-of-means initializer (k buckets need at least 2 points
    each); the rest feed the local stage.  The reported deviation bound
    uses the total sample count.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise PreconditionError("samples must be an (n, d) array")
    n, dim = x.shape
    if dim != base.dim:
        raise PreconditionError(f"samples have dimension {dim}, model has {base.dim}")
    require_finite_samples(x)
    sigma_norm = float(np.linalg.eigvalsh(base.covariance()).max())
    if cfg.r * cfg.r > sigma_norm + 1e-12:
        raise ConfigurationError(
            f"r^2 = {cfg.r**2:.6g} exceeds the model covariance norm {sigma_norm:.6g}"
        )
    k = _bucket_count(cfg.delta, cfg.mom_buckets_multiplier)
    n_init = max(int(math.ceil(cfg.effective_init_fraction() * n)), 2 * k)
    if n - n_init < 1:
        raise ConfigurationError(
            f"sample budget too small: initialization takes {n_init} of {n}; "
            f"need at least {n_init + 1}"
        )
    lambda1 = geometric_median_of_means(
        x[:n_init], cfg.delta, seed.derive(1), cfg.mom_buckets_multiplier
    )
    lambda_hat = local_mle_hd(base, cfg.r, x[n_init:], lambda1, seed.derive(2))
    engine = SmoothedModelHd(base, cfg.r)
    fisher = fisher_hd(engine)
    norm_mat = cfg.norm_matrix(dim)
    bound = theoretical_bound_hd(fisher, norm_mat, n, cfg.delta, cfg.eta)
    t_evals = _t_eigenvalues(fisher, norm_mat)
    d_eff = float(np.sum(t_evals) / np.max(np.abs(t_evals)))
    return ReportHd(
        lambda_hat=lambda_hat,
        lambda_initial=lambda1,
        m_norm_error_bound=float(bound),
        fisher=fisher,
        d_eff_T=d_eff,
        n_used_local=int(n - n_init),
        n_used_init=int(n_init),
    )
