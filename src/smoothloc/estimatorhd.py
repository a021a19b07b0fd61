"""High-dimensional smoothed-MLE location estimation on product densities.

The local stage perturbs each sample by N(0, r^2 I) noise and applies one
inverse-Fisher-weighted step on the mean smoothed score.  The global
stage first runs geometric median-of-means on a small slice to get a
heavy-tail-robust initial vector, then hands the rest to the local stage.

Both stages work on a block of trials: a (B, n, d) stack of sample
sets, one row per trial, each row with its own noise stream.  Weiszfeld
advances every row's bucket means together and freezes each row when
its own test stops it; the score is one evaluation per coordinate over
the whole block; the step is I_R^{-1} times each row's mean score.  A
row gets the same numbers, bit for bit, as it would alone, and one
row's score underflow becomes that row's error, never the block's.
The single-trial functions are the B = 1 case.  What the rows share
(the checks, the split, I_R^{-1}, the bound) is computed once per
block.

Error reports use the M-norm sqrt(x^T M x) and the deviation bound
(1+eta)*sqrt(Tr T/n) + 5*sqrt(||T|| log(4/delta)/n) with
T = M^{1/2} I_R^{-1} M^{1/2}.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .concentration import _psd_root
from .errors import (
    ConfigurationError,
    EstimationError,
    PreconditionError,
    require_finite_samples,
    require_sym_psd,
)
from .models import ProductDensity
from .rng import RngSeed
from .smoothing import (
    FisherMatrix,
    SmoothedModelHd,
    _smoothed_score_rows,
    fisher_hd,
)

_WEISZFELD_TOL = 1e-10
_WEISZFELD_CAP = 200

_log = logging.getLogger(__name__)


def _require_norm_matrix(m: np.ndarray) -> None:
    """require_sym_psd for the error norm, which is a full matrix: the
    shared check also reads a 1-d array as a diagonal."""
    require_sym_psd(m, "norm matrix")
    if m.ndim != 2:
        raise PreconditionError("norm matrix must be square")


@dataclass(frozen=True)
class ConfigHd:
    """Settings of the high-dimensional estimator.

    delta is the failure probability of the deviation bound, r the
    smoothing radius, and eta the slack of the bound; eta/10 of the
    samples go to the robust initializer.  M is the norm matrix of the
    error report (identity if omitted).  The class constant
    mom_buckets_multiplier sets the median-of-means bucket count
    ceil(3.5 log(2/delta)).  The model-dependent requirement
    r^2 <= ||Sigma|| is checked by global_mle_hd_rows, which sees the
    model.
    """

    mom_buckets_multiplier: ClassVar[float] = 3.5

    delta: float
    r: float
    eta: float = 0.25
    M: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ConfigurationError("delta must be in (0, 0.5]")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ConfigurationError("r must be finite and positive")
        if not 0.0 < self.eta < 1.0:
            raise ConfigurationError("eta must be in (0, 1)")
        if self.M is not None:
            m = np.asarray(self.M, dtype=float)
            _require_norm_matrix(m)
            object.__setattr__(self, "M", m)

    def effective_init_fraction(self) -> float:
        return self.eta / 10.0

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


def m_norm(x, M) -> float:
    """sqrt(x^T M x) for symmetric positive-semidefinite M."""
    x = np.asarray(x, dtype=float)
    M = np.asarray(M, dtype=float)
    _require_norm_matrix(M)
    return m_norm_unchecked(x, M)


def m_norm_unchecked(x: np.ndarray, M: np.ndarray) -> float:
    """m_norm for an M that has already been checked."""
    return math.sqrt(max(float(x @ M @ x), 0.0))


def _bucket_count(delta: float, multiplier: float) -> int:
    return int(math.ceil(multiplier * math.log(2.0 / delta)))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each row, rounded as np.linalg.norm rounds one (a dot)."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _weiszfeld(points: np.ndarray) -> np.ndarray:
    """Geometric median of each row of a (B, k, d) stack of point sets.

    Rows iterate together, and a row leaves the iteration when its own
    test stops it: the step falls to _WEISZFELD_TOL, all its points
    coincide, or the subgradient test passes at a data point (Vardi and
    Zhang), else it is nudged off that point.  Every row runs the
    iterations, and rounds the numbers, that it would run alone.  Rows
    still moving after _WEISZFELD_CAP iterations keep their last iterate,
    and one WARNING on the smoothloc logger counts them.
    """
    out = points.mean(axis=1)
    rows = np.arange(points.shape[0])
    p, y = points, out.copy()
    for _ in range(_WEISZFELD_CAP):
        dist = np.linalg.norm(p - y[:, None, :], axis=2)
        at_point = dist < 1e-12
        hit = at_point.any(axis=1)
        stop = np.zeros(rows.size, dtype=bool)
        for i in np.flatnonzero(hit):
            # at a data point: subgradient optimality test, else nudge off it
            rest = ~at_point[i]
            if not rest.any():
                stop[i] = True
                continue
            g = np.sum((p[i][rest] - y[i]) / dist[i][rest, None], axis=0)
            gn = float(np.linalg.norm(g))
            if gn <= np.count_nonzero(at_point[i]) + 1e-12:
                stop[i] = True
            else:
                y[i] = y[i] + (1e-12 / gn) * g
        free = np.flatnonzero(~hit)
        if free.size:
            w = 1.0 / dist[free]
            y_next = (p[free] * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
            step = _row_norms(y_next - y[free]) / np.fmax(1.0, _row_norms(y_next))
            y[free] = y_next
            stop[free] = step <= _WEISZFELD_TOL
        if stop.any():
            out[rows[stop]] = y[stop]
            keep = ~stop
            rows, p, y = rows[keep], p[keep], y[keep]
            if not rows.size:
                return out
    out[rows] = y
    _log.warning("Weiszfeld: %d of %d rows stopped at the %d-iteration cap "
                 "without converging", rows.size, points.shape[0], _WEISZFELD_CAP)
    return out


def _gmom_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Geometric median of k positional bucket means, per row of (B, n, d)."""
    size = x.shape[1] // k
    b, _, d = x.shape
    return _weiszfeld(x[:, : k * size].reshape(b, k, size, d).mean(axis=2))


def geometric_median_of_means(
        samples, delta: float, seed: RngSeed | None = None,
        buckets_multiplier: float = ConfigHd.mom_buckets_multiplier) -> np.ndarray:
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
    require_finite_samples(x)
    n = x.shape[0]
    k = _bucket_count(delta, buckets_multiplier)
    if n < 2 * k:
        raise ConfigurationError(
            f"median-of-means needs at least {2 * k} samples for {k} buckets, got {n}"
        )
    return _gmom_rows(x[None], k)[0]


def _bad_init(exc: Exception, r: float) -> EstimationError:
    err = EstimationError(
        f"smoothed score underflowed ({exc.x}, r={r}); "
        "initialization is likely far off"
    )
    err.__cause__ = exc
    return err


def _local_rows(engine: SmoothedModelHd, fisher_inv: np.ndarray, x: np.ndarray,
                lambda1: np.ndarray, seeds) -> tuple[np.ndarray, list]:
    """local_mle_hd on each row of (B, n, d) samples from (B, d) starts.

    Row b draws its noise from seeds[b].  Returns the (B, d) estimates
    and, per row, the EstimationError of a score underflow (or None);
    an erring row's estimate is meaningless.
    """
    pts = np.empty(x.shape)
    for b, seed in enumerate(seeds):
        seed.generator().standard_normal(out=pts[b])
    # x + r * noise - lambda1, in place: the same roundings, no temporaries
    pts *= engine.r
    pts += x
    pts -= lambda1[:, None, :]
    scores, underflows = _smoothed_score_rows(engine, pts)
    errors = [None if exc is None else _bad_init(exc, engine.r) for exc in underflows]
    # I_R^{-1} @ mean as one matrix-vector product per row
    step = (fisher_inv @ scores.mean(axis=1)[:, :, None])[:, :, 0]
    return lambda1 - step, errors


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
    lambda_hat, errors = _local_rows(engine, fisher_hd(engine).inverse(),
                                     x[None], lambda1[None], [seed])
    if errors[0] is not None:
        raise errors[0]
    return lambda_hat[0]


def _t_eigenvalues(fisher_inv: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Eigenvalues of T = M^{1/2} I_R^{-1} M^{1/2}."""
    root = _psd_root(M)
    t_mat = root @ fisher_inv @ root
    return np.linalg.eigvalsh(0.5 * (t_mat + t_mat.T))


def _bound(t_evals: np.ndarray, n: int, delta: float, eta: float) -> float:
    trace_t = float(np.sum(t_evals))
    norm_t = float(np.max(np.abs(t_evals)))
    return (1.0 + eta) * math.sqrt(trace_t / n) + 5.0 * math.sqrt(
        norm_t * math.log(4.0 / delta) / n
    )


def theoretical_bound_hd(fisher: FisherMatrix, M, n: int, delta: float,
                         eta: float) -> float:
    """(1+eta)*sqrt(Tr T/n) + 5*sqrt(||T|| log(4/delta)/n).

    T = M^{1/2} I_R^{-1} M^{1/2}; ||T|| is the spectral norm.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    M = np.asarray(M, dtype=float)
    _require_norm_matrix(M)
    return _bound(_t_eigenvalues(fisher.inverse(), M), n, delta, eta)


def global_mle_hd_rows(base: ProductDensity, samples: np.ndarray,
                       cfg: ConfigHd, seeds) -> list:
    """global_mle_hd on each row of a (B, n, d) stack of finite samples.

    Row b uses seeds[b] as global_mle_hd uses its seed.  The first
    max(ceil(eta/10 * n), 2k) samples of a row feed the
    median-of-means initializer (k buckets need at least 2 points
    each); the rest feed the local stage.  The deviation bound uses the
    total sample count.  The checks, the split, I_R^{-1} and the bound
    are shared by the rows: a ConfigurationError (r^2 exceeds ||Sigma||,
    or no sample is left for the local stage) raises for the whole
    block.  Returns per row a ReportHd, or the EstimationError that
    row's score underflow raised.
    """
    n = samples.shape[1]
    sigma_norm = max(c.variance() for c in base.components)  # Sigma is diagonal
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
    engine = SmoothedModelHd(base, cfg.r)
    fisher = fisher_hd(engine)
    fisher_inv = fisher.inverse()
    t_evals = _t_eigenvalues(fisher_inv, cfg.norm_matrix(base.dim))
    bound = _bound(t_evals, n, cfg.delta, cfg.eta)
    d_eff = float(np.sum(t_evals) / np.max(np.abs(t_evals)))
    lambda1 = _gmom_rows(samples[:, :n_init], k)
    lambda_hat, errors = _local_rows(engine, fisher_inv, samples[:, n_init:],
                                     lambda1, [s.derive(2) for s in seeds])
    return [
        err if err is not None else ReportHd(
            lambda_hat=hat,
            lambda_initial=init,
            m_norm_error_bound=bound,
            fisher=fisher,
            d_eff_T=d_eff,
            n_used_local=n - n_init,
            n_used_init=n_init,
        )
        for err, hat, init in zip(errors, lambda_hat, lambda1)
    ]


def global_mle_hd(base: ProductDensity, samples, cfg: ConfigHd,
                  seed: RngSeed) -> ReportHd:
    """Robust initialization plus one smoothed-score correction step.

    The sample split and the bound are global_mle_hd_rows's.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise PreconditionError("samples must be an (n, d) array")
    _, dim = x.shape
    if dim != base.dim:
        raise PreconditionError(f"samples have dimension {dim}, model has {base.dim}")
    require_finite_samples(x)
    rep = global_mle_hd_rows(base, x[None], cfg, [seed])[0]
    if isinstance(rep, Exception):
        raise rep
    return rep
