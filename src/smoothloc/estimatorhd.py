"""High-dimensional smoothed-MLE location estimation on product densities.

The local stage perturbs each sample by N(0, r^2 I) noise and applies one
inverse-Fisher-weighted step on the mean smoothed score.  The global
stage first runs geometric median-of-means on a small slice to get a
heavy-tail-robust initial vector, then hands the rest to the local stage.

Both stages work on a block of trials: a (B, n, d) stack of sample
sets, one row per trial, each row with its own noise stream.
global_mle_hd_rows alone splits, starts and steps a stack, and owns and
consumes it.  Weiszfeld advances every row's bucket means together and
freezes each row when its own test stops it; each row's local split is
perturbed and scored in place, in slices (smoothing._perturbed_scores,
the 1-d step's path too); the step is I_R^{-1} times each row's mean
score.  A row gets the same numbers, bit for bit, as it would alone,
and one row's score underflow becomes that row's error, never the
block's.  What the rows share (the checks, the split, I_R^{-1}, the
bound) is computed once per block.  The single-trial functions are the
B = 1 case, run on a C-ordered copy of their input, so a caller's
samples are never written and their memory layout never changes a bit.

Error reports are Euclidean, with the deviation bound
(1+eta)*sqrt(Tr T/n) + 5*sqrt(||T|| log(4/delta)/n), T = I_R^{-1}.
For another PSD norm matrix M, theoretical_bound_hd(report.fisher, M,
n, delta, eta) is that bound with T = M^{1/2} I_R^{-1} M^{1/2}, and
m_norm(x, M) = sqrt(x^T M x) the matching error norm.
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
    require_int,
    require_sym_psd,
)
from .models import ProductDensity
from .rng import RngSeed
from .smoothing import (
    FisherMatrix,
    SmoothedModelHd,
    _coord_engines,
    _perturbed_scores,
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
    samples go to the robust initializer.  The class constant
    mom_buckets_multiplier sets the median-of-means bucket count
    ceil(3.5 log(2/delta)).  The model-dependent requirement
    r^2 <= ||Sigma|| is checked by global_mle_hd_rows, which sees the
    model.
    """

    mom_buckets_multiplier: ClassVar[float] = 3.5

    delta: float
    r: float
    eta: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ConfigurationError("delta must be in (0, 0.5]")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ConfigurationError("r must be finite and positive")
        if not 0.0 < self.eta < 1.0:
            raise ConfigurationError("eta must be in (0, 1)")

    def effective_init_fraction(self) -> float:
        return self.eta / 10.0

    def norm_matrix(self, dim: int) -> np.ndarray:
        """The norm of the error report, the identity: reports are
        Euclidean.  theoretical_bound_hd(report.fisher, M, n, delta, eta)
        is the report's bound in the M-norm, from the same eigenvalues."""
        return np.eye(dim)


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
    if x.shape != M.shape[:1] or not np.all(np.isfinite(x)):
        raise PreconditionError(f"x must be a finite {len(M)}-vector, got {x.tolist()}")
    return _m_norm(x, M)


def _m_norm(x: np.ndarray, M: np.ndarray) -> float:
    """m_norm for an M that has already been checked."""
    return math.sqrt(max(float(x @ M @ x), 0.0))


def _bucket_count(delta: float, multiplier: float) -> int:
    return int(math.ceil(multiplier * math.log(2.0 / delta)))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each row, rounded as np.linalg.norm rounds one (a dot),
    as Weiszfeld's per-row test did.  concentration._row_norms rounds as
    norm(axis=1) does (square, sum); one for both would change bits."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _weiszfeld_step(p: np.ndarray, y: np.ndarray, dist: np.ndarray,
                    scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """One Weiszfeld step of each row of p from y, none at a data point.

    The new iterate is the 1/dist-weighted mean of the row's points.
    Returns it and which rows' relative step fell to _WEISZFELD_TOL.
    dist is overwritten, and so is scratch, a (B, k, d) array if given.
    """
    w = np.divide(1.0, dist, out=dist)
    y_next = np.add.reduce(np.multiply(p, w[:, :, None], out=scratch), axis=1)
    y_next /= np.add.reduce(w, axis=1)[:, None]
    step = _row_norms(y_next - y) / np.fmax(1.0, _row_norms(y_next))
    return y_next, step <= _WEISZFELD_TOL


def _weiszfeld(points: np.ndarray) -> np.ndarray:
    """Geometric median of each row of a (B, k, d) stack of point sets.

    Rows iterate together, and a row leaves the iteration when its own
    test stops it: the step falls to _WEISZFELD_TOL, all its points
    coincide, or the subgradient test passes at a data point (Vardi and
    Zhang), else it is nudged off that point.  An iteration squares,
    sums and roots each point's offset from its row's iterate in one
    scratch stack (np.linalg.norm's rounding), and steps the rows at no
    data point; only when some row sits at one are the others copied out
    to step.  Every row runs the iterations, and rounds the numbers,
    that it would run alone.  Rows still moving after _WEISZFELD_CAP
    iterations keep their last iterate, and one WARNING on the smoothloc
    logger counts them.
    """
    out = points.mean(axis=1)
    rows = np.arange(points.shape[0])
    p, y = points, out.copy()
    for _ in range(_WEISZFELD_CAP):
        diff = np.subtract(p, y[:, None, :])
        dist = np.add.reduce(np.multiply(diff, diff, out=diff), axis=2)
        np.sqrt(dist, out=dist)
        at_point = dist < 1e-12
        if not at_point.any():
            y, stop = _weiszfeld_step(p, y, dist, diff)
        else:
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
                y[free], stop[free] = _weiszfeld_step(p[free], y[free], dist[free])
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
    if not 0.0 < buckets_multiplier < math.inf:  # written so that NaN fails too
        raise PreconditionError(f"buckets_multiplier must be finite and > 0, "
                                f"got {buckets_multiplier}")
    # C order: the bucket means' summation order follows the layout
    x = np.ascontiguousarray(samples, dtype=float)
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


def _local_rows(engine: SmoothedModelHd, fisher_inv: np.ndarray, x: np.ndarray,
                lambda1: np.ndarray, seeds) -> tuple[np.ndarray, list]:
    """local_mle_hd on each row of (B, n, d) samples from (B, d) starts.

    Row b draws its noise from seeds[b].  Returns the (B, d) estimates
    and, per row, the EstimationError of a score underflow (or None);
    an erring row's estimate is meaningless.  x is the step's workspace
    and holds the scores on return.
    """
    firsts = _perturbed_scores(_coord_engines(engine), x, lambda1, seeds)
    errors = [None if first is None else EstimationError(
        f"smoothed score underflowed (coordinate {first[0]} value {first[1]}, "
        f"r={engine.r}); initialization is likely far off") for first in firsts]
    # I_R^{-1} @ mean as one matrix-vector product per row
    step = (fisher_inv @ x.mean(axis=1)[:, :, None])[:, :, 0]
    return lambda1 - step, errors


def local_mle_hd(base: ProductDensity, r: float, samples, lambda1,
                 seed: RngSeed) -> np.ndarray:
    """One inverse-Fisher-weighted score step from lambda1.

    Perturbs each sample by N(0, r^2 I) noise from `seed`, averages the
    smoothed score at the recentered points, and subtracts
    I_R^{-1} times that average from lambda1.
    """
    x = np.array(samples, dtype=float, order="C")  # a copy: the step consumes it
    lambda1 = np.asarray(lambda1, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise PreconditionError("samples must be a nonempty (n, d) array")
    if lambda1.shape != (x.shape[1],):
        raise PreconditionError("lambda1 must match the sample dimension")
    require_finite_samples(x)
    bad = np.flatnonzero(~np.isfinite(lambda1))
    if bad.size:
        raise PreconditionError(f"lambda1 must be finite, got {lambda1[bad[0]]} "
                                f"at coordinate {bad[0]}")
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

    T = M^{1/2} I_R^{-1} M^{1/2}; ||T|| is the spectral norm.  With a
    report's fisher, n and settings, it is that report's bound in the
    M-norm (the identity gives its m_norm_error_bound, bit for bit).
    """
    require_int(n, "n", 1)
    for name, p in (("delta", delta), ("eta", eta)):
        if not 0.0 < p < 1.0:  # written so that NaN fails too
            raise PreconditionError(f"{name} must be in (0, 1), got {p}")
    M = np.asarray(M, dtype=float)
    _require_norm_matrix(M)
    if M.shape != fisher.matrix.shape:
        raise PreconditionError(
            f"M has shape {M.shape}, the Fisher matrix {fisher.matrix.shape}")
    return _bound(_t_eigenvalues(fisher.inverse(), M), n, delta, eta)


def _split(base: ProductDensity, cfg: ConfigHd, n: int) -> tuple[int, int]:
    """(k, n_init) for rows of n samples: the median-of-means bucket count
    and the initialization split, a row's first max(ceil(eta/10 * n), 2k)
    samples (k buckets need at least 2 points each); the rest of the row
    is its local split.  Raises ConfigurationError when r^2 exceeds
    ||Sigma|| or no sample is left for the local split."""
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
    return k, n_init


def global_mle_hd_rows(base: ProductDensity, samples: np.ndarray,
                       cfg: ConfigHd, seeds) -> list:
    """global_mle_hd on each row of a (B, n, d) stack of finite samples.

    Row b uses seeds[b] as global_mle_hd uses its seed.  _split divides
    each row between the median-of-means initializer and the local
    stage; the deviation bound uses the total sample count.  The stack
    is consumed: on return each row's local split holds its scores.  The
    checks, the split, I_R^{-1} and the bound are shared by the rows: a
    ConfigurationError raises for the whole block.  Returns per row a
    ReportHd, or the EstimationError that row's score underflow raised.
    """
    n = samples.shape[1]
    k, n_init = _split(base, cfg, n)
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
            lambda_initial=start,
            m_norm_error_bound=bound,
            fisher=fisher,
            d_eff_T=d_eff,
            n_used_local=n - n_init,
            n_used_init=n_init,
        )
        for err, hat, start in zip(errors, lambda_hat, lambda1)
    ]


def global_mle_hd(base: ProductDensity, samples, cfg: ConfigHd,
                  seed: RngSeed) -> ReportHd:
    """Robust initialization plus one smoothed-score correction step.

    The sample split and the bound are global_mle_hd_rows's.
    """
    x = np.array(samples, dtype=float, order="C")  # a copy: the step consumes it
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
