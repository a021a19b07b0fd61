"""Two-stage smoothed maximum-likelihood location estimator in one dimension.

Stage one pins down a crude location guess from a sample quantile on a
small slice of the data.  Stage two perturbs the remaining samples with
N(0, r^2) noise and takes a single Newton step on the smoothed score at
the guess.  The smoothing radius follows the schedule
r* = c * (log(2/delta)/n)^{1/8} * IQR unless overridden.

The two stages never share samples: the Newton-step analysis needs the
score evaluations to be independent of the initializer.  A block of
trials is a (B, n) stack, one row and noise stream per trial.
global_mle_1d_rows alone splits, starts and steps a stack, and owns
and consumes it: the quantile start selects in place in each row's
initialization split, and the Newton step perturbs and scores each
row's local split in place, through the high-d path at d = 1
(smoothing._perturbed_scores), then divides the mean score by I_r.  So
a trial holds its sample and the step's slices only.  global_mle_1d is
the B = 1 call on a copy of its sample, and the other public functions
copy their input too, so a caller's samples are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigurationError,
    EstimationError,
    PreconditionError,
    require_finite_samples,
)
from .models import Density1d
from .rng import RngSeed
from .smoothing import SmoothedModel1d, _perturbed_scores, fisher_1d

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Config1d:
    """Settings of the two-stage estimator.

    delta is the failure probability of the coverage guarantee,
    r_override a fixed smoothing radius in place of the r* schedule,
    and min_n_factor the minimal-sample guard n >= min_n_factor *
    log(2/delta).  The class constants fix what the analysis gives only
    up to order: the r* schedule constant, the exponent of the sample
    split, the multiplier of the quantile half-width q, and the step of
    the alpha grid.
    """

    r_star_multiplier: ClassVar[float] = 0.5
    init_fraction_exponent: ClassVar[float] = 0.1
    q_multiplier: ClassVar[float] = math.sqrt(2.0)
    alpha_grid_step: ClassVar[float] = 1e-3

    delta: float
    r_override: float | None = None
    min_n_factor: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.delta <= 0.5:
            raise ConfigurationError("delta must be in (0, 0.5]")
        # the guard must be a finite count, or the budget message overflows
        if not (self.min_n_factor > 0 and math.isfinite(
                self.min_n_factor * math.log(2.0 / self.delta))):
            raise ConfigurationError(
                "min_n_factor must be positive, with min_n_factor * log(2/delta) finite"
            )
        if self.r_override is not None and not (
                self.r_override > 0 and math.isfinite(self.r_override)):
            raise ConfigurationError("r_override must be finite and positive when set")


@dataclass(frozen=True)
class EstimateReport:
    lambda_hat: float
    lambda_initial: float
    r_used: float
    fisher_at_r: float
    theoretical_radius: float
    n_used_local: int
    n_used_init: int


def _local_rows(engine: SmoothedModel1d, x: np.ndarray, lambda1: np.ndarray,
                seeds) -> list:
    """local_mle_1d on each row of (B, n) checked samples from (B,) starts,
    row b's noise from seeds[b]: per row the estimate or its EstimationError.
    x is the step's workspace and holds the scores on return."""
    firsts = _perturbed_scores((engine,), x[:, :, None], lambda1[:, None], seeds)
    fisher = fisher_1d(engine)
    return [
        float(lam - mean / fisher) if first is None else EstimationError(
            f"smoothed score underflowed at perturbed sample {first[1]} "
            f"(r={engine.r}, lambda1={lam}); initialization is likely far off")
        for lam, mean, first in zip(lambda1, x.mean(axis=1), firsts)
    ]


def local_mle_1d(base: Density1d, r: float, samples, lambda1: float,
                 seed: RngSeed) -> float:
    """One Newton step on the empirical smoothed score, from lambda1.

    Each sample is perturbed by independent N(0, r^2) noise drawn from
    `seed`, so the perturbed points are distributed exactly per the
    smoothed density and the population score identities apply verbatim.
    """
    x = np.array(samples, dtype=float)  # a copy: the step consumes it
    if x.ndim != 1 or x.size == 0:
        raise PreconditionError("samples must be a nonempty 1-d sequence")
    require_finite_samples(x)
    if not math.isfinite(lambda1):
        raise PreconditionError(f"lambda1 must be finite, got {lambda1}")
    hat = _local_rows(SmoothedModel1d(base, r), x[None],
                      np.array([lambda1], dtype=float), [seed])[0]
    if isinstance(hat, Exception):
        raise hat
    return hat


@lru_cache(maxsize=None)
def choose_alpha(base: Density1d, q: float,
                 grid_step: float = Config1d.alpha_grid_step) -> float:
    """Quantile level whose central 2q-interval is narrowest.

    Scans alpha over the grid q + k*grid_step inside [q, 1-q] and
    returns the argmin of quantile(alpha+q) - quantile(alpha-q).  Grid
    points whose interval would touch probability 0 or 1 count as
    infinitely wide.  Ties (within 1e-12 relative) break toward 0.5,
    then toward the smaller alpha, so symmetric densities return 0.5
    exactly.  Cached per (base, q, grid_step): every trial of a batch
    asks the same question.
    """
    if not 0.0 < q < 0.5:
        raise PreconditionError("quantile half-width q must be in (0, 1/2)")
    if not grid_step > 0:
        raise PreconditionError("grid_step must be positive")
    n_steps = int(math.floor((1.0 - 2.0 * q) / grid_step + 1e-12))
    alphas = q + grid_step * np.arange(n_steps + 1)
    lo_p = alphas - q
    hi_p = alphas + q
    valid = (lo_p > 0.0) & (hi_p < 1.0)
    if not np.any(valid):
        raise PreconditionError("quantile grid is empty; q too close to 1/2")
    widths = np.full(alphas.shape, np.inf)
    widths[valid] = base.quantile(hi_p[valid]) - base.quantile(lo_p[valid])
    wmin = float(np.min(widths))
    near = widths <= wmin + _TIE_TOL * max(1.0, abs(wmin))
    candidates = alphas[near]
    dist = np.abs(candidates - 0.5)
    best = candidates[dist == dist.min()]
    return float(best.min())


@lru_cache(maxsize=None)
def _model_quantile(base: Density1d, alpha: float) -> float:
    # cached per (base, alpha), as choose_alpha is: a bisection for some
    # families, asked again by every block of a run
    return base.quantile(alpha)


def _quantile_rows(base: Density1d, x: np.ndarray, alpha: float) -> np.ndarray:
    """quantile_initial_estimate on each row of a (B, m) stack, which it
    owns: each row is partitioned in place around the order statistic."""
    m = x.shape[1]
    idx = min(max(int(math.ceil(alpha * m)), 1), m)
    x.partition(idx - 1, axis=1)
    return x[:, idx - 1] - _model_quantile(base, alpha)


def quantile_initial_estimate(base: Density1d, samples_init, alpha: float) -> float:
    """Crude location from the sample alpha-quantile.

    Uses the order statistic at 1-based index ceil(alpha*m), no
    interpolation, minus the model's alpha-quantile at shift zero; the
    difference is the shift that aligns the model quantile with the
    sample one.
    """
    x = np.array(samples_init, dtype=float).ravel()  # a copy: selected in place
    require_finite_samples(x)
    if x.size < 2:
        raise PreconditionError("initialization stage needs at least 2 samples")
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("alpha must be in (0, 1)")
    return float(_quantile_rows(base, x[None], alpha)[0])


def _minimal_n(cfg: Config1d) -> int:
    """Smallest n passing both the guard and the q < 1/2 constraint."""
    log_term = math.log(2.0 / cfg.delta)
    n_guard = cfg.min_n_factor * log_term
    n_q = log_term * (2.0 * cfg.q_multiplier) ** 2.5
    return int(math.ceil(max(n_guard, n_q, 2.0)))


def _split(cfg: Config1d, n: int) -> tuple[float, int]:
    """(q, n_init) for rows of n samples: the quantile half-width and the
    initialization split, a row's first n_init samples; the rest of the
    row is its local split.  Too small an n raises ConfigurationError,
    naming the least n that passes."""
    log_term = math.log(2.0 / cfg.delta)
    if n < cfg.min_n_factor * log_term:
        raise ConfigurationError(
            f"sample budget too small: n={n} < {cfg.min_n_factor} * log(2/delta); "
            f"need n >= {_minimal_n(cfg)}"
        )
    q = cfg.q_multiplier * (log_term / n) ** 0.4
    if q >= 0.5:
        raise ConfigurationError(
            f"sample budget too small: quantile half-width q={q:.4f} >= 1/2; "
            f"need n >= {_minimal_n(cfg)}"
        )
    n_init = int(math.ceil((log_term / n) ** cfg.init_fraction_exponent * n))
    if n_init < 2 or n - n_init < 1:
        raise ConfigurationError(
            f"sample budget too small: initialization split {n_init} of {n} "
            f"leaves no usable stage; need n >= {_minimal_n(cfg)}"
        )
    return q, n_init


def global_mle_1d_rows(base: Density1d, samples: np.ndarray, cfg: Config1d,
                       seeds) -> list:
    """global_mle_1d on each row of a (B, n) stack of finite samples.

    Row b uses seeds[b] as global_mle_1d uses its seed.  The stack is
    consumed: on return each row's initialization split is reordered
    around its order statistic and its local split holds its scores.
    The checks, split, r* and I_r* are shared: a failing check raises
    for the block.  Returns per row an EstimateReport or that row's
    EstimationError.
    """
    n = samples.shape[1]
    q, n_init = _split(cfg, n)
    n_local = n - n_init
    log_term = math.log(2.0 / cfg.delta)
    alpha = choose_alpha(base, q, cfg.alpha_grid_step)
    if cfg.r_override is not None:
        r_star = cfg.r_override
    else:
        r_star = cfg.r_star_multiplier * (log_term / n) ** 0.125 * base.iqr()
    engine = SmoothedModel1d(base, r_star)
    fisher = fisher_1d(engine)
    radius = math.sqrt(2.0 * log_term / (n_local * fisher))
    starts = _quantile_rows(base, samples[:, :n_init], alpha)
    hats = _local_rows(engine, samples[:, n_init:], starts, seeds)
    return [
        hat if isinstance(hat, Exception) else EstimateReport(
            lambda_hat=hat,
            lambda_initial=float(lambda1),
            r_used=float(r_star),
            fisher_at_r=float(fisher),
            theoretical_radius=float(radius),
            n_used_local=int(n_local),
            n_used_init=int(n_init),
        )
        for hat, lambda1 in zip(hats, starts)
    ]


def global_mle_1d(base: Density1d, samples, cfg: Config1d,
                  seed: RngSeed) -> EstimateReport:
    """Quantile initialization, then one smoothed-score Newton step.

    Splits off the first ceil((log(2/delta)/n)^e * n) samples for the
    quantile stage and runs the Newton step on the rest at radius
    r* = c * (log(2/delta)/n)^{1/8} * IQR (or cfg.r_override).  The
    reported theoretical_radius is the leading-order deviation bound
    sqrt(2 log(2/delta) / (n_local * I_{r*})).
    """
    x = np.array(samples, dtype=float, order="C")  # a copy: the step consumes it
    if x.ndim != 1:
        raise PreconditionError("samples must be a 1-d sequence")
    require_finite_samples(x)
    rep = global_mle_1d_rows(base, x[None], cfg, [seed])[0]
    if isinstance(rep, Exception):
        raise rep
    return rep
