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

Sigma and C are each a symmetric matrix or a 1-d array, read (as
numpy reads one) as the diagonal of a matrix.  Every generator family
here has a diagonal claim, so the bounds cost O(d) and nothing of size
d x d is built; a full matrix is the dense path, and the only one for a
Gaussian with a non-diagonal Sigma.  A diagonal Gaussian scales its
standard normals by sqrt(Sigma) in place.

A generator hands out its draws as consecutive row chunks of one random
stream.  The empirical norm quantile walks those chunks, each at most
_CHUNK_COORDS coordinates, and keeps only the n norms, never the (n, d)
draw.  The chunks hold the same random numbers as one call for all n
rows, and every family's map from those numbers to a row is row-local,
so the norms, and the quantile, are those of `VectorGenerator.draw`.
The one exception is the Gaussian family with a non-diagonal Sigma:
BLAS may round its product with Sigma^{1/2} in a different order for
a different row count, so the quantile can differ from that of the
one-call draw in the last place.  A family whose every draw has the
same norm (Rademacher signs: ||b||) states it, and its quantile is that
norm, rounded as the streamed row reduction rounds it, with no draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (ConfigurationError, PreconditionError, require_int,
                     require_sym_psd)
from .rng import RngSeed
from .smoothing import (SmoothedModelHd, _coord_engines, _scored_sample,
                        _small_offset, expected_shifted_score, fisher_hd)


# Coordinates per chunk of the streamed norm quantile: 2^16 float64
# values, 512 KB, which stays in cache through square, row sum and sqrt.
# Of 2^12 to 2^20, 2^16 ran the 18-cell concentration benchmark batch
# fastest (2 threads on a 2-core x86-64 host); 2^14 and 2^18 were within
# about 15 %, 2^12 and 2^20 slower.
_CHUNK_COORDS = 1 << 16


def _trace(m: np.ndarray) -> float:
    """Trace of a matrix or of the diagonal a 1-d array stands for."""
    return float(np.sum(m if m.ndim == 1 else np.diagonal(m)))


def _top_eigenvalue(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix or of a diagonal."""
    return float(np.max(m) if m.ndim == 1 else np.linalg.eigvalsh(m).max())


@dataclass(frozen=True)
class SubgammaSpec:
    """Variance proxy Sigma and scale matrix C of a subgamma claim.

    Each is a matrix or a 1-d diagonal (nonnegative for C); a scalar C
    is C times the identity, kept as a diagonal, and C = 0 is the
    subgaussian case.
    """

    sigma: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        require_sym_psd(sigma, "Sigma")
        d = sigma.shape[0]
        c = np.asarray(self.c, dtype=float)
        if not np.all(np.isfinite(c)):
            raise PreconditionError("C must be finite")
        if c.ndim == 0:
            c = np.full(d, float(c))
        if c.shape not in ((d,), (d, d)):
            raise PreconditionError(
                f"C must be a scalar, a {d}-vector or a ({d}, {d}) matrix")
        if c.ndim == 1 and np.any(c < 0):
            raise PreconditionError("C must be nonnegative as a diagonal")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def trace_sigma(self) -> float:
        return _trace(self.sigma)

    @property
    def sigma_norm(self) -> float:
        return _top_eigenvalue(self.sigma)

    @property
    def c_norm(self) -> float:
        return float(np.max(self.c) if self.c.ndim == 1
                     else np.linalg.norm(self.c, 2))

    @property
    def c_frob(self) -> float:
        return float(np.linalg.norm(self.c))

    @property
    def is_subgaussian(self) -> bool:
        return not np.any(self.c)


@dataclass(frozen=True)
class VectorGenerator:
    """Mean-zero vector sampler with its claimed subgamma parameters; its
    dimension is the claim's."""

    claimed: SubgammaSpec
    # (n, seed, rows) -> the n draws of `seed` as consecutive float arrays
    # of at most `rows` rows each, freshly allocated
    _chunks: Callable[[int, RngSeed, int], Iterator[np.ndarray]]
    # ||x|| of every draw, for a family that fixes it; else None
    fixed_norm: float | None = None

    @property
    def dim(self) -> int:
        return self.claimed.dim

    def draw(self, n_trials: int, seed: RngSeed) -> np.ndarray:
        """n_trials draws as one (n_trials, dim) array."""
        n_trials = require_int(n_trials, "n_trials", 1)
        (out,) = self._chunks(n_trials, seed, n_trials)
        return out.reshape(n_trials, self.dim)


def _row_chunks(rows_of: Callable[[np.random.Generator, int], np.ndarray]):
    """Chunk iterator over one generator per seed; rows_of(gen, k) draws
    the next k rows.  numpy fills arrays in C order from one bit-generator
    state, so the chunks join up to the draw of all n rows in one call."""

    def chunks(n, seed, rows):
        gen = seed.generator()
        for start in range(0, n, rows):
            yield rows_of(gen, min(rows, n - start))

    return chunks


def _psd_root(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix."""
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def gaussian_generator(sigma) -> VectorGenerator:
    """x ~ N(0, Sigma); claims (Sigma, 0), the subgaussian case.

    Sigma is a PSD matrix or a 1-d diagonal of variances.
    """
    spec = SubgammaSpec(np.asarray(sigma, dtype=float), 0.0)
    diagonal = spec.sigma.ndim == 1
    root = np.sqrt(spec.sigma) if diagonal else _psd_root(spec.sigma)

    def rows_of(gen, k):
        z = gen.standard_normal((k, spec.dim))
        if diagonal:
            z *= root
            return z
        return z @ root.T

    return VectorGenerator(spec, _row_chunks(rows_of))


def exponential_generator(scales) -> VectorGenerator:
    """x_j = s_j (E_j - 1) with E_j ~ Exp(1) independent.

    Claims (2 diag(s^2), 2 diag(s)): with t = lambda s_j <= 1/2 on the
    admissible range, the exact centered-Exp MGF satisfies
    -t - log(1-t) <= t^2, i.e. the claim holds analytically.
    """
    s = np.asarray(scales, dtype=float)
    if s.ndim != 1 or not np.all((s > 0) & np.isfinite(s)):
        raise PreconditionError("scales must be a 1-d finite positive vector")
    spec = SubgammaSpec(2.0 * (s * s), 2.0 * s)

    def rows_of(gen, k):
        x = gen.exponential(1.0, (k, s.size))
        x -= 1.0
        x *= s
        return x

    return VectorGenerator(spec, _row_chunks(rows_of))


def rademacher_generator(bounds) -> VectorGenerator:
    """x_j = b_j xi_j with xi_j uniform on {-1, +1}; claims (diag(b^2), 0).

    Every draw has norm ||b||: its squares are b_j^2 whatever the signs,
    and the row reduction of the streamed norms sums them in one order.
    """
    b = np.asarray(bounds, dtype=float)
    if b.ndim != 1 or not np.all((b > 0) & np.isfinite(b)):
        raise PreconditionError("bounds must be a 1-d finite positive vector")
    spec = SubgammaSpec(b * b, 0.0)

    def rows_of(gen, k):
        return b * (gen.integers(0, 2, (k, b.size)) * 2 - 1)

    norm = float(_row_norms(b[None, :].copy(), np.empty(1))[0])
    return VectorGenerator(spec, _row_chunks(rows_of), norm)


def score_vector_generator(m: SmoothedModelHd, eps) -> VectorGenerator:
    """Centered scaled score r*(s_R(x + eps) - E[s_R(x + eps)]), x ~ f_R.

    The claimed variance proxy inflates the exact ungapped covariance
    r^2 diag(I_r) by 2(1 + sqrt(eps^T R^{-1} eps) *
    sqrt(max(1, log(||I_R^{-1}||/r^2)))) to absorb the shift-induced
    covariance growth; the scale matrix is 15 (r^2 diag(I_r))^{1/2}.
    Requires eps^T R^{-1} eps <= 1/4, the regime where the inflation
    factor form is valid.  Its draws come from two derived streams, the
    sample and the noise: the sample is drawn in one call and scored in
    place (smoothing._scored_sample, as score_moment_check draws), so it
    yields one chunk of n rows.
    """
    eps, quad_form = _small_offset(m, eps)
    fisher_diag = np.diag(fisher_hd(m).matrix)
    m_prime = m.r * m.r * fisher_diag
    inv_norm = 1.0 / float(fisher_diag.min())
    inflation = 2.0 * (1.0 + math.sqrt(quad_form)
                       * math.sqrt(max(1.0, math.log(inv_norm / (m.r * m.r)))))
    spec = SubgammaSpec(inflation * m_prime, 15.0 * np.sqrt(m_prime))
    centers = np.array([expected_shifted_score(e, float(ej))
                        for e, ej in zip(_coord_engines(m), eps)])

    def chunks(n, seed, rows):
        # x + r * noise - (-eps) rounds as x + r * noise + eps
        x = _scored_sample(m, n, -eps, seed)
        x -= centers
        x *= m.r
        yield x

    return VectorGenerator(spec, chunks)


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
    """sqrt(Tr Sigma) + sqrt(2 ||Sigma|| log(1/delta)), the Gaussian baseline.

    Sigma is a symmetric PSD matrix or a 1-d diagonal, checked as
    SubgammaSpec checks it.
    """
    if not 0.0 < delta <= 1.0:
        raise PreconditionError("delta must be in (0, 1]")
    sigma = np.asarray(sigma, dtype=float)
    require_sym_psd(sigma, "Sigma")
    return (math.sqrt(_trace(sigma))
            + math.sqrt(2.0 * _top_eigenvalue(sigma) * math.log(1.0 / delta)))


def _row_norms(chunk: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2-norm of each row of a 2-d float chunk, into out.  The chunk is
    squared in place and row-summed, the reduction norm(axis=1) uses.
    estimatorhd._row_norms rounds as the norm of one vector does (a dot),
    as Weiszfeld's test did; one for both would change bits."""
    np.multiply(chunk, chunk, out=chunk)
    np.add.reduce(chunk, axis=1, out=out)
    return np.sqrt(out, out=out)


def _norms(gen: VectorGenerator, n_trials: int, seed: RngSeed) -> np.ndarray:
    """||x|| of each of n draws, streamed in chunks of at most _CHUNK_COORDS
    coordinates, so only the n norms are held."""
    norms = np.empty(n_trials)
    start = 0
    for chunk in gen._chunks(n_trials, seed, max(1, _CHUNK_COORDS // gen.dim)):
        _row_norms(chunk, norms[start:start + chunk.shape[0]])
        start += chunk.shape[0]
    return norms


def empirical_norm_quantile(gen: VectorGenerator, n_trials: int, delta: float,
                            seed: RngSeed) -> float:
    """Order statistic ceil((1-delta) n) of ||x|| over n fresh draws.

    For a generator with a fixed norm that is the norm, and nothing is
    drawn.
    """
    if not 0.0 < delta < 1.0:
        raise PreconditionError("delta must be in (0, 1)")
    n_trials = require_int(n_trials, "n_trials", 1)
    if n_trials < math.ceil(10.0 / delta):
        raise ConfigurationError(
            f"n_trials={n_trials} too small for delta={delta}; "
            f"need at least {math.ceil(10.0 / delta)}"
        )
    if gen.fixed_norm is not None:
        return gen.fixed_norm
    k = min(max(int(math.ceil((1.0 - delta) * n_trials)), 1), n_trials) - 1
    return float(np.partition(_norms(gen, n_trials, seed), k)[k])


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
    if not np.all(np.isfinite(v)):
        raise PreconditionError("v must be finite")
    lambdas = np.asarray(lambda_grid, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise PreconditionError("lambda_grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lambdas)):
        raise PreconditionError("lambda_grid must be finite")
    n_mc = require_int(n_mc, "n_mc", 100_000)
    spec = gen.claimed
    sigma_v = v * spec.sigma if spec.sigma.ndim == 1 else v @ spec.sigma
    quad = float(sigma_v @ v)
    if spec.is_subgaussian:
        cap = 3.0 / math.sqrt(quad) if quad > 0 else math.inf
    else:
        c_v = spec.c * v if spec.c.ndim == 1 else spec.c @ v
        cv = float(np.linalg.norm(c_v))
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
