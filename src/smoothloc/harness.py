"""Experiment drivers with deterministic CSV output.

Five batch studies (fisher sweep, 1-d and high-d coverage, sawtooth
phase scan, norm-concentration sweep), declared once in `EXPERIMENTS`,
plus the config-file grammar that describes them.  Every driver returns
a :class:`CsvTable` whose bytes depend only on the configuration and
the root seed: each trial derives its own RNG streams from (seed, trial
index), the three estimation studies run fixed blocks of whole trials
(one stacked estimator call per block), the thread pool gets whole
blocks or cells, and results are reassembled in order before emission.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .concentration import (
    VectorGenerator,
    empirical_norm_quantile,
    exponential_generator,
    gaussian_generator,
    gaussian_tail,
    norm_bound,
    rademacher_generator,
)
from .errors import (
    ConfigurationError,
    EstimationError,
    PreconditionError,
    TailUnderflowError,
    require_int,
)
from .estimator1d import Config1d, _split, global_mle_1d_rows
from .estimatorhd import ConfigHd, _m_norm, global_mle_hd_rows
from .models import (Density1d, GaussianSawtooth, ProductDensity, parse_model,
                     require_resolvable_shift)
from .rng import RngSeed
from .smoothing import SmoothedModel1d, fisher_1d

# Exceptions that turn a single trial into an error row instead of a crash.
_TRIAL_ERRORS = (
    EstimationError,
    TailUnderflowError,
    PreconditionError,
    ConfigurationError,
)


# -- CSV emission ------------------------------------------------------


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # fixed 9-significant-digit decimal form: reproducible diffs
        return "%.9g" % float(value)
    return str(value)


@dataclass(frozen=True)
class CsvTable:
    """Header plus rows, rendered with LF endings and UTF-8 bytes."""

    header: tuple
    rows: tuple

    def __post_init__(self):
        width = len(self.header)
        for row in self.rows:
            if len(row) != width:
                raise PreconditionError(
                    f"row width {len(row)} != header width {width}"
                )

    def to_csv(self) -> str:
        lines = [",".join(str(h) for h in self.header)]
        lines.extend(",".join(_fmt_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _table(header: Sequence[str], rows) -> CsvTable:
    return CsvTable(header=tuple(header), rows=tuple(tuple(r) for r in rows))


# -- config files ------------------------------------------------------
#
# Line-oriented `key = value` text.  `#` starts a comment, blank lines
# are ignored, keys may not repeat, and every key must belong to the
# schema of the declared experiment.  Lists are comma-separated.

_SCALAR_KINDS = ("int", "float", "str")


def _parse_scalar(kind: str, raw: str, key: str):
    raw = raw.strip()
    if not raw:
        raise ConfigurationError(f"empty value for key '{key}'")
    if kind == "str":
        return raw
    try:
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"key '{key}' expects {kind}, got {raw!r}"
        ) from None


def _parse_value(kind: str, raw: str, key: str):
    if kind in _SCALAR_KINDS:
        return _parse_scalar(kind, raw, key)
    base = kind[: -len("-list")]
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise ConfigurationError(f"key '{key}' has an empty list entry")
    return tuple(_parse_scalar(base, p, key) for p in parts)


def _format_value(kind: str, value) -> str:
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "str":
        return str(value)
    base = kind[: -len("-list")]
    return ",".join(_format_value(base, v) for v in value)


_COMMON_KEYS = {"experiment": "str", "seed": "int", "threads": "int"}

# Light range screening at parse time; the target modules stay
# authoritative and re-check on use.
_RANGE_CHECKS: Mapping[str, Callable[[object], bool]] = {
    "seed": lambda v: 0 <= v < 2**64,
    "n": lambda v: v >= 1,
    "trials": lambda v: v >= 1,
    "threads": lambda v: v >= 1,
    "delta": lambda v: 0.0 < v < 1.0,
    "r": lambda v: v > 0.0 and math.isfinite(v),
    "eta": lambda v: 0.0 < v < 1.0,
    "w": lambda v: 0.0 < v < math.inf,
    "slope": lambda v: 0.0 <= v < math.inf,
    "min-n-factor": lambda v: 0.0 < v < math.inf,
    # shifts are drawn from uniform(-v, v), which needs a finite width 2v
    "lambda-scale": lambda v: 0.0 <= 2.0 * v < math.inf,
    "n-grid": lambda v: all(x >= 1 for x in v),
    "r-grid": lambda v: all(x > 0.0 and math.isfinite(x) for x in v),
    "d-grid": lambda v: all(x >= 1 for x in v),
    "delta-grid": lambda v: all(0.0 < x < 1.0 for x in v),
    "families": lambda v: len(v) >= 1,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment description: name plus typed key/value pairs."""

    experiment: str
    values: Mapping[str, object]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigurationError(
                f"experiment '{self.experiment}' needs key '{key}'"
            )
        return self.values[key]


def _experiment(name: str) -> _Experiment:
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(
            f"unknown experiment '{name}' (expected one of {known})"
        )
    return EXPERIMENTS[name]


def _schema_for(experiment: str) -> Mapping[str, str]:
    return {**_COMMON_KEYS, **_experiment(experiment).keys}


def parse_config(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: missing key")
        if key in raw:
            raise ConfigurationError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value

    if "experiment" not in raw:
        raise ConfigurationError("config must declare 'experiment'")
    schema = _schema_for(raw["experiment"])

    values: dict[str, object] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigurationError(
                f"unknown key '{key}' for experiment '{raw['experiment']}'"
            )
        parsed = _parse_value(schema[key], value, key)
        check = _RANGE_CHECKS.get(key)
        if check is not None and not check(parsed):
            raise ConfigurationError(f"key '{key}' out of range: {value}")
        values[key] = parsed
    return ExperimentConfig(experiment=raw["experiment"], values=values)


def format_config(cfg: ExperimentConfig) -> str:
    schema = _schema_for(cfg.experiment)
    lines = [f"experiment = {cfg.experiment}"]
    for key in sorted(k for k in cfg.values if k != "experiment"):
        if key not in schema:
            raise ConfigurationError(
                f"unknown key '{key}' for experiment '{cfg.experiment}'"
            )
        lines.append(f"{key} = {_format_value(schema[key], cfg.values[key])}")
    return "\n".join(lines) + "\n"


# -- parallel trial execution ------------------------------------------


def _map_trials(fn: Callable[[int], tuple], count: int, threads: int):
    # Whole units (blocks of trials, or cells) go to the pool; ex.map keeps
    # submission order, so output is independent of the thread count.
    workers = min(int(threads), count)
    if workers <= 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(count)))


def _median_or_none(values):
    return float(np.median(values)) if values else None


# Trials per block: at most _BLOCK_TRIALS, and no more than fit
# _BLOCK_COORDS sample coordinates (n, or n * d, per trial), at least
# one.  Fixed by the run's shape, never by the thread count.
_BLOCK_TRIALS = 64
_BLOCK_COORDS = 1 << 17


def _run_blocks(estimate_rows, base, cfg, n: int, seeds, lambda_scale: float,
                threads: int, row: Callable, dim=None) -> list:
    """row(t, lam, rep) for each trial t in order, in blocks.

    Trial t draws its shift (a float, or a `dim`-vector) from
    seeds[t].derive(1) and its n samples from seeds[t].derive(2),
    straight into its row of the block's stack, where the shift is
    added in place.
    estimate_rows runs once per block on its (B, n[, dim]) stack, with
    seeds[t].derive(3) for trial t's row, and owns and consumes the
    stack.  rep is the trial's entry of what estimate_rows returns, or
    an "error: ..." note in place of an exception: a whole-block failure
    is every row's note.  A negative lambda_scale, or one past float64
    resolution of the model's samples, is rejected up front.
    """
    require_resolvable_shift(base, lambda_scale, "lambda-scale")
    if not lambda_scale >= 0:
        raise PreconditionError(f"lambda-scale must be >= 0, got {lambda_scale}")
    shape = (n,) if dim is None else (n, dim)
    size = max(1, min(_BLOCK_TRIALS, _BLOCK_COORDS // max(math.prod(shape), 1)))

    def block(i: int) -> list:
        first = i * size
        block_seeds = seeds[first:first + size]
        lams, x = [], np.empty((len(block_seeds),) + shape)
        for ts, sample in zip(block_seeds, x):
            lam = ts.derive(1).generator().uniform(-lambda_scale, lambda_scale,
                                                   size=dim)
            base.sample(n, ts.derive(2), out=sample)
            sample += lam
            lams.append(lam)
        try:
            reps = estimate_rows(base, x, cfg, [ts.derive(3) for ts in block_seeds])
        except _TRIAL_ERRORS as e:
            reps = [e] * len(block_seeds)
        return [row(first + b, lam,
                    f"error: {rep}" if isinstance(rep, Exception) else rep)
                for b, (lam, rep) in enumerate(zip(lams, reps))]

    blocks = _map_trials(block, -(-len(seeds) // size), threads)
    return [r for rows in blocks for r in rows]


def _require_count(name: str, value) -> int:
    """A trial count, sample size or dimension as an int, rejected by name
    below 1 or when it is not an integer (2.7 would truncate)."""
    if isinstance(value, (int, np.integer)) and value < 1:
        raise PreconditionError(f"{name} must be >= 1, got {value}")
    return require_int(value, name, 1)


def _tally(rows):
    """Error-free rows (empty note) and the summary note of a coverage run.

    Every row ends in (within_flag, note); errors count against coverage.
    """
    ok = [r for r in rows if r[-1] == ""]
    failures = sum(1 for r in ok if r[-2] == 0)
    errors = len(rows) - len(ok)
    rate = (failures + errors) / len(rows)
    return ok, (f"failure_rate={rate:.9g} failures={failures} "
                f"errors={errors} trials={len(rows)}")


# -- fisher sweep ------------------------------------------------------


def run_fisher_sweep(model_spec: str, r_grid) -> CsvTable:
    """One row (r, fisher) per grid point for a 1-d model spec."""
    base = parse_model(model_spec)
    if not isinstance(base, Density1d):
        raise PreconditionError("fisher sweep needs a one-dimensional model")
    grid = [float(r) for r in r_grid]
    if not grid:
        raise PreconditionError("r grid must be non-empty")
    rows = [(r, fisher_1d(SmoothedModel1d(base, r))) for r in grid]
    return _table(("r", "fisher"), rows)


# -- 1-d coverage ------------------------------------------------------


def run_coverage(model_spec: str, n: int, trials: int, delta: float,
                 seed: int, threads: int = 1, lambda_scale: float = 2.0,
                 r_override=None) -> CsvTable:
    """Monte Carlo coverage of the two-stage 1-d estimator.

    Each trial draws a uniform shift, samples the shifted model, and
    records |lambda_hat - lambda| against the reported radius plus a
    sample-mean baseline on the same local-stage data.  Failed trials
    become error rows; the trailing summary row reports the failure
    rate with errors counted against coverage.
    """
    n, trials = _require_count("n", n), _require_count("trials", trials)
    base = parse_model(model_spec)
    if not isinstance(base, Density1d):
        raise PreconditionError("coverage needs a one-dimensional model")
    cfg = Config1d(delta=float(delta), r_override=r_override)
    root = RngSeed(int(seed))
    base_mean = base.mean()

    def estimate_rows(base, x, cfg, seeds) -> list:
        # the baseline's sample mean reads each local split before the
        # step perturbs and scores it in place
        means = [float(np.mean(local)) for local in x[:, _split(cfg, n)[1]:]]
        return [rep if isinstance(rep, Exception) else (rep, mean)
                for rep, mean in zip(global_mle_1d_rows(base, x, cfg, seeds),
                                     means)]

    def row(t: int, lam, rep) -> tuple:
        if isinstance(rep, str):
            return (t, lam, None, None, None, None, None, rep)
        rep, mean = rep
        abs_err = abs(rep.lambda_hat - lam)
        baseline = abs(mean - base_mean - lam)
        within = abs_err <= rep.theoretical_radius
        return (t, lam, rep.lambda_hat, abs_err, baseline,
                rep.theoretical_radius, int(within), "")

    rows = _run_blocks(estimate_rows, base, cfg, n,
                       [root.derive(t) for t in range(trials)],
                       lambda_scale, threads, row)
    ok, note = _tally(rows)
    rows.append(("summary", None, None,
                 _median_or_none([r[3] for r in ok]),
                 _median_or_none([r[4] for r in ok]),
                 ok[0][5] if ok else None, None, note))
    return _table(("trial", "lambda_true", "lambda_hat", "abs_err",
                   "baseline_abs_err", "theoretical_radius", "within_flag",
                   "note"), rows)


# -- high-dimensional coverage -----------------------------------------


def run_coverage_hd(model_spec: str, n: int, trials: int, delta: float,
                    r: float, seed: int, eta: float = 0.25,
                    threads: int = 1, lambda_scale: float = 2.0) -> CsvTable:
    """Monte Carlo coverage of the product-model estimator in M-norm.

    A failed trial's error is its row's note.
    """
    n, trials = _require_count("n", n), _require_count("trials", trials)
    base = parse_model(model_spec)
    if not isinstance(base, ProductDensity):
        raise PreconditionError("coverage-hd needs a product model")
    cfg = ConfigHd(delta=float(delta), r=float(r), eta=float(eta))
    M = cfg.norm_matrix(base.dim)
    root = RngSeed(int(seed))

    def row(t: int, lam, rep) -> tuple:
        if isinstance(rep, str):
            return (t, None, None, None, rep)
        err = _m_norm(rep.lambda_hat - lam, M)
        within = err <= rep.m_norm_error_bound
        return (t, err, rep.m_norm_error_bound, int(within), "")

    rows = _run_blocks(global_mle_hd_rows, base, cfg, n,
                       [root.derive(t) for t in range(trials)],
                       lambda_scale, threads, row, base.dim)
    ok, note = _tally(rows)
    rows.append(("summary",
                 _median_or_none([r[1] for r in ok]),
                 ok[0][2] if ok else None, None, note))
    return _table(("trial", "err_norm", "error_bound", "within_flag",
                   "note"), rows)


# -- sawtooth phase scan -----------------------------------------------


def run_sawtooth_phase(w: float, slope: float, n_grid, trials: int,
                       delta: float, seed: int, threads: int = 1,
                       min_n_factor: float = 30.0,
                       lambda_scale: float = 2.0) -> CsvTable:
    """Normalized error of the 1-d estimator across sample sizes.

    One row per n in the grid with the median |lambda_hat - lambda|
    scaled by sqrt(n) and sqrt(n_local); the falling sqrt(n) column is
    the phase-transition direction, the sqrt(n_local) column is the
    schedule-free control normalization.
    """
    trials = _require_count("trials", trials)
    n_grid = [_require_count("n_grid entry", v) for v in n_grid]
    base = GaussianSawtooth(float(w), float(slope))
    cfg = Config1d(delta=float(delta), min_n_factor=float(min_n_factor))
    root = RngSeed(int(seed))
    rows = []

    def row(t: int, lam, rep):
        return rep if isinstance(rep, str) else (abs(rep.lambda_hat - lam), rep)

    for i_n, n in enumerate(n_grid):
        results = _run_blocks(global_mle_1d_rows, base, cfg, n,
                              [root.derive(i_n, t) for t in range(trials)],
                              lambda_scale, threads, row)
        ok = [r for r in results if not isinstance(r, str)]
        n_errors = len(results) - len(ok)
        if not ok:
            rows.append((n, None, None, None, None, None, None,
                         trials, n_errors))
            continue
        med = float(np.median([a for a, _ in ok]))
        rep = ok[0][1]
        rows.append((n, med * math.sqrt(n), rep.r_used, rep.fisher_at_r,
                     med, med * math.sqrt(rep.n_used_local),
                     rep.n_used_local, trials, n_errors))
    return _table(("n", "med_sqrt_n", "r_star", "fisher_at_r",
                   "median_abs_err", "med_sqrt_n_local", "n_local",
                   "trials", "errors"), rows)


# -- concentration sweep -----------------------------------------------

_UNIT_FAMILIES: Mapping[str, Callable[[int], VectorGenerator]] = {
    "gaussian": lambda d: gaussian_generator(np.ones(d)),
    "exponential": lambda d: exponential_generator(np.ones(d)),
    "rademacher": lambda d: rademacher_generator(np.ones(d)),
}


def run_concentration(families, d_grid, delta_grid, trials: int,
                      seed: int, threads: int = 1) -> CsvTable:
    """Empirical norm quantiles vs both bounds over a (family, d, delta) grid.

    Families use unit parameters at each dimension (identity covariance,
    unit scales, unit bounds).  Each cell draws its vectors from its own
    derived stream, streamed in cache-sized row chunks that keep only the
    norms (`empirical_norm_quantile`); cells parallelize as units.
    """
    for fam in families:
        if fam not in _UNIT_FAMILIES:
            known = ", ".join(sorted(_UNIT_FAMILIES))
            raise ConfigurationError(
                f"unknown family '{fam}' (expected one of {known})"
            )
    trials = _require_count("trials", trials)
    d_grid = [_require_count("d_grid entry", d) for d in d_grid]
    cells = [(fam, d, float(dl))
             for fam in families for d in d_grid for dl in delta_grid]
    root = RngSeed(int(seed))

    def one(i: int) -> tuple:
        fam, d, dl = cells[i]
        gen = _UNIT_FAMILIES[fam](d)
        q = empirical_norm_quantile(gen, trials, dl, root.derive(i))
        return (fam, d, dl, trials, q, norm_bound(gen.claimed, dl),
                gaussian_tail(gen.claimed.sigma, dl), int(seed))

    rows = _map_trials(one, len(cells), threads)
    return _table(("family", "d", "delta", "trials", "empirical_q",
                   "bound_subgamma", "bound_gaussian", "seed"), rows)


# -- config-driven dispatch --------------------------------------------


def _optional(cfg: ExperimentConfig, **keys) -> dict:
    """Keyword arguments (arg="config-key") for the optional keys cfg sets.

    A key the config leaves out keeps the runner's own default.
    """
    return {arg: cfg.values[key] for arg, key in keys.items()
            if key in cfg.values}


@dataclass(frozen=True)
class _Experiment:
    keys: Mapping[str, str]  # config key -> value kind, beyond the common keys
    run: Callable[[ExperimentConfig, int], CsvTable]  # (config, threads)


# The batch experiments: the config grammar, `run_experiment` and the
# `smoothloc bench` command all read this one table.
EXPERIMENTS: Mapping[str, _Experiment] = {
    "fisher-sweep": _Experiment(
        {"model": "str", "r-grid": "float-list"},
        lambda c, threads: run_fisher_sweep(c.require("model"),
                                            c.require("r-grid"))),
    "coverage": _Experiment(
        {"model": "str", "n": "int", "trials": "int", "delta": "float",
         "r": "float", "lambda-scale": "float"},
        lambda c, threads: run_coverage(
            c.require("model"), c.require("n"), c.require("trials"),
            c.require("delta"), c.require("seed"), threads,
            **_optional(c, lambda_scale="lambda-scale", r_override="r"))),
    "coverage-hd": _Experiment(
        {"model": "str", "n": "int", "trials": "int", "delta": "float",
         "r": "float", "eta": "float", "lambda-scale": "float"},
        lambda c, threads: run_coverage_hd(
            c.require("model"), c.require("n"), c.require("trials"),
            c.require("delta"), c.require("r"), c.require("seed"),
            threads=threads,
            **_optional(c, eta="eta", lambda_scale="lambda-scale"))),
    "sawtooth-phase": _Experiment(
        {"w": "float", "slope": "float", "n-grid": "int-list",
         "trials": "int", "delta": "float", "min-n-factor": "float",
         "lambda-scale": "float"},
        lambda c, threads: run_sawtooth_phase(
            c.require("w"), c.require("slope"), c.require("n-grid"),
            c.require("trials"), c.require("delta"), c.require("seed"),
            threads, **_optional(c, min_n_factor="min-n-factor",
                                 lambda_scale="lambda-scale"))),
    "concentration": _Experiment(
        {"families": "str-list", "d-grid": "int-list",
         "delta-grid": "float-list", "trials": "int"},
        lambda c, threads: run_concentration(
            c.require("families"), c.require("d-grid"),
            c.require("delta-grid"), c.require("trials"), c.require("seed"),
            threads)),
}


def run_experiment(cfg: ExperimentConfig, threads=None) -> CsvTable:
    """Run a batch experiment; `threads` overrides the config's key."""
    experiment = _experiment(cfg.experiment)
    threads = int(cfg.get("threads", 1) if threads is None else threads)
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    return experiment.run(cfg, threads)
