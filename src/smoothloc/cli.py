"""Command-line front end.

Subcommands: `estimate` and `estimate-hd` run one simulated estimation
round (draw n samples from the model shifted by --lambda-true, then
recover the shift), `fisher` prints a smoothed-Fisher sweep as CSV on
stdout, and `bench` runs a config-file experiment to a CSV file.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (
    ConfigurationError,
    EstimationError,
    ModelSpecError,
    PreconditionError,
    TailUnderflowError,
)
from .estimator1d import Config1d, global_mle_1d
from .estimatorhd import ConfigHd, global_mle_hd, m_norm
from .harness import (
    EXPERIMENTS,
    CsvTable,
    parse_config,
    run_experiment,
    run_fisher_sweep,
)
from .models import (Density1d, ProductDensity, parse_model,
                     require_resolvable_shift)
from .rng import RngSeed


def _float_list(text: str):
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothloc",
        description="smoothed maximum-likelihood location estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one simulated 1-d estimation round")
    est.add_argument("--model", required=True, help="1-d model spec string")
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--delta", type=float, required=True)
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--r", type=float, default=None,
                     help="override the smoothing radius schedule")
    est.add_argument("--lambda-true", type=float, default=0.0)
    est.add_argument("--out", default=None, help="also write a one-row CSV")

    hd = sub.add_parser("estimate-hd",
                        help="one simulated product-model estimation round")
    hd.add_argument("--model", required=True, help="product model spec string")
    hd.add_argument("--n", type=int, required=True)
    hd.add_argument("--delta", type=float, required=True)
    hd.add_argument("--r", type=float, required=True)
    hd.add_argument("--eta", type=float, required=True)
    hd.add_argument("--seed", type=int, required=True)
    hd.add_argument("--lambda-true", type=_float_list, default=None,
                    help="comma-separated shift vector (default zeros)")

    fis = sub.add_parser("fisher", help="smoothed Fisher information sweep")
    fis.add_argument("--model", required=True, help="1-d model spec string")
    fis.add_argument("--r-grid", type=_float_list, required=True,
                     help="comma-separated smoothing radii")

    ben = sub.add_parser("bench", help="run a config-file experiment")
    ben.add_argument("experiment", choices=tuple(EXPERIMENTS))
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", required=True)
    ben.add_argument("--threads", type=int, default=None,
                     help="override the config's thread count")
    return parser


def _print_kv(key: str, value) -> None:
    if isinstance(value, np.ndarray):
        value = ",".join("%.9g" % v for v in value)
    elif isinstance(value, float):
        value = "%.9g" % value
    print(f"{key} = {value}")


def _cmd_estimate(args) -> int:
    base = parse_model(args.model)
    if not isinstance(base, Density1d):
        raise PreconditionError("estimate needs a one-dimensional model")
    if not math.isfinite(args.lambda_true):
        raise PreconditionError(f"--lambda-true must be finite, got {args.lambda_true}")
    require_resolvable_shift(base, args.lambda_true, "--lambda-true")
    root = RngSeed(args.seed)
    x = base.sample(args.n, root.derive(2))
    x += args.lambda_true
    cfg = Config1d(delta=args.delta, r_override=args.r)
    rep = global_mle_1d(base, x, cfg, root.derive(3))
    abs_err = abs(rep.lambda_hat - args.lambda_true)
    fields = (
        ("lambda_true", args.lambda_true),
        ("lambda_hat", rep.lambda_hat),
        ("lambda_initial", rep.lambda_initial),
        ("abs_err", abs_err),
        ("r_used", rep.r_used),
        ("fisher_at_r", rep.fisher_at_r),
        ("theoretical_radius", rep.theoretical_radius),
        ("n_used_local", rep.n_used_local),
        ("n_used_init", rep.n_used_init),
    )
    for key, value in fields:
        _print_kv(key, value)
    if args.out is not None:
        CsvTable(header=tuple(k for k, _ in fields),
                 rows=(tuple(v for _, v in fields),)).write(args.out)
    return 0


def _cmd_estimate_hd(args) -> int:
    base = parse_model(args.model)
    if not isinstance(base, ProductDensity):
        raise PreconditionError("estimate-hd needs a product model")
    lam = (np.zeros(base.dim) if args.lambda_true is None
           else np.asarray(args.lambda_true, dtype=float))
    if lam.shape != (base.dim,):
        raise PreconditionError(
            f"--lambda-true needs {base.dim} components, got {lam.size}"
        )
    if not np.isfinite(lam).all():
        raise PreconditionError(f"--lambda-true must be finite, got {args.lambda_true}")
    require_resolvable_shift(base, lam, "--lambda-true")
    root = RngSeed(args.seed)
    x = base.sample(args.n, root.derive(2))
    x += lam
    cfg = ConfigHd(delta=args.delta, r=args.r, eta=args.eta)
    rep = global_mle_hd(base, x, cfg, root.derive(3))
    err = m_norm(rep.lambda_hat - lam, cfg.norm_matrix(base.dim))
    _print_kv("lambda_true", lam)
    _print_kv("lambda_hat", rep.lambda_hat)
    _print_kv("lambda_initial", rep.lambda_initial)
    _print_kv("err_norm", err)
    _print_kv("m_norm_error_bound", rep.m_norm_error_bound)
    _print_kv("d_eff_T", rep.d_eff_T)
    _print_kv("n_used_local", rep.n_used_local)
    _print_kv("n_used_init", rep.n_used_init)
    return 0


def _cmd_fisher(args) -> int:
    sys.stdout.write(run_fisher_sweep(args.model, args.r_grid).to_csv())
    return 0


def _cmd_bench(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ConfigurationError(
            f"config file {args.config!r} is not UTF-8 text: {e}") from None
    cfg = parse_config(text)
    if cfg.experiment != args.experiment:
        raise ConfigurationError(
            f"config declares experiment '{cfg.experiment}' "
            f"but the command line asked for '{args.experiment}'"
        )
    run_experiment(cfg, threads=args.threads).write(args.out)
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "estimate-hd": _cmd_estimate_hd,
    "fisher": _cmd_fisher,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ModelSpecError, ConfigurationError, PreconditionError,
            EstimationError, TailUnderflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
