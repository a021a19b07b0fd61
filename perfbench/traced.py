"""The traced run: the harness's trials again, a span around each call.

Per batch, the harness runs the batch as `smoothloc bench` would (with a
span around each harness call); then the same trials are replayed here
once with tracing off, for the single-thread time of each trial, and
once with a span around each call into models, the estimators,
smoothing and concentration.  The per-layer metrics come from the
spans.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np
import smoothloc as sl

import checks
import workloads
from tracing import Tracer


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name):
        yield None


class TracedTrials:
    """The harness's trials again, from this file, one call at a time.

    Each trial repeats what the harness does for trial t (same derived
    streams) with a span around each layer call, then breaks the
    estimate into its public steps, taking the split and radius from
    the estimator's report, and checks that the steps reproduce it.
    """

    def __init__(self, w, tracer, problems):
        self.w, self.tracer, self.problems = w, tracer, problems
        self.tr, self.traced = tracer, True
        self.points = []   # points scored, per traced trial
        self.draws = []    # scalar variates drawn, per traced trial or cell
        self.untraced_s = 0.0
        self._flip = False

    def _check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def run_batch(self, cfg, table):
        run = {"coverage": self._coverage, "sawtooth-phase": self._sawtooth,
               "coverage-hd": self._coverage_hd,
               "concentration": self._concentration}[self.w.experiment]
        run(cfg, table)

    def _twice(self, trial, *args):
        """Run a trial with tracing off, timed as a whole, and traced.

        Off, only the trial runs (no spans, no steps): its time is the
        trial's single-thread time with tracing off.  The order flips
        from trial to trial, so that whichever run finds memory and
        caches warm is half the time the traced one."""
        self._flip = not self._flip
        if self._flip:
            self._untraced(trial, *args)
        self.tr, self.traced = self.tracer, True
        out = trial(*args)
        if not self._flip:
            self._untraced(trial, *args)
        return out

    def _untraced(self, trial, *args):
        self.tr, self.traced = _NoTracer(), False
        t0 = time.perf_counter()
        trial(*args)
        self.untraced_s += time.perf_counter() - t0
        self.tr, self.traced = self.tracer, True

    # 1-d -------------------------------------------------------------

    def _check_1d(self, rep, n_init, r, lam1, fisher, hat):
        self._check(
            (rep.n_used_init, rep.r_used) == (n_init, r)
            and lam1 == rep.lambda_initial and fisher == rep.fisher_at_r
            and abs(hat - rep.lambda_hat) <= 1e-12 * max(1.0, abs(hat)),
            f"steps do not reproduce global_mle_1d: init {lam1} vs "
            f"{rep.lambda_initial}, estimate {hat} vs {rep.lambda_hat}")

    def _steps_1d(self, base, cfg1d, ts, x, n_init, r, parent="steps"):
        """Quantile start and one Newton step, one public call at a time."""
        sp = self.tr.span
        q = cfg1d.q_multiplier * (math.log(2.0 / cfg1d.delta) / x.size) ** 0.4
        with sp(parent):
            with sp("estimator1d.choose_alpha"):
                alpha = sl.choose_alpha(base, q, cfg1d.alpha_grid_step)
            with sp("estimator1d.quantile_initial_estimate"):
                lam1 = sl.quantile_initial_estimate(base, x[:n_init], alpha)
            engine = sl.SmoothedModel1d(base, r)
            noise = ts.derive(3).generator().standard_normal(x.size - n_init)
            pts = x[n_init:] + r * noise - lam1
            with sp("smoothing.smoothed_score_1d"):
                score = sl.smoothed_score_1d(engine, pts)
            with sp("smoothing.fisher_1d"):
                fisher = sl.fisher_1d(engine)
        return lam1, fisher, lam1 - float(np.mean(score)) / fisher, pts.size

    def _sample_1d(self, base, ts, n, ls):
        lam = float(ts.derive(1).generator().uniform(-ls, ls))
        with self.tr.span("models.sample"):
            x = base.sample(n, ts.derive(2)) + lam
        return lam, x

    def _trial_1d(self, base, cfg1d, ts, n, ls):
        with self.tr.span("trial"):
            lam, x = self._sample_1d(base, ts, n, ls)
            with self.tr.span("estimator1d.global_mle_1d"):
                rep = sl.global_mle_1d(base, x, cfg1d, ts.derive(3))
        if not self.traced:
            return lam, rep
        self.draws.append(x.size)
        lam1, fisher, hat, points = self._steps_1d(
            base, cfg1d, ts, x, rep.n_used_init, rep.r_used)
        self._check_1d(rep, rep.n_used_init, rep.r_used, lam1, fisher, hat)
        self.points.append(points)
        return lam, rep

    def _cold_1d(self, base, cfg1d, ts, n, ls):
        # nothing is cached yet, so the estimator has not run and the
        # split and radius come from its documented schedule; they are
        # checked against its report right after
        with self.tr.span("cold"):
            lam, x = self._sample_1d(base, ts, n, ls)
            n_init = checks.split_1d(n, cfg1d.delta)
            r = checks.r_star(base, n, cfg1d.delta)
            lam1, fisher, hat, _ = self._steps_1d(base, cfg1d, ts, x, n_init,
                                                  r, parent="cold-steps")
        rep = sl.global_mle_1d(base, x, cfg1d, ts.derive(3))
        self._check_1d(rep, n_init, r, lam1, fisher, hat)

    def _model_1d(self, cfg):
        delta = float(cfg.require("delta"))
        if self.w.experiment == "coverage":
            return (sl.parse_model(cfg.require("model")),
                    sl.Config1d(delta=delta, r_override=cfg.get("r")))
        return (sl.GaussianSawtooth(float(cfg.require("w")),
                                    float(cfg.require("slope"))),
                sl.Config1d(delta=delta,
                            min_n_factor=float(cfg.get("min-n-factor", 30.0))))

    def _coverage(self, cfg, table):
        base, cfg1d = self._model_1d(cfg)
        root = sl.RngSeed(int(cfg.require("seed")))
        n, ls = int(cfg.require("n")), cfg.get("lambda-scale", 2.0)
        for t in range(int(cfg.require("trials"))):
            lam, rep = self._twice(self._trial_1d, base, cfg1d,
                                   root.derive(t), n, ls)
            row = table.rows[t]
            self._check(row[1] == lam and row[2] == rep.lambda_hat,
                        f"traced trial {t} differs from the harness row")

    def _sawtooth(self, cfg, table):
        base, cfg1d = self._model_1d(cfg)
        root = sl.RngSeed(int(cfg.require("seed")))
        ls = cfg.get("lambda-scale", 2.0)
        for i_n, n in enumerate(cfg.require("n-grid")):
            errs = []
            for t in range(int(cfg.require("trials"))):
                lam, rep = self._twice(self._trial_1d, base, cfg1d,
                                       root.derive(i_n, t), int(n), ls)
                errs.append(abs(rep.lambda_hat - lam))
            self._check(table.rows[i_n][4] == float(np.median(errs)),
                        f"traced n={n} median error differs from the harness")

    def cold_1d(self, cfg):
        """Cold probe on trial 0 of the batch config `cfg`."""
        base, cfg1d = self._model_1d(cfg)
        root = sl.RngSeed(int(cfg.require("seed")))
        if self.w.experiment == "coverage":
            ts, n = root.derive(0), int(cfg.require("n"))
        else:
            ts, n = root.derive(0, 0), int(cfg.require("n-grid")[0])
        self._cold_1d(base, cfg1d, ts, n, cfg.get("lambda-scale", 2.0))

    # high-dimensional ----------------------------------------------------

    def _hd_setup(self, cfg):
        base = sl.parse_model(cfg.require("model"))
        cfghd = sl.ConfigHd(delta=float(cfg.require("delta")),
                            r=float(cfg.require("r")),
                            eta=float(cfg.get("eta", 0.25)))
        return base, cfghd, sl.RngSeed(int(cfg.require("seed")))

    def _steps_hd(self, base, cfghd, ts, x, n_init, parent="steps"):
        """Median-of-means start and the local step, one call at a time;
        the score and Fisher calls come first so the cold probe times
        them cold."""
        sp = self.tr.span
        seed = ts.derive(3)
        with sp(parent):
            with sp("estimatorhd.geometric_median_of_means"):
                lam1 = sl.geometric_median_of_means(
                    x[:n_init], cfghd.delta, seed.derive(1),
                    cfghd.mom_buckets_multiplier)
            engine = sl.SmoothedModelHd(base, cfghd.r)
            noise = seed.derive(2).generator().standard_normal(
                x[n_init:].shape)
            pts = x[n_init:] + cfghd.r * noise - lam1
            with sp("smoothing.smoothed_score_hd"):
                scores = sl.smoothed_score_hd(engine, pts)
            with sp("smoothing.fisher_hd"):
                fisher = sl.fisher_hd(engine)
            with sp("estimatorhd.local_mle_hd"):
                local = sl.local_mle_hd(base, cfghd.r, x[n_init:], lam1,
                                        seed.derive(2))
        hat = lam1 - fisher.inverse() @ scores.mean(axis=0)
        return lam1, local, hat, pts.size

    def _check_hd(self, rep, n_init, lam1, local, hat):
        self._check(rep.n_used_init == n_init
                    and np.array_equal(lam1, rep.lambda_initial)
                    and np.array_equal(local, rep.lambda_hat)
                    and np.allclose(hat, local, rtol=0.0, atol=1e-12),
                    "steps do not reproduce global_mle_hd")

    def _sample_hd(self, base, ts, n, ls):
        lam = ts.derive(1).generator().uniform(-ls, ls, size=base.dim)
        with self.tr.span("models.sample"):
            x = base.sample(n, ts.derive(2)) + lam
        return lam, x

    def _trial_hd(self, base, cfghd, ts, n, ls):
        with self.tr.span("trial"):
            lam, x = self._sample_hd(base, ts, n, ls)
            with self.tr.span("estimatorhd.global_mle_hd"):
                rep = sl.global_mle_hd(base, x, cfghd, ts.derive(3))
        if not self.traced:
            return lam, rep
        self.draws.append(x.size)
        lam1, local, hat, points = self._steps_hd(base, cfghd, ts, x,
                                                  rep.n_used_init)
        self._check_hd(rep, rep.n_used_init, lam1, local, hat)
        self.points.append(points)
        return lam, rep

    def _coverage_hd(self, cfg, table):
        base, cfghd, root = self._hd_setup(cfg)
        n, ls = int(cfg.require("n")), cfg.get("lambda-scale", 2.0)
        M = cfghd.norm_matrix(base.dim)
        for t in range(int(cfg.require("trials"))):
            lam, rep = self._twice(self._trial_hd, base, cfghd,
                                   root.derive(t), n, ls)
            err = sl.m_norm(rep.lambda_hat - lam, M)
            self._check(table.rows[t][1] == err,
                        f"traced trial {t} differs from the harness row")

    def cold_hd(self, cfg):
        """Cold probe on trial 0 of the batch config `cfg`."""
        base, cfghd, root = self._hd_setup(cfg)
        ts, n = root.derive(0), int(cfg.require("n"))
        with self.tr.span("cold"):
            _, x = self._sample_hd(base, ts, n, cfg.get("lambda-scale", 2.0))
            # split of global_mle_hd from its documented rule, checked
            # against its report right after
            k = int(math.ceil(cfghd.mom_buckets_multiplier
                              * math.log(2.0 / cfghd.delta)))
            n_init = max(int(math.ceil(cfghd.effective_init_fraction() * n)),
                         2 * k)
            lam1, local, hat, _ = self._steps_hd(base, cfghd, ts, x, n_init,
                                                 parent="cold-steps")
        rep = sl.global_mle_hd(base, x, cfghd, ts.derive(3))
        self._check_hd(rep, n_init, lam1, local, hat)

    # concentration -------------------------------------------------------

    def _concentration(self, cfg, table):
        cells = [(f, int(d), float(dl)) for f in cfg.require("families")
                 for d in cfg.require("d-grid")
                 for dl in cfg.require("delta-grid")]
        root = sl.RngSeed(int(cfg.require("seed")))
        trials = int(cfg.require("trials"))
        for i, cell in enumerate(cells):
            q = self._twice(self._cell, cell, trials, root.derive(i))
            self._check(q == table.rows[i][4],
                        f"cell {cell}: differs from the harness row")

    def _cell(self, cell, trials, seed):
        sp = self.tr.span
        fam, d, dl = cell
        with sp("trial"):
            gen = _unit_generator(fam, d)
            with sp("concentration.empirical_norm_quantile"):
                q = sl.empirical_norm_quantile(gen, trials, dl, seed)
            with sp("concentration.norm_bound"):
                sl.norm_bound(gen.claimed, dl)
            with sp("concentration.gaussian_tail"):
                sl.gaussian_tail(gen.claimed.sigma, dl)
        if not self.traced:
            return q
        with sp("steps"):
            with sp("concentration.VectorGenerator.draw"):
                draws = gen.draw(trials, seed)
        norms = np.sort(np.linalg.norm(draws, axis=1))
        idx = min(max(int(math.ceil((1.0 - dl) * trials)), 1), trials)
        self._check(float(norms[idx - 1]) == q,
                    f"cell {cell}: draw and order statistic do not "
                    f"reproduce empirical_norm_quantile")
        self.draws.append(draws.size)
        return q


def _unit_generator(family, d):
    """The harness's unit-parameter generator of a family at dimension d."""
    if family == "gaussian":
        return sl.gaussian_generator(np.eye(d))
    if family == "exponential":
        return sl.exponential_generator(np.ones(d))
    return sl.rademacher_generator(np.ones(d))


def trace(b, seconds: float, import_s: float):
    w = b.w
    tr = Tracer()
    problems = []
    tt = TracedTrials(w, tr, problems)
    cfg0 = sl.parse_config(workloads.config_text(w, b.seed, 0))
    if w.experiment in ("coverage", "sawtooth-phase"):
        tt.cold_1d(cfg0)
    elif w.experiment == "coverage-hd":
        tt.cold_hd(cfg0)
    threaded_core = 0.0
    tables = []
    t_loop = time.perf_counter()
    batch = 0
    while batch == 0 or time.perf_counter() - t_loop < seconds:
        text = workloads.config_text(w, b.seed, batch)
        with tr.span("harness.parse_config"):
            cfg = sl.parse_config(text)
        with tr.span("harness.run_experiment") as rec:
            table = sl.run_experiment(cfg)
        threaded_core += (rec[3] - rec[2]) * w.threads
        with tr.span("harness.CsvTable.write"):
            table.write(b.out(batch))
        tables.append(b.read(batch))
        tt.run_batch(cfg, table)
        batch += 1
    attempted, failed, table_problems = checks.check_tables(w, tables)
    metrics = layer_metrics(tr, tt, import_s, threaded_core)
    return tr, {"metrics": metrics, "attempted": attempted, "failed": failed,
                "problems": problems + table_problems,
                "self_s": tr.self_times()}


def _ms(values):
    return 1e3 * float(np.median(values)) if values else 0.0


def layer_metrics(tr, tt, import_s, threaded_core):
    """Per-layer metrics from the spans.  A layer a workload's trials never
    call reads 0 there."""
    d = tr.durations
    samples = d("models.sample", "trial")
    est1 = d("estimator1d.global_mle_1d", "trial")
    esthd = d("estimatorhd.global_mle_hd", "trial")
    score1 = d("smoothing.smoothed_score_1d", "steps")
    scorehd = d("smoothing.smoothed_score_hd", "steps")
    scored = sum(score1) + sum(scorehd)
    cold_score = (d("smoothing.smoothed_score_1d", "cold-steps")
                  + d("smoothing.smoothed_score_hd", "cold-steps"))
    cold_fisher = (d("smoothing.fisher_1d", "cold-steps")
                   + d("smoothing.fisher_hd", "cold-steps"))
    draw = d("concentration.VectorGenerator.draw", "steps")
    enq = d("concentration.empirical_norm_quantile", "trial")
    traced, untraced = sum(d("trial")), tt.untraced_s
    return {
        "import.smoothloc_s": import_s,
        "models.sample_ms": _ms(samples),
        "models.sample_ns_per_draw":
            1e9 * sum(samples) / sum(tt.draws) if samples else 0.0,
        "estimator1d.estimate_ms_p50": _ms(est1),
        "estimator1d.estimate_ms_p95":
            1e3 * float(np.percentile(est1, 95)) if est1 else 0.0,
        "estimator1d.choose_alpha_ms": _ms(d("estimator1d.choose_alpha",
                                             "steps")),
        "estimator1d.init_ms": _ms(d("estimator1d.quantile_initial_estimate",
                                     "steps")),
        "smoothing.score_cold_s": float(sum(cold_score)),
        "smoothing.score_warm_ns_per_point":
            1e9 * scored / sum(tt.points) if scored else 0.0,
        "smoothing.score_hd_ms": _ms(scorehd),
        "smoothing.fisher_cold_ms": 1e3 * float(sum(cold_fisher)),
        "smoothing.points_scored":
            float(np.median(tt.points)) if scored else 0.0,
        "estimatorhd.estimate_ms_p50": _ms(esthd),
        "estimatorhd.estimate_ms_p95":
            1e3 * float(np.percentile(esthd, 95)) if esthd else 0.0,
        "estimatorhd.init_ms": _ms(d("estimatorhd.geometric_median_of_means",
                                     "steps")),
        "estimatorhd.local_ms": _ms(d("estimatorhd.local_mle_hd", "steps")),
        "concentration.draw_ns_per_coord":
            1e9 * sum(draw) / sum(tt.draws) if draw else 0.0,
        "concentration.quantile_ms":
            _ms([a - b for a, b in zip(enq, draw)]),
        "harness.parallel_efficiency": untraced / threaded_core,
        "harness.serial_s": untraced,
        "harness.threaded_core_s": threaded_core,
        "harness.csv_ms": _ms(d("harness.CsvTable.write")),
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    }

