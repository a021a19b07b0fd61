"""High-dimensional estimator: robust init, local step, deviation bound."""

import hashlib
import logging
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import optimize, stats

from smoothloc import (
    ConfigHd,
    ConfigurationError,
    EstimationError,
    FisherMatrix,
    PreconditionError,
    RngSeed,
    SmoothedModelHd,
    fisher_hd,
    geometric_median_of_means,
    global_mle_hd,
    local_mle_hd,
    m_norm,
    parse_model,
    run_coverage_hd,
    theoretical_bound_hd,
)
from smoothloc.estimatorhd import (
    _WEISZFELD_CAP,
    _WEISZFELD_TOL,
    _local_rows,
    _split,
    _weiszfeld,
    global_mle_hd_rows,
)

LAP4 = parse_model("product(laplace(0,1)^4)")
GAUSS8 = parse_model("product(gaussian(0,1)^8)")


# -- geometric median of means ------------------------------------------------


def test_gmom_unit_square_corners():
    # multiplier 1.2, delta 0.1 -> ceil(1.2*log(20)) = 4 buckets of 2;
    # positional pairs average to the four unit-square corners, whose
    # geometric median is the center
    corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    v = np.array([0.3, -0.2])
    samples = np.concatenate([[c + v, c - v] for c in corners])
    got = geometric_median_of_means(samples, 0.1, buckets_multiplier=1.2)
    assert np.max(np.abs(got - [0.5, 0.5])) < 1e-8


def test_gmom_identical_samples_exact():
    x = np.tile([3.0, -1.0], (40, 1))
    assert np.array_equal(geometric_median_of_means(x, 0.1), [3.0, -1.0])


def test_gmom_quantile_bound_laplace():
    n, delta = 10**4, 0.05
    root = RngSeed(31)
    errs = []
    for t in range(300):
        ts = root.derive(t)
        lam = ts.derive(1).generator().uniform(-2, 2, size=4)
        x = LAP4.sample(n, ts.derive(2)) + lam
        errs.append(np.linalg.norm(geometric_median_of_means(x, delta) - lam))
    sigma = LAP4.covariance()
    limit = 3.0 * (math.sqrt(np.trace(sigma) / n)
                   + math.sqrt(np.linalg.norm(sigma, 2)
                               * math.log(1 / delta) / n))
    assert np.quantile(errs, 0.95) <= limit


def test_gmom_validation():
    with pytest.raises(ConfigurationError, match="at least 22"):
        geometric_median_of_means(np.zeros((10, 2)), 0.1)
    with pytest.raises(PreconditionError):
        geometric_median_of_means(np.zeros((100, 2)), 1.5)


# 0 raised ZeroDivisionError, NaN a bare ValueError and -1 numpy's
# reshape error
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_gmom_rejects_bad_buckets_multiplier_by_name(bad):
    with pytest.raises(PreconditionError,
                       match=f"^buckets_multiplier must be finite and > 0, got {bad}$"):
        geometric_median_of_means(np.zeros((100, 2)), 0.1, None, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gmom_rejects_non_finite_samples(bad):
    # a NaN would otherwise run Weiszfeld to its cap and return NaNs
    x = LAP4.sample(200, RngSeed(12))[:, :3]
    x[[40, 7], [1, 2]] = bad
    with pytest.raises(PreconditionError,
                       match=r"2 non-finite sample\(s\), the first at index 7$"):
        geometric_median_of_means(x, 0.1)


def test_gmom_coordinate_swap_exact():
    x = RngSeed(17).generator().standard_normal((60, 2))
    direct = geometric_median_of_means(x, 0.1)
    swapped = geometric_median_of_means(x[:, ::-1], 0.1)
    assert np.array_equal(direct, swapped[::-1])


def reference_weiszfeld(points):
    """The one-point-set Weiszfeld iteration that the block form replaced.

    Its arithmetic is unchanged; it also returns how it stopped, whether
    it was nudged off a data point and how many iterations it ran.
    """
    y = points.mean(axis=0)
    nudged = False
    for it in range(1, _WEISZFELD_CAP + 1):
        dist = np.linalg.norm(points - y, axis=1)
        at_point = dist < 1e-12
        if np.all(at_point):
            return y, "identical", nudged, it
        if np.any(at_point):
            # subgradient optimality test at a data point, else nudge off it
            rest = ~at_point
            g = np.sum((points[rest] - y) / dist[rest, None], axis=0)
            gn = float(np.linalg.norm(g))
            if gn <= np.count_nonzero(at_point) + 1e-12:
                return y, "subgradient", nudged, it
            y = y + (1e-12 / gn) * g
            nudged = True
            continue
        w = 1.0 / dist
        y_next = (points * w[:, None]).sum(axis=0) / w.sum()
        step = float(np.linalg.norm(y_next - y)) / max(1.0, float(np.linalg.norm(y_next)))
        y = y_next
        if step <= _WEISZFELD_TOL:
            return y, "converged", nudged, it
    return y, "cap", nudged, _WEISZFELD_CAP


def _vertex_star(angle_deg):
    # origin, e1, the unit vector at angle_deg and +-e2: for angles at or
    # a little above 120 degrees the median is the origin, approached slowly
    t = math.radians(angle_deg)
    return np.array([[0, 0], [1, 0], [math.cos(t), math.sin(t)], [0, 1], [0, -1]],
                    dtype=float)


def test_block_weiszfeld_matches_single_set_reference():
    rng = np.random.default_rng(5)
    rows = [
        rng.standard_normal((5, 2)),
        3.0 * rng.standard_normal((5, 2)) + 7.0,
        _vertex_star(121.0),                                # hits the cap
        _vertex_star(130.0),                                # converges slowly
        np.tile([2.5, -1.0], (5, 1)),                       # all identical
        np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]], dtype=float),
        np.array([[0, 0], [3, 0], [-1, 0.5], [-1, 0], [-1, -0.5]]),  # nudged
        rng.standard_normal((5, 2)) * 1e-3,
    ]
    ref = [reference_weiszfeld(r) for r in rows]
    how = [(stop, nudged) for _, stop, nudged, _ in ref]
    assert how[2] == ("cap", False)
    assert how[4] == ("identical", False)
    assert how[5] == ("subgradient", False)
    assert how[6] == ("converged", True)
    assert {stop for stop, _ in how} == {"converged", "cap", "identical", "subgradient"}

    # the converging rows stop after different numbers of steps
    assert len({ref[i][3] for i in (0, 1, 3, 7)}) >= 3

    stack = np.stack(rows)
    for order in (np.arange(len(rows)), np.arange(len(rows))[::-1]):
        got = _weiszfeld(stack[order])
        for i, row in zip(order, got):
            assert np.array_equal(row, ref[i][0]), i
    for i, r in enumerate(rows):
        assert np.array_equal(_weiszfeld(r[None])[0], ref[i][0]), i


@pytest.mark.parametrize("k,d", [(11, 1), (11, 4), (9, 8), (23, 3)])
def test_block_weiszfeld_random_rows_bitwise(k, d):
    x = RngSeed(k * 100 + d).generator().standard_t(2.0, size=(40, k, d))
    got = _weiszfeld(x)
    for i in range(x.shape[0]):
        assert np.array_equal(got[i], reference_weiszfeld(x[i])[0]), i


def test_block_weiszfeld_against_direct_minimization():
    x = RngSeed(19).generator().standard_normal((6, 11, 3))
    got = _weiszfeld(x)
    for pts, y in zip(x, got):
        def total(v, pts=pts):
            return np.linalg.norm(pts - v, axis=1).sum()

        def grad(v, pts=pts):
            diff = v - pts
            return (diff / np.linalg.norm(diff, axis=1)[:, None]).sum(axis=0)

        res = optimize.minimize(total, pts.mean(axis=0), jac=grad,
                                method="BFGS", options={"gtol": 1e-12})
        assert np.max(np.abs(y - res.x)) < 1e-6


def _capped_records(caplog):
    return [r for r in caplog.records if r.name.startswith("smoothloc")]


def test_weiszfeld_cap_is_logged(caplog):
    rows = np.stack([_vertex_star(121.0), _vertex_star(130.0), _vertex_star(121.0)])
    with caplog.at_level(logging.DEBUG, logger="smoothloc"):
        _weiszfeld(rows)
    [rec] = _capped_records(caplog)
    assert rec.levelno == logging.WARNING
    assert rec.getMessage() == ("Weiszfeld: 2 of 3 rows stopped at the "
                                f"{_WEISZFELD_CAP}-iteration cap without converging")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="smoothloc"):
        _weiszfeld(rows[1:2])
    assert _capped_records(caplog) == []


def test_coverage_hd_reports_the_capped_trial(caplog):
    # one trial of these 400 stops at the cap (counted with reference_weiszfeld);
    # the first 37 trials all converge
    args = ("product(laplace(0,1)^4)", 500, 400, 0.1, 0.5)
    with caplog.at_level(logging.DEBUG, logger="smoothloc"):
        run_coverage_hd(*args, seed=7)
    [rec] = _capped_records(caplog)
    assert rec.levelno == logging.WARNING
    assert rec.getMessage().startswith("Weiszfeld: 1 of 64 rows stopped")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="smoothloc"):
        run_coverage_hd(*args[:2], 37, *args[3:], seed=7)
    assert _capped_records(caplog) == []


def test_capped_trial_leaves_stderr_quiet():
    # the smoothloc logger has only a NullHandler: logging's last-resort
    # handler must not print the warning
    code = ("from smoothloc import run_coverage_hd; "
            "run_coverage_hd('product(laplace(0,1)^4)', 500, 400, 0.1, 0.5, seed=7)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout == "" and res.stderr == ""


# -- local step ---------------------------------------------------------------


def test_local_hd_collapses_to_mean_for_gaussian():
    lam1 = np.array([0.5, -0.3, 0.0, 0.2, 0.9, -1.0, 0.1, 0.4])
    for s in range(10):
        seed = RngSeed(s)
        x = RngSeed(500 + s).generator().uniform(-1, 1, size=(300, 8))
        lam_hat = local_mle_hd(GAUSS8, 1.0, x, lam1, seed)
        noise = seed.generator().standard_normal(x.shape)
        expected = (x + 1.0 * noise).mean(axis=0)
        assert np.max(np.abs(lam_hat - expected)) <= 1e-12


def test_local_hd_fixed_point():
    lam1 = np.array([1.0, -2.0, 0.5, 0.0])
    seed = RngSeed(222)
    noise = seed.generator().standard_normal((200, 4))
    x = lam1 - 0.5 * noise
    lam_hat = local_mle_hd(parse_model("product(gaussian(0,1)^4)"),
                           0.5, x, lam1, RngSeed(222))
    assert np.max(np.abs(lam_hat - lam1)) < 1e-13


def test_local_hd_quantile_bound_laplace():
    lam = np.array([1.0, -1.0, 2.0, 0.0])
    lam1 = lam + 0.05
    n, r = 5000, 0.5
    root = RngSeed(41)
    errs = []
    for t in range(300):
        ts = root.derive(t)
        x = LAP4.sample(n, ts.derive(1)) + lam
        errs.append(np.linalg.norm(local_mle_hd(LAP4, r, x, lam1, ts.derive(2)) - lam))
    inv = fisher_hd(SmoothedModelHd(LAP4, r)).inverse()
    limit = 1.3 * (math.sqrt(np.trace(inv) / n)
                   + 4.0 * math.sqrt(np.linalg.norm(inv, 2) * math.log(20) / n))
    assert np.quantile(errs, 0.9) <= limit


def test_local_hd_underflow_reports_bad_init():
    x = np.full((5, 4), 1000.0)
    with pytest.raises(EstimationError, match="underflowed"):
        local_mle_hd(LAP4, 0.5, x, np.zeros(4), RngSeed(9))


def test_local_hd_rejects_non_finite_start():
    # it was scored, and reported as an underflow at coordinate 1 value nan
    start = np.array([0.0, math.nan, 0.0, 0.0])
    with pytest.raises(PreconditionError,
                       match=r"^lambda1 must be finite, got nan at coordinate 1$"):
        local_mle_hd(LAP4, 0.5, np.zeros((5, 4)), start, RngSeed(1))


def test_local_hd_validation():
    with pytest.raises(PreconditionError):
        local_mle_hd(LAP4, 0.5, np.zeros((0, 4)), np.zeros(4), RngSeed(1))
    with pytest.raises(PreconditionError):
        local_mle_hd(LAP4, 0.5, np.zeros((5, 4)), np.zeros(3), RngSeed(1))
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError,
                           match=r"^smoothing radius r must be finite and > 0"):
            local_mle_hd(LAP4, r, np.zeros((5, 4)), np.zeros(4), RngSeed(1))


def test_block_row_underflow_is_that_rows_error():
    # row 2's median-of-means slice sits 1000 away from its local slice,
    # so its local step underflows; the other rows must not notice
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    n = 400
    root = RngSeed(77)
    xs = np.stack([LAP4.sample(n, root.derive(b)) for b in range(4)])
    seeds = [root.derive(10 + b) for b in range(4)]
    n_init = global_mle_hd_rows(LAP4, xs.copy(), cfg, seeds)[2].n_used_init
    xs[2, :n_init] += 1000.0
    reps = global_mle_hd_rows(LAP4, xs.copy(), cfg, seeds)

    lam1 = geometric_median_of_means(xs[2, :n_init], 0.1)
    with pytest.raises(EstimationError, match="underflowed") as single:
        local_mle_hd(LAP4, 0.5, xs[2, n_init:], lam1, seeds[2].derive(2))
    assert isinstance(reps[2], EstimationError)
    assert str(reps[2]) == str(single.value)
    with pytest.raises(EstimationError) as whole:
        global_mle_hd(LAP4, xs[2], cfg, seeds[2])
    assert str(whole.value) == str(single.value)

    for b in (0, 1, 3):
        one = global_mle_hd(LAP4, xs[b], cfg, seeds[b])
        assert np.array_equal(reps[b].lambda_hat, one.lambda_hat)
        assert np.array_equal(reps[b].lambda_initial, one.lambda_initial)
        assert reps[b].m_norm_error_bound == one.m_norm_error_bound

    # the same at the local stage alone, from a start 1000 away
    engine = SmoothedModelHd(LAP4, 0.5)
    local_x = xs[[0, 1, 3], n_init:]
    starts = np.zeros((3, 4))
    starts[1] = 1000.0
    hats, errors = _local_rows(engine, fisher_hd(engine).inverse(),
                               local_x.copy(), starts, seeds[:3])
    with pytest.raises(EstimationError) as far:
        local_mle_hd(LAP4, 0.5, local_x[1], starts[1], seeds[1])
    assert [e is None for e in errors] == [True, False, True]
    assert str(errors[1]) == str(far.value)
    for b in (0, 2):
        assert np.array_equal(hats[b], local_mle_hd(LAP4, 0.5, local_x[b], starts[b], seeds[b]))


def test_local_rows_underflow_is_the_first_coordinate_then_the_first_point(
        monkeypatch):
    # in 1000-point slices, row 1 (flat points 2500..4999) underflows in
    # coordinate 2 in an early slice and in coordinate 0 in a later one:
    # the error names coordinate 0's point, as the whole-stack scan did
    # (this text is that scan's)
    monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", 1000)
    engine = SmoothedModelHd(LAP4, 0.5)
    x = LAP4.sample(3 * 2500, RngSeed(40)).reshape(3, 2500, 4)
    x[1, 100, 2] = 1e4
    x[1, 2300, 0] = -1e4
    seeds = [RngSeed(41).derive(b) for b in range(3)]
    _, errors = _local_rows(engine, fisher_hd(engine).inverse(), x,
                            np.zeros((3, 4)), seeds)
    assert [e is None for e in errors] == [True, False, True]
    assert str(errors[1]) == (
        "smoothed score underflowed (coordinate 0 value -9999.355744414755, "
        "r=0.5); initialization is likely far off")


@pytest.mark.parametrize("block", [7, 1000])
def test_block_rows_in_any_slices_are_the_single_calls(block, monkeypatch):
    # n = 400 leaves 378 local points a row: 7-point slices are pieces of
    # one row, 1000-point slices hold two whole rows.  Row 2's
    # median-of-means slice sits 1000 away, so its local step underflows;
    # row 4 underflows in coordinate 2 at its 4th local point and in
    # coordinate 0 at its last, and the error names coordinate 0's point
    cfg, n = ConfigHd(delta=0.1, r=0.5), 400
    root = RngSeed(80)
    xs = np.stack([LAP4.sample(n, root.derive(b)) for b in range(5)])
    n_init = _split(LAP4, cfg, n)[1]
    xs[2, :n_init] += 1000.0
    xs[4, n_init + 3, 2] = 1e4
    xs[4, n - 1, 0] = -1e4
    seeds = [root.derive(10 + b) for b in range(5)]
    singles = []
    for x, seed in zip(xs, seeds):
        try:
            singles.append(global_mle_hd(LAP4, x, cfg, seed))
        except EstimationError as e:
            singles.append(str(e))
    assert [isinstance(one, str) for one in singles] == [0, 0, 1, 0, 1]
    assert "(coordinate 0 value -" in singles[4]
    monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", block)
    reps = global_mle_hd_rows(LAP4, xs, cfg, seeds)
    for rep, one in zip(reps, singles):
        if isinstance(one, str):
            assert str(rep) == one
        else:
            assert np.array_equal(rep.lambda_hat, one.lambda_hat)
            assert np.array_equal(rep.lambda_initial, one.lambda_initial)
            assert rep.m_norm_error_bound == one.m_norm_error_bound


@pytest.mark.parametrize("estimate", [
    lambda x: global_mle_hd(LAP4, x, ConfigHd(delta=0.1, r=0.5), RngSeed(51)),
    lambda x: local_mle_hd(LAP4, 0.5, x, np.full(4, 0.1), RngSeed(52)),
], ids=["global_mle_hd", "local_mle_hd"])
def test_public_estimators_leave_the_callers_samples_unwritten(estimate):
    # the rows functions perturb and score the local split in place; the
    # public ones hand them a copy
    x = LAP4.sample(2000, RngSeed(50))
    before = hashlib.sha256(x.tobytes()).hexdigest()
    estimate(x)
    assert hashlib.sha256(x.tobytes()).hexdigest() == before


def _global_estimates(x):
    rep = global_mle_hd(LAP4, x, ConfigHd(delta=0.1, r=0.5), RngSeed(53))
    return rep.lambda_hat, rep.lambda_initial


@pytest.mark.parametrize("estimate", [
    _global_estimates,
    lambda x: local_mle_hd(LAP4, 0.5, x, np.full(4, 0.1), RngSeed(54)),
    lambda x: geometric_median_of_means(x, 0.1),
], ids=["global_mle_hd", "local_mle_hd", "geometric_median_of_means"])
def test_public_estimators_ignore_the_callers_memory_layout(estimate):
    # the bucket means and the mean score are reductions whose summation
    # order follows the layout; a Fortran-ordered sample once moved both
    # estimates by about 1e-17
    y = LAP4.sample(4000, RngSeed(55))
    for x in (np.asfortranarray(y[:2000]), y[::2]):
        assert np.array_equal(estimate(x), estimate(np.ascontiguousarray(x)))


def test_block_step_allocates_slices_only():
    # the rows function owns its stack and perturbs and scores the local
    # split there: beside it, a slice-long noise buffer and the kernel's
    # slice arrays, no copy of the split
    cfg = ConfigHd(delta=0.1, r=0.5)
    x = LAP4.sample(10**6, RngSeed(3))[None]
    global_mle_hd(LAP4, x[0, :1000], cfg, RngSeed(4))  # fill the Fisher caches
    tracemalloc.start()
    try:
        global_mle_hd_rows(LAP4, x, cfg, [RngSeed(4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * x.nbytes


def test_local_step_memory_is_one_and_a_half_samples():
    # beside the caller's sample, global_mle_hd holds one C-ordered copy
    # of the whole sample, whose local split the step scores in place,
    # and one slice of temporaries
    x = LAP4.sample(10**6, RngSeed(3))
    cfg = ConfigHd(delta=0.1, r=0.5)
    global_mle_hd(LAP4, x[:1000], cfg, RngSeed(4))  # fill the Fisher caches
    tracemalloc.start()
    try:
        global_mle_hd(LAP4, x, cfg, RngSeed(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


# -- norms and bounds ----------------------------------------------------------


def test_m_norm_examples():
    assert m_norm([3.0, 4.0], np.eye(2)) == 5.0
    assert m_norm(np.zeros(3), np.eye(3)) == 0.0
    assert m_norm([1.0, 1.0], np.diag([1.0, 1.0])) == pytest.approx(math.sqrt(2))
    with pytest.raises(PreconditionError):
        m_norm([1.0, 1.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
    # a NaN gave nan, and a length mismatch numpy's matmul ValueError
    for x in ([math.nan, 1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(PreconditionError, match="^x must be"):
            m_norm(x, np.eye(2))


def test_bound_closed_form_identity_norm():
    fisher = FisherMatrix(0.5 * np.eye(8))
    got = theoretical_bound_hd(fisher, np.eye(8), 500, 0.1, 0.25)
    # T = 2 I_8: both terms reduce to explicit scalars
    want = 1.25 * math.sqrt(16 / 500) + 5 * math.sqrt(2 * math.log(40) / 500)
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_mahalanobis_norm_is_dimension_only():
    gen = RngSeed(88).generator()
    a = gen.standard_normal((5, 5))
    fisher = FisherMatrix(a @ a.T + 5 * np.eye(5))
    got = theoretical_bound_hd(fisher, fisher.matrix, 700, 0.05, 0.1)
    want = 1.1 * math.sqrt(5 / 700) + 5 * math.sqrt(math.log(80) / 700)
    assert got == pytest.approx(want, rel=1e-10)


def test_bound_homogeneous_in_norm_scale():
    fisher = FisherMatrix(np.diag([0.4, 0.9, 1.7]))
    m = np.diag([1.0, 2.0, 0.5])
    base = theoretical_bound_hd(fisher, m, 100, 0.1, 0.25)
    scaled = theoretical_bound_hd(fisher, 9.0 * m, 100, 0.1, 0.25)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_bound_validation():
    fisher = FisherMatrix(np.eye(2))
    with pytest.raises(PreconditionError):
        theoretical_bound_hd(fisher, np.eye(2), 0, 0.1, 0.25)
    with pytest.raises(PreconditionError):
        theoretical_bound_hd(fisher, np.array([[1.0, 2.0], [0.0, 1.0]]), 10, 0.1, 0.25)
    with pytest.raises(PreconditionError,
                       match=r"^M has shape \(3, 3\), the Fisher matrix \(2, 2\)$"):
        theoretical_bound_hd(fisher, np.eye(3), 10, 0.1, 0.25)


# Reports are Euclidean; these bounds are the bits of reports in the
# M-norm that the estimator config once made itself (4000 samples of
# LAP4, delta 0.1, r 0.5, eta 0.25), one diagonal M and one full SPD M.
@pytest.mark.parametrize("M,want", [
    (np.diag([1.0, 2.0, 0.5, 3.0]), "0x1.a24606217a46cp-2"),
    (np.array([[2.0, 0.5, 0.0, 0.25], [0.5, 1.5, 0.3, 0.0],
               [0.0, 0.3, 1.0, 0.2], [0.25, 0.0, 0.2, 0.8]]),
     "0x1.744ea97386b59p-2"),
], ids=["diagonal", "full"])
def test_bound_of_a_report_in_another_norm_is_frozen(M, want):
    x = LAP4.sample(4000, RngSeed(21).derive(2))
    rep = global_mle_hd(LAP4, x, ConfigHd(delta=0.1, r=0.5, eta=0.25),
                        RngSeed(21).derive(3))
    assert theoretical_bound_hd(rep.fisher, M, 4000, 0.1, 0.25).hex() == want


@pytest.mark.parametrize("name,args", [
    ("delta", (100, math.nan, 0.25)), ("delta", (100, 0.0, 0.25)),
    ("delta", (100, -0.5, 0.25)), ("delta", (100, 1.0, 0.25)),
    ("eta", (100, 0.1, math.nan)), ("eta", (100, 0.1, -3.0)),
    ("eta", (100, 0.1, 1.0)), ("n", (2.5, 0.1, 0.25)),
])
def test_bound_rejects_bad_parameters_by_name(name, args):
    # NaN delta or eta gave nan, delta = 0 ZeroDivisionError, delta < 0 a
    # math domain error, eta = -3 a bound of 0.958, and n = 2.5 was accepted
    with pytest.raises(PreconditionError, match=f"^{name} must be"):
        theoretical_bound_hd(FisherMatrix(0.5 * np.eye(2)), np.eye(2), *args)


# -- full pipeline --------------------------------------------------------------


def run_once(base, cfg, seed, n, lam):
    ts = RngSeed(seed)
    x = base.sample(n, ts.derive(1)) + lam
    return x, global_mle_hd(base, x, cfg, ts.derive(2))


def test_global_hd_report_consistency():
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    lam = np.array([0.5, -0.5, 1.0, 0.0])
    x, rep = run_once(LAP4, cfg, 99, 800, lam)
    n = rep.n_used_init + rep.n_used_local
    assert n == 800
    k = math.ceil(3.5 * math.log(20))
    assert rep.n_used_init == max(math.ceil(0.025 * 800), 2 * k)
    assert rep.m_norm_error_bound == pytest.approx(
        theoretical_bound_hd(rep.fisher, np.eye(4), 800, 0.1, 0.25), rel=1e-12)
    assert np.linalg.norm(rep.lambda_hat - lam) < rep.m_norm_error_bound
    # d_eff of T = I^{-1} for iid coordinates is the dimension
    assert rep.d_eff_T == pytest.approx(4.0, rel=1e-9)


def test_global_hd_shift_equivariance():
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    shift = np.array([2.0, -1.0, 0.5, 3.0])
    x0, rep0 = run_once(LAP4, cfg, 7, 600, np.zeros(4))
    rep1 = global_mle_hd(LAP4, x0 + shift, cfg, RngSeed(7).derive(2))
    assert np.allclose(rep1.lambda_hat - rep0.lambda_hat, shift, atol=1e-8)


def test_global_hd_coverage_laplace():
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    root = RngSeed(61)
    miss = 0
    trials = 200
    for t in range(trials):
        ts = root.derive(t)
        lam = ts.derive(1).generator().uniform(-2, 2, size=4)
        x = LAP4.sample(500, ts.derive(2)) + lam
        rep = global_mle_hd(LAP4, x, cfg, ts.derive(3))
        if np.linalg.norm(rep.lambda_hat - lam) > rep.m_norm_error_bound:
            miss += 1
    assert miss / trials <= 0.13


# -- the asymptotic constant -----------------------------------------------------
#
# The local step's error tends to N(0, I_R^{-1}/n_local), so
# n_local e' I_R e tends to chi^2_d.  Over 1000 trials the sample median of
# that quadratic form has a standard deviation of about
# 0.5 / (sqrt(1000) f(m)), with f the chi^2_d density at its median m; the
# band is 4 of those.


def _fisher_quadratic_forms(spec, n, r, trials, seed, block=50):
    """n_local e' I_R e per trial, for the error e of global_mle_hd at a
    true location of 0."""
    base, cfg, root = parse_model(spec), ConfigHd(delta=0.1, r=r), RngSeed(seed)
    forms = []
    for first in range(0, trials, block):
        seeds = [root.derive(t) for t in range(first, min(first + block, trials))]
        x = np.empty((len(seeds), n, base.dim))
        for ts, row in zip(seeds, x):
            base.sample(n, ts.derive(2), out=row)
        for rep in global_mle_hd_rows(base, x, cfg, [ts.derive(3) for ts in seeds]):
            e = rep.lambda_hat
            forms.append(rep.n_used_local * float(e @ rep.fisher.matrix @ e))
    return np.array(forms)


@pytest.mark.parametrize("spec,n,r", [("product(laplace(0,1)^4)", 500, 0.5),
                                      ("product(laplace(0,1)^4)", 5000, 0.5),
                                      ("product(gaussian(0,1)^8)", 500, 1.0)])
def test_hd_error_constant_is_fisher_limit(spec, n, r):
    """The constant holds; the reported radius is far looser than it.

    The radius's median over the empirical 0.9-quantile of ||e|| is about
    4.3 for laplace^4 and 3.6 for gaussian^8 (1.48 in 1-d, which the
    Gaussian tail constant explains).  In units of 1/sqrt(n I), at
    delta = 0.1 and eta = 0.25, the bound
    (1+eta) sqrt(Tr T/n) + 5 sqrt(||T|| log(4/delta)/n) is 2.5 + 9.6 for
    laplace^4 and 3.5 + 9.6 for gaussian^8, against chi_d 0.9-quantiles
    of 2.79 and 3.66: the constant 5 of the deviation term carries the gap.
    """
    trials = 1000
    forms = _fisher_quadratic_forms(spec, n, r, trials, seed=11)
    d = parse_model(spec).dim
    median = stats.chi2.median(d)
    sd = 0.5 / (math.sqrt(trials) * stats.chi2.pdf(median, d))
    assert abs(np.median(forms) - median) <= 4 * sd


def test_global_hd_coordinate_error_exchangeable():
    # identical product coordinates: error size must not depend on the
    # coordinate index (distributional check, not bitwise)
    base = parse_model("product(gaussian(0,1)^4)")
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    root = RngSeed(71)
    errs = []
    for t in range(400):
        ts = root.derive(t)
        lam = ts.derive(1).generator().uniform(-1, 1, size=4)
        x = base.sample(250, ts.derive(2)) + lam
        rep = global_mle_hd(base, x, cfg, ts.derive(3))
        errs.append(np.abs(rep.lambda_hat - lam))
    med = np.median(np.array(errs), axis=0)
    assert med.max() / med.min() < 1.25


def test_global_hd_radius_vs_covariance_guard():
    cfg = ConfigHd(delta=0.1, r=1.5, eta=0.25)  # r^2 = 2.25 > ||Sigma|| = 2
    x = LAP4.sample(300, RngSeed(1))
    with pytest.raises(ConfigurationError, match="covariance"):
        global_mle_hd(LAP4, x, cfg, RngSeed(2))
    # boundary case r^2 == ||Sigma|| is allowed
    edge = ConfigHd(delta=0.1, r=math.sqrt(2.0), eta=0.25)
    global_mle_hd(LAP4, x, edge, RngSeed(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_global_hd_rejects_non_finite_samples(bad):
    # row 3 falls in the median-of-means slice, 1500 in the local slice
    cfg = ConfigHd(delta=0.1, r=0.5, eta=0.25)
    x = LAP4.sample(2000, RngSeed(31))
    for where in (((3,), (1,)), ((1500,), (2,)), ((1500, 40, 40), (0, 0, 3))):
        y = x.copy()
        y[where] = bad
        with pytest.raises(PreconditionError,
                           match=rf"{len(set(where[0]))} non-finite sample\(s\), "
                                 rf"the first at index {min(where[0])}$"):
            global_mle_hd(LAP4, y, cfg, RngSeed(32))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_local_hd_rejects_non_finite_samples(bad):
    x = LAP4.sample(50, RngSeed(33))
    x[7, 2] = bad
    with pytest.raises(PreconditionError,
                       match=r"1 non-finite sample\(s\), the first at index 7$"):
        local_mle_hd(LAP4, 0.5, x, np.zeros(4), RngSeed(34))


def test_config_hd_validation():
    for bad in (dict(delta=0.0, r=0.5), dict(delta=0.1, r=0.0),
                dict(delta=0.1, r=0.5, eta=1.0)):
        with pytest.raises(ConfigurationError):
            ConfigHd(**bad)
