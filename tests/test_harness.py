"""Experiment drivers: config grammar, CSV shape, thread determinism."""

import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from smoothloc import (
    Config1d,
    ConfigHd,
    ConfigurationError,
    CsvTable,
    ExperimentConfig,
    Laplace,
    ModelSpecError,
    PreconditionError,
    RngSeed,
    choose_alpha,
    empirical_norm_quantile,
    format_config,
    gaussian_generator,
    geometric_median_of_means,
    parse_config,
    parse_model,
    run_concentration,
    run_coverage,
    run_coverage_hd,
    run_experiment,
    run_fisher_sweep,
    run_sawtooth_phase,
)
from smoothloc import cli
from smoothloc.harness import EXPERIMENTS

SUMMARY_RE = re.compile(
    r"failure_rate=(\S+) failures=(\d+) errors=(\d+) trials=(\d+)")


# -- CSV emission ------------------------------------------------------------


def test_csv_cell_formats():
    t = CsvTable(("a", "b", "c", "d", "e"),
                 ((1, 0.123456789123, None, True, "x"),))
    assert t.to_csv() == "a,b,c,d,e\n1,0.123456789,,1,x\n"


def test_csv_rejects_ragged_rows():
    with pytest.raises(PreconditionError, match="width"):
        CsvTable(("a", "b"), ((1,),))


def test_csv_write_bytes(tmp_path):
    p = tmp_path / "t.csv"
    CsvTable(("a",), ((1.0,), (2.5,))).write(p)
    raw = p.read_bytes()
    assert raw == b"a\n1\n2.5\n"
    assert b"\r" not in raw


# -- config grammar ----------------------------------------------------------


GOOD_CONFIG = """
# sawtooth scan
experiment = sawtooth-phase
w = 0.05
slope = 4.0          # teeth slope
n-grid = 100,1000
trials = 10
delta = 0.1
seed = 2026
threads = 2
"""


def test_config_round_trip_idempotent():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.experiment == "sawtooth-phase"
    assert cfg.get("n-grid") == (100, 1000)
    assert cfg.get("slope") == 4.0
    text = format_config(cfg)
    assert parse_config(text) == cfg
    assert format_config(parse_config(text)) == text


@pytest.mark.parametrize("text,msg", [
    ("experiment = coverage\njust a line", "key = value"),
    ("experiment = coverage\n= 5", "missing key"),
    ("experiment = coverage\nn = 3\nn = 4", "duplicate key"),
    ("experiment = coverage\nbogus = 1", "unknown key"),
    ("experiment = warp", "unknown experiment"),
    ("experiment = estimate", "unknown experiment"),
    ("experiment = coverage\nout = x.csv", "unknown key"),
    ("experiment = coverage\nn = 3.5", "expects int"),
    ("experiment = coverage\ndelta = 1.5", "out of range"),
    ("experiment = fisher-sweep\nr-grid = 0.5,-1", "out of range"),
    ("experiment = fisher-sweep\nr-grid = 1,,2", "empty list entry"),
    ("n = 5", "must declare 'experiment'"),
])
def test_config_errors(text, msg):
    with pytest.raises(ConfigurationError, match=msg):
        parse_config(text)


def test_config_reports_line_numbers():
    with pytest.raises(ConfigurationError, match="line 3"):
        parse_config("experiment = coverage\nn = 2\nn = 4")


# -- fisher sweep -------------------------------------------------------------


def test_fisher_sweep_gaussian_values():
    t = run_fisher_sweep("gaussian(0,1)", (0.5, 1.0))
    assert t.header == ("r", "fisher")
    assert [r[0] for r in t.rows] == [0.5, 1.0]
    assert t.rows[0][1] == pytest.approx(0.8, abs=1e-6)
    assert t.rows[1][1] == pytest.approx(0.5, abs=1e-6)


def test_fisher_sweep_monotone_laplace():
    t = run_fisher_sweep("laplace(0,1)", (0.05, 0.1, 0.2, 0.5, 1.0, 2.0))
    vals = [r[1] for r in t.rows]
    assert np.all(np.diff(vals) < 0)


def test_fisher_sweep_laplace_frozen():
    # kink-aware quadrature over the normal-Laplace form, generated by the
    # log_ndtr form of the Laplace score before the erfc/erfcx form replaced it
    t = run_fisher_sweep("laplace(0,1)", (1e-3, 0.01, 0.1, 0.25, 1.0, 3.0))
    assert t.to_csv() == """\
r,fisher
0.001,0.998872402
0.01,0.988793988
0.1,0.89457832
0.25,0.760871457
1,0.368474423
3,0.0910367681
"""


def test_fisher_sweep_rejections():
    with pytest.raises(PreconditionError):
        run_fisher_sweep("product(gaussian(0,1)^4)", (0.5,))
    with pytest.raises(PreconditionError):
        run_fisher_sweep("gaussian(0,1)", ())
    with pytest.raises(PreconditionError):
        run_fisher_sweep("gaussian(0,1)", (0.5, -1.0))
    with pytest.raises(ModelSpecError):
        run_fisher_sweep("gauss(0,1)", (0.5,))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_fisher_sweep_names_any_bad_radius(r):
    # one radius check, the model's, names every bad r, NaN included
    with pytest.raises(PreconditionError,
                       match=r"^smoothing radius r must be finite and > 0"):
        run_fisher_sweep("gaussian(0,1)", (0.5, r))


# -- coverage drivers ----------------------------------------------------------


def summary_counts(table):
    m = SUMMARY_RE.search(table.rows[-1][-1])
    assert m, "summary row must carry the reconciliation note"
    return int(m.group(2)), int(m.group(3)), int(m.group(4))


def test_coverage_thread_count_invariance():
    a = run_coverage("gaussian(0,1)", 400, 12, 0.1, seed=5, threads=1)
    b = run_coverage("gaussian(0,1)", 400, 12, 0.1, seed=5, threads=3)
    assert a.to_csv() == b.to_csv()


def test_thread_pool_clamped_to_trial_count(monkeypatch):
    import smoothloc.harness as harness

    pools = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_BLOCK_TRIALS", 1)  # one trial per unit
    serial = run_coverage("gaussian(0,1)", 400, 3, 0.1, seed=5, threads=1)
    wide = run_coverage("gaussian(0,1)", 400, 3, 0.1, seed=5, threads=100_000)
    single = run_coverage("gaussian(0,1)", 400, 1, 0.1, seed=5, threads=8)
    assert pools == [3]  # the 1-thread and 1-trial runs start no pool
    assert wide.to_csv() == serial.to_csv()
    assert single.rows[0] == serial.rows[0]


def test_coverage_rows_reconcile():
    t = run_coverage("gaussian(0,1)", 400, 12, 0.1, seed=5)
    assert t.header == ("trial", "lambda_true", "lambda_hat", "abs_err",
                        "baseline_abs_err", "theoretical_radius",
                        "within_flag", "note")
    body = t.rows[:-1]
    assert len(body) == 12 and [r[0] for r in body] == list(range(12))
    failures, errors, trials = summary_counts(t)
    assert trials == 12
    assert errors == sum(1 for r in body if str(r[7]).startswith("error:"))
    assert failures == sum(1 for r in body if r[7] == "" and r[6] == 0)
    radii = {r[5] for r in body if r[7] == ""}
    assert len(radii) == 1  # fixed n and delta give one radius


def test_coverage_repeat_call_identical():
    a = run_coverage("laplace(0,1)", 400, 1, 0.1, seed=8)
    b = run_coverage("laplace(0,1)", 400, 1, 0.1, seed=8)
    assert a.to_csv() == b.to_csv()


def test_coverage_error_rows_not_aborts():
    # n below the estimator's floor: every trial fails, run still returns
    t = run_coverage("gaussian(0,1)", 50, 5, 0.1, seed=5)
    body = t.rows[:-1]
    assert all(str(r[7]).startswith("error:") for r in body)
    assert all(r[2] is None and r[6] is None for r in body)
    failures, errors, trials = summary_counts(t)
    assert (failures, errors, trials) == (0, 5, 5)
    assert t.rows[-1][5] is None  # no radius available


def test_coverage_r_override_plumbed():
    t = run_coverage("gaussian(0,1)", 400, 3, 0.1, seed=5, r_override=0.5)
    u = run_coverage("gaussian(0,1)", 400, 3, 0.1, seed=5)
    radius_t = next(r[5] for r in t.rows[:-1] if r[7] == "")
    radius_u = next(r[5] for r in u.rows[:-1] if r[7] == "")
    assert radius_t != radius_u


# 1-d studies generated before they ran in blocks: a run whose trial
# count is not a multiple of the block size, coverage with r and
# lambda-scale set, a run whose every row is an error, and a sawtooth
# scan with an error cell and an n whose blocks hold one trial.  The
# sawtooth scan depends on the sampler's streams and is regenerated by
# tests/refreeze.py.
FROZEN_1D = [
    (run_coverage, dict(model_spec="laplace(0,1)", n=10_000, trials=37,
                        delta=0.1, seed=7), """\
trial,lambda_true,lambda_hat,abs_err,baseline_abs_err,theoretical_radius,within_flag,note
0,-1.15892211,-1.1655739,0.00665178599,0.00472845033,0.037671734,1,
1,0.636121168,0.652106058,0.0159848901,0.00833372307,0.037671734,1,
2,1.55008263,1.54998232,0.000100312615,0.00131163792,0.037671734,1,
3,-0.746512509,-0.764378035,0.0178655262,0.014096237,0.037671734,1,
4,0.375892773,0.378715125,0.00282235159,0.00428171937,0.037671734,1,
5,0.905967157,0.893180776,0.0127863805,0.0143151707,0.037671734,1,
6,1.62190511,1.59971303,0.0221920734,0.0136721631,0.037671734,1,
7,0.0242488077,0.0352803067,0.0110314991,0.00403094477,0.037671734,1,
8,0.897695221,0.896352945,0.00134227662,0.00470732651,0.037671734,1,
9,1.84238563,1.83582001,0.0065656205,0.010083897,0.037671734,1,
10,-1.92545947,-1.95402623,0.0285667588,0.0277990537,0.037671734,1,
11,1.92841864,1.92203558,0.00638305323,0.012297673,0.037671734,1,
12,1.57826854,1.5820209,0.00375235703,0.0114992338,0.037671734,1,
13,0.57903991,0.591903281,0.0128633711,0.014370787,0.037671734,1,
14,-0.957468814,-0.983913938,0.0264451236,0.0236796801,0.037671734,1,
15,0.211007129,0.183218417,0.0277887119,0.0417755224,0.037671734,1,
16,1.84778597,1.83281166,0.0149743103,0.025193584,0.037671734,1,
17,1.23157998,1.24300745,0.0114274684,0.0235211467,0.037671734,1,
18,1.81676473,1.83096593,0.0142011944,0.00972697607,0.037671734,1,
19,-0.98016199,-1.00322751,0.0230655243,0.0208239916,0.037671734,1,
20,-0.540702909,-0.556898295,0.0161953859,0.019049837,0.037671734,1,
21,-1.28333114,-1.27073176,0.0125993768,0.00291366146,0.037671734,1,
22,-1.03786775,-1.03166399,0.00620376098,0.0193057733,0.037671734,1,
23,1.47003131,1.48660756,0.016576246,0.0111067249,0.037671734,1,
24,-1.61660787,-1.65628779,0.0396799157,0.057863088,0.037671734,0,
25,-0.189510578,-0.210297127,0.0207865494,0.0525136887,0.037671734,1,
26,-1.12876336,-1.15472665,0.0259632939,0.0173045701,0.037671734,1,
27,1.14395483,1.12733892,0.0166159097,0.0107113322,0.037671734,1,
28,-1.70424119,-1.70922827,0.00498708234,0.0128986191,0.037671734,1,
29,1.83084168,1.83005111,0.000790571873,0.0160738307,0.037671734,1,
30,0.38590476,0.382558424,0.0033463355,0.00207059098,0.037671734,1,
31,0.5377466,0.565297587,0.0275509872,0.0143999679,0.037671734,1,
32,-0.813500164,-0.796047883,0.0174522809,0.0214729064,0.037671734,1,
33,1.36934111,1.35645155,0.012889559,0.0204847145,0.037671734,1,
34,0.306213368,0.295788462,0.0104249058,0.0092748717,0.037671734,1,
35,1.53491435,1.54616759,0.0112532387,0.00758532936,0.037671734,1,
36,0.0309450088,0.0210720933,0.00987291555,0.0277278588,0.037671734,1,
summary,,,0.0128633711,0.014096237,0.037671734,,failure_rate=0.027027027 failures=1 errors=0 trials=37
"""),
    (run_coverage, dict(model_spec="gaussian(0,1)", n=2000, trials=12,
                        delta=0.1, seed=11, r_override=0.4,
                        lambda_scale=5.0), """\
trial,lambda_true,lambda_hat,abs_err,baseline_abs_err,theoretical_radius,within_flag,note
0,-2.07416751,-2.09493876,0.0207712484,0.00907647711,0.0852641654,1,
1,-3.81198249,-3.85208705,0.0401045611,0.0447174481,0.0852641654,1,
2,2.31922198,2.38247193,0.0632499532,0.0611238859,0.0852641654,1,
3,-1.94857111,-1.94435636,0.00421475136,0.0189068608,0.0852641654,1,
4,-4.96776293,-4.93319831,0.0345646172,0.0245861042,0.0852641654,1,
5,-0.422184711,-0.452752723,0.0305680124,0.0345832129,0.0852641654,1,
6,-1.84827042,-1.82001626,0.0282541537,0.0108848012,0.0852641654,1,
7,0.254851331,0.242385619,0.0124657129,0.012368215,0.0852641654,1,
8,3.73430482,3.68352374,0.0507810754,0.0404707822,0.0852641654,1,
9,3.81840425,3.81672835,0.00167589376,0.012769503,0.0852641654,1,
10,-4.53135402,-4.51648734,0.0148666763,0.0158016495,0.0852641654,1,
11,-2.17222157,-2.15469385,0.0175277145,0.031288041,0.0852641654,1,
summary,,,0.0245127011,0.0217464825,0.0852641654,,failure_rate=0 failures=0 errors=0 trials=12
"""),
    (run_coverage, dict(model_spec="gaussian(0,1)", n=50, trials=5, delta=0.1,
                        seed=5), """\
trial,lambda_true,lambda_hat,abs_err,baseline_abs_err,theoretical_radius,within_flag,note
0,0.427355252,,,,,,error: sample budget too small: n=50 < 100.0 * log(2/delta); need n >= 300
1,0.739176035,,,,,,error: sample budget too small: n=50 < 100.0 * log(2/delta); need n >= 300
2,1.97309446,,,,,,error: sample budget too small: n=50 < 100.0 * log(2/delta); need n >= 300
3,-0.604384054,,,,,,error: sample budget too small: n=50 < 100.0 * log(2/delta); need n >= 300
4,-0.631176367,,,,,,error: sample budget too small: n=50 < 100.0 * log(2/delta); need n >= 300
summary,,,,,,,failure_rate=1 failures=0 errors=5 trials=5
"""),
    (run_sawtooth_phase, dict(w=0.05, slope=4.0, n_grid=(20, 100_000),
                              trials=3, delta=0.1, seed=9), """\
n,med_sqrt_n,r_star,fisher_at_r,median_abs_err,med_sqrt_n_local,n_local,trials,errors
20,,,,,,,3,3
100000,0.0781426844,0.183123552,0.967852752,0.000247108865,0.0628599492,64710,3,0
"""),
]


@pytest.mark.parametrize("case", range(len(FROZEN_1D)))
def test_1d_frozen_reference(case, monkeypatch):
    import smoothloc.harness as harness

    run, kw, text = FROZEN_1D[case]
    for threads in (1, 2):
        assert run(threads=threads, **kw).to_csv() == text
    for block in (1, 3):
        monkeypatch.setattr(harness, "_BLOCK_TRIALS", block)
        for threads in (1, 2):
            assert run(threads=threads, **kw).to_csv() == text


@pytest.mark.parametrize("case", range(len(FROZEN_1D)))
def test_1d_frozen_reference_in_small_local_slices(case, monkeypatch):
    # 1000-point slices split every local row, the laplace n = 10^4 rows
    # and the sawtooth n = 10^5 rows (64 710 points) among them
    monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", 1000)
    run, kw, text = FROZEN_1D[case]
    assert run(threads=1, **kw).to_csv() == text


def test_coverage_hd_thread_invariance_and_reconcile():
    kw = dict(n=120, trials=8, delta=0.1, r=1.0, seed=3)
    a = run_coverage_hd("product(gaussian(0,1)^8)", threads=1, **kw)
    b = run_coverage_hd("product(gaussian(0,1)^8)", threads=2, **kw)
    assert a.to_csv() == b.to_csv()
    assert a.header == ("trial", "err_norm", "error_bound", "within_flag",
                        "note")
    failures, errors, trials = summary_counts(a)
    assert trials == 8 and failures + errors <= 8
    with pytest.raises(PreconditionError):
        run_coverage_hd("gaussian(0,1)", **kw)


# coverage-hd CSVs frozen from the per-trial code that preceded trial
# blocks: 37 trials (not a multiple of the block size), a mixed product
# with eta and lambda-scale set, and a run whose every row is an error.
# The mixed product has a sawtooth column and is regenerated by
# tests/refreeze.py.
FROZEN_HD = [
    (dict(model_spec="product(laplace(0,1)^4)", n=500, trials=37, delta=0.1,
          r=0.5, seed=7), """\
trial,err_norm,error_bound,within_flag,note
0,0.149984371,0.705503783,1,
1,0.136442579,0.705503783,1,
2,0.101301952,0.705503783,1,
3,0.117389853,0.705503783,1,
4,0.0937131819,0.705503783,1,
5,0.101871572,0.705503783,1,
6,0.0910645023,0.705503783,1,
7,0.0980768855,0.705503783,1,
8,0.110638927,0.705503783,1,
9,0.115878928,0.705503783,1,
10,0.14787666,0.705503783,1,
11,0.163308276,0.705503783,1,
12,0.140340793,0.705503783,1,
13,0.180745653,0.705503783,1,
14,0.0787265683,0.705503783,1,
15,0.105979308,0.705503783,1,
16,0.105863272,0.705503783,1,
17,0.121364406,0.705503783,1,
18,0.11826439,0.705503783,1,
19,0.0872529767,0.705503783,1,
20,0.122073843,0.705503783,1,
21,0.0885071928,0.705503783,1,
22,0.125119629,0.705503783,1,
23,0.138054593,0.705503783,1,
24,0.103300189,0.705503783,1,
25,0.0766324743,0.705503783,1,
26,0.134191055,0.705503783,1,
27,0.159162528,0.705503783,1,
28,0.164429488,0.705503783,1,
29,0.162217173,0.705503783,1,
30,0.083201372,0.705503783,1,
31,0.0954186785,0.705503783,1,
32,0.0306814598,0.705503783,1,
33,0.0722353727,0.705503783,1,
34,0.0796376488,0.705503783,1,
35,0.115209027,0.705503783,1,
36,0.108493167,0.705503783,1,
summary,0.110638927,0.705503783,,failure_rate=0 failures=0 errors=0 trials=37
"""),
    (dict(model_spec="product(gaussian(0,1),laplace(0,1),sawtooth(0.05,4))",
          n=400, trials=12, delta=0.1, r=0.5, seed=11, eta=0.4,
          lambda_scale=1.5), """\
trial,err_norm,error_bound,within_flag,note
0,0.100566575,0.769288206,1,
1,0.11499506,0.769288206,1,
2,0.130666816,0.769288206,1,
3,0.0922063364,0.769288206,1,
4,0.1152052,0.769288206,1,
5,0.171229546,0.769288206,1,
6,0.0987372779,0.769288206,1,
7,0.136173432,0.769288206,1,
8,0.0731083984,0.769288206,1,
9,0.144594128,0.769288206,1,
10,0.127859717,0.769288206,1,
11,0.107379969,0.769288206,1,
summary,0.11510013,0.769288206,,failure_rate=0 failures=0 errors=0 trials=12
"""),
    (dict(model_spec="product(laplace(0,1)^4)", n=10, trials=5, delta=0.1,
          r=0.5, seed=8), """\
trial,err_norm,error_bound,within_flag,note
0,,,,error: sample budget too small: initialization takes 22 of 10; need at least 23
1,,,,error: sample budget too small: initialization takes 22 of 10; need at least 23
2,,,,error: sample budget too small: initialization takes 22 of 10; need at least 23
3,,,,error: sample budget too small: initialization takes 22 of 10; need at least 23
4,,,,error: sample budget too small: initialization takes 22 of 10; need at least 23
summary,,,,failure_rate=1 failures=0 errors=5 trials=5
"""),
]


@pytest.mark.parametrize("case", range(len(FROZEN_HD)))
def test_coverage_hd_frozen_reference(case, monkeypatch):
    import smoothloc.harness as harness

    kw, text = FROZEN_HD[case]
    for threads in (1, 2):
        assert run_coverage_hd(threads=threads, **kw).to_csv() == text
    for block in (1, 3):
        monkeypatch.setattr(harness, "_BLOCK_TRIALS", block)
        for threads in (1, 2):
            assert run_coverage_hd(threads=threads, **kw).to_csv() == text


@pytest.mark.parametrize("block", [1000, 7])
@pytest.mark.parametrize("case", range(len(FROZEN_HD)))
def test_coverage_hd_frozen_reference_in_small_local_slices(case, block, monkeypatch):
    # the local step scores each coordinate of the (B, n, d) stack in
    # slices of its flattened B*n axis; 1000- and 7-point slices end
    # inside rows and cross from one row into the next
    monkeypatch.setattr("smoothloc.smoothing._LOOKUP_BLOCK", block)
    kw, text = FROZEN_HD[case]
    assert run_coverage_hd(threads=1, **kw).to_csv() == text


def test_coverage_hd_rows_independent_of_run_length():
    kw = FROZEN_HD[0][0]
    assert kw["trials"] == 37
    long = run_coverage_hd(**kw)
    short = run_coverage_hd(**{**kw, "trials": 5})
    assert short.rows[:5] == long.rows[:5]


# -- sawtooth scan ---------------------------------------------------------------


def test_sawtooth_phase_small_scan():
    kw = dict(w=0.05, slope=4.0, n_grid=(400, 800), trials=6, delta=0.1,
              seed=9)
    a = run_sawtooth_phase(threads=1, **kw)
    b = run_sawtooth_phase(threads=2, **kw)
    assert a.to_csv() == b.to_csv()
    assert a.header == ("n", "med_sqrt_n", "r_star", "fisher_at_r",
                        "median_abs_err", "med_sqrt_n_local", "n_local",
                        "trials", "errors")
    assert [r[0] for r in a.rows] == [400, 800]
    for r in a.rows:
        assert r[1] == pytest.approx(r[4] * np.sqrt(r[0]), rel=1e-12)
        assert r[5] == pytest.approx(r[4] * np.sqrt(r[6]), rel=1e-12)
        assert r[8] == 0
    assert a.rows[1][2] < a.rows[0][2]  # radius schedule shrinks with n


# -- concentration sweep -----------------------------------------------------------


def test_concentration_grid_and_cell_seeding():
    t = run_concentration(("gaussian", "rademacher"), (4, 16), (0.1, 0.05),
                          trials=2000, seed=77, threads=2)
    assert t.header == ("family", "d", "delta", "trials", "empirical_q",
                        "bound_subgamma", "bound_gaussian", "seed")
    assert len(t.rows) == 8
    assert all(r[4] <= r[5] for r in t.rows)
    # empirical <= gaussian baseline <= subgamma bound
    assert all(r[4] <= r[6] <= r[5] for r in t.rows)
    assert all(r[3] == 2000 and r[7] == 77 for r in t.rows)
    # cell 3 is (gaussian, d=16, delta=0.05); its stream is derive(3)
    direct = empirical_norm_quantile(
        gaussian_generator(np.eye(16)), 2000, 0.05, RngSeed(77).derive(3))
    assert t.rows[3][:3] == ("gaussian", 16, 0.05)
    assert t.rows[3][4] == direct


# generated by the code that drew each cell's (n, d) matrix in one call
# and sorted all n norms
FROZEN_CONCENTRATION = """\
family,d,delta,trials,empirical_q,bound_subgamma,bound_gaussian,seed
gaussian,1,0.1,20000,1.67270677,7.92327353,3.14596603,41
gaussian,1,0.01,20000,2.59459143,10.2072297,4.03485426,41
gaussian,4,0.1,20000,2.79036559,8.92327353,4.14596603,41
gaussian,4,0.01,20000,3.6219682,11.2072297,5.03485426,41
gaussian,64,0.1,20000,8.86122194,14.9232735,10.145966,41
gaussian,64,0.01,20000,9.63752874,17.2072297,11.0348543,41
exponential,1,0.1,20000,1.32499628,120.915181,4.44906782,41
exponential,1,0.01,20000,3.55212792,202.395818,5.70614561,41
exponential,4,0.1,20000,3.01364342,136.175941,5.86328138,41
exponential,4,0.01,20000,5.2876183,222.224491,7.12035918,41
exponential,64,0.1,20000,9.69308762,227.740505,14.3485628,41
exponential,64,0.01,20000,11.6667165,341.196528,15.6056406,41
rademacher,1,0.1,20000,1,7.92327353,3.14596603,41
rademacher,1,0.01,20000,1,10.2072297,4.03485426,41
rademacher,4,0.1,20000,2,8.92327353,4.14596603,41
rademacher,4,0.01,20000,2,11.2072297,5.03485426,41
rademacher,64,0.1,20000,8,14.9232735,10.145966,41
rademacher,64,0.01,20000,8,17.2072297,11.0348543,41
"""


def test_concentration_frozen_reference():
    for threads in (1, 2):
        t = run_concentration(("gaussian", "exponential", "rademacher"),
                              (1, 4, 64), (0.1, 0.01), trials=20_000, seed=41,
                              threads=threads)
        assert t.to_csv() == FROZEN_CONCENTRATION


def test_concentration_at_d_65537_holds_no_d_by_d_matrix():
    # with dense unit claims this grid asked for a 32 GiB identity
    tracemalloc.start()
    try:
        t = run_concentration(("gaussian", "exponential", "rademacher"),
                              (1, 3, 65537), (0.1,), 100, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    log_term = math.log(2.0 / 0.1)
    for fam, d, delta, trials, q, bound, baseline, seed in t.rows:
        if fam == "exponential":  # Sigma = 2I, C = 2I
            want = (math.sqrt(2 * d) + 4 * math.sqrt(2 * log_term)
                    + 32 * log_term
                    + min(8 * math.sqrt(d * log_term),
                          32 * d / math.sqrt(2 * d) * log_term))
            gauss = math.sqrt(2 * d) + math.sqrt(4 * math.log(10.0))
        else:  # Sigma = I, C = 0
            want = math.sqrt(d) + 4 * math.sqrt(log_term)
            gauss = math.sqrt(d) + math.sqrt(2 * math.log(10.0))
        assert bound == pytest.approx(want, rel=1e-14)
        assert baseline == pytest.approx(gauss, rel=1e-14)
        assert q <= bound and trials == 100 and seed == 5
        if fam == "rademacher":
            assert q == math.sqrt(d)


def test_sawtooth_trial_memory_is_two_and_a_half_samples():
    # the sample is drawn straight into its block row and the sampler's
    # rounds are compacted inside it; drawing into a fresh array, with a
    # whole batch beside it, and copying into the row peaked at 4 samples.
    # A first run loads scipy and fills the per-model caches (quantiles,
    # Fisher information, ripple table), so the second measures one trial.
    n = 10**6
    run_sawtooth_phase(0.05, 4.0, (n,), 1, 0.1, seed=2, threads=1)
    tracemalloc.start()
    try:
        run_sawtooth_phase(0.05, 4.0, (n,), 1, 0.1, seed=3, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


def test_sawtooth_trial_memory_is_under_one_and_a_half_samples():
    # the local step perturbs and scores the block row's local split in
    # place, slice by slice: beside the row it holds a slice-long noise
    # buffer and the kernel's slice arrays.  A perturbed copy of the
    # split would bring the peak to about 2.04 samples
    n = 10**6
    run_sawtooth_phase(0.05, 4.0, (n,), 1, 0.1, seed=2, threads=1)
    tracemalloc.start()
    try:
        run_sawtooth_phase(0.05, 4.0, (n,), 1, 0.1, seed=3, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n


def test_concentration_unknown_family():
    with pytest.raises(ConfigurationError, match="unknown family"):
        run_concentration(("gauss",), (4,), (0.1,), 1000, 1)


# -- config dispatch -----------------------------------------------------------------


def test_run_experiment_dispatch_matches_direct():
    cfg = parse_config(
        "experiment = fisher-sweep\nmodel = gaussian(0,1)\nr-grid = 0.5,1.0")
    assert run_experiment(cfg).to_csv() == run_fisher_sweep(
        "gaussian(0,1)", (0.5, 1.0)).to_csv()


def test_run_experiment_uses_config_threads_and_seed():
    text = ("experiment = coverage\nmodel = gaussian(0,1)\nn = 400\n"
            "trials = 6\ndelta = 0.1\nseed = 5\nthreads = 2")
    cfg = parse_config(text)
    direct = run_coverage("gaussian(0,1)", 400, 6, 0.1, seed=5, threads=1)
    assert run_experiment(cfg).to_csv() == direct.to_csv()
    assert run_experiment(cfg, threads=4).to_csv() == direct.to_csv()


def test_run_experiment_rejects_unknown_experiment():
    cfg = ExperimentConfig("estimate", {"seed": 1})
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        run_experiment(cfg)


@pytest.mark.parametrize("threads", [0, -3])
def test_run_experiment_threads_range_checked(threads):
    cfg = parse_config("experiment = coverage\nmodel = gaussian(0,1)\n"
                       "n = 400\ntrials = 2\ndelta = 0.1\nseed = 1")
    with pytest.raises(ConfigurationError, match=f"got {threads}$"):
        run_experiment(cfg, threads=threads)


# -- command line ---------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "smoothloc", *args],
                          capture_output=True, text=True)


def test_import_leaves_scipy_interpolate_unloaded():
    code = ("import sys, smoothloc; "
            "print('scipy.interpolate' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# scipy.special is loaded on first use.  These run in fresh processes, since
# this one has loaded scipy long since.


def run_python(code: str) -> str:
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_leaves_scipy_unloaded():
    out = run_python("import sys, smoothloc, smoothloc.cli; "
                     "print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_bench_concentration_leaves_scipy_unloaded(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = concentration\n"
                   "families = gaussian,exponential,rademacher\nd-grid = 4,64\n"
                   "delta-grid = 0.1\ntrials = 2000\nseed = 3\nthreads = 2\n")
    argv = ["bench", "concentration", "--config", str(cfg),
            "--out", str(tmp_path / "o.csv")]
    out = run_python("import sys; from smoothloc import cli; "
                     f"rc = cli.main({argv!r}); print(rc, 'scipy' in sys.modules)")
    assert out.strip() == "0 False"


def test_runs_leave_scipy_linalg_unloaded(tmp_path):
    # the package's one scipy module is scipy.special; the quadrature rule
    # of every Fisher information is a table of constants
    body = {
        "fisher-sweep": "model = laplace(0,1)\nr-grid = 0.1,0.5\n",
        "coverage": "model = laplace(0,1)\nn = 1000\ntrials = 4\ndelta = 0.1\n",
        "coverage-hd": "model = product(laplace(0,1)^2)\nn = 400\nr = 0.5\n"
                       "trials = 2\ndelta = 0.1\n",
        "sawtooth-phase": "w = 0.05\nslope = 4\nn-grid = 1000\ntrials = 2\n"
                          "delta = 0.1\n",
    }
    runs = []
    for experiment, text in body.items():
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(f"experiment = {experiment}\n{text}seed = 3\nthreads = 2\n")
        runs.append(["bench", experiment, "--config", str(cfg),
                     "--out", str(tmp_path / f"{experiment}.csv")])
    runs.append(["estimate", "--model", "laplace(0,1)", *_ESTIMATE])
    runs.append(["estimate-hd", "--model", "product(laplace(0,1)^2)", *_ESTIMATE_HD])
    out = run_python(
        "import contextlib, io, sys; from smoothloc import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.main(argv)\n"
        "    print(argv[0], argv[1], rc, 'scipy.linalg' in sys.modules)")
    assert out.splitlines() == [f"{argv[0]} {argv[1]} 0 False" for argv in runs]


def test_scipy_first_loaded_in_pool_threads_gives_serial_csv():
    # 26 trials of n = 10^4 make two blocks, so at threads=2 both pool
    # threads reach fisher_1d and Laplace._smoothed, and import
    # scipy.special, at about the same time
    code = ("import sys; from smoothloc.harness import run_coverage; "
            "assert 'scipy' not in sys.modules; "
            "sys.stdout.write(run_coverage('laplace(0,1)', 10_000, 26, 0.1, "
            "seed=8, threads={}).to_csv())")
    serial, pooled = (run_python(code.format(t)) for t in (1, 2))
    assert pooled == serial
    assert serial.count("\n") == 28  # header, 26 trials, summary


def test_cli_fisher_stdout():
    res = run_cli("fisher", "--model", "gaussian(0,1)", "--r-grid", "0.5,1")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "r,fisher"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.5, 1.0]
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-6)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-6)


def test_cli_bench_fisher_sweep_matches_fisher(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("experiment = fisher-sweep\nmodel = laplace(0,1)\n"
                   "r-grid = 0.1,0.5,2\n")
    out = tmp_path / "f.csv"
    res = run_cli("bench", "fisher-sweep", "--config", str(cfg),
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    fisher = run_cli("fisher", "--model", "laplace(0,1)",
                     "--r-grid", "0.1,0.5,2")
    assert out.read_bytes() == fisher.stdout.encode()


def test_cli_bench_lists_the_registry():
    res = run_cli("bench", "--help")
    assert res.returncode == 0
    assert "{" + ",".join(EXPERIMENTS) + "}" in res.stdout


def test_cli_estimate_reports_fields(tmp_path):
    out = tmp_path / "est.csv"
    res = run_cli("estimate", "--model", "gaussian(0,1)", "--n", "2000",
                  "--delta", "0.1", "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    keys = dict(line.split(" = ") for line in res.stdout.strip().splitlines())
    for field in ("lambda_true", "lambda_hat", "abs_err", "r_used",
                  "fisher_at_r", "theoretical_radius", "n_used_local",
                  "n_used_init"):
        assert field in keys
    assert abs(float(keys["lambda_hat"])) < 0.2
    header, row = out.read_text().strip().splitlines()
    assert "lambda_hat" in header.split(",")
    assert len(row.split(",")) == len(header.split(","))


def test_cli_bench_experiment_mismatch(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = coverage\nmodel = gaussian(0,1)\nn = 400\n"
                   "trials = 2\ndelta = 0.1\nseed = 1\n")
    res = run_cli("bench", "concentration", "--config", str(cfg),
                  "--out", str(tmp_path / "o.csv"), "--threads", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_cli_bench_config_that_is_not_utf8(tmp_path, capsys):
    # byte 0xff once escaped as a UnicodeDecodeError traceback, exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"experiment = coverage\n\xff\n")
    rc = cli.main(["bench", "coverage", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file ") and "bad.cfg" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_bench_threads_override_range_checked(tmp_path, threads):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = coverage\nmodel = gaussian(0,1)\nn = 400\n"
                   "trials = 2\ndelta = 0.1\nseed = 1\n")
    out = tmp_path / "o.csv"
    res = run_cli("bench", "coverage", "--config", str(cfg),
                  "--out", str(out), "--threads", threads)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "--threads" in res.stderr
    assert not out.exists()


def test_cli_bad_model_spec_exit_code():
    res = run_cli("fisher", "--model", "gauss(0,1)", "--r-grid", "0.5")
    assert res.returncode == 2
    assert "error:" in res.stderr and "position" in res.stderr


@pytest.mark.parametrize("args", [
    ("estimate", "--model", "laplace(0,1)", "--lambda-true", "nan"),
    ("estimate-hd", "--model", "product(laplace(0,1)^2)", "--r", "0.5",
     "--eta", "0.25", "--lambda-true", "inf,0"),
], ids=["estimate", "estimate-hd"])
def test_cli_rejects_non_finite_lambda_true(args):
    # the shifted samples were rejected instead, with a message about samples
    res = run_cli(*args, "--n", "1000", "--delta", "0.1", "--seed", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: --lambda-true must be finite")


_ESTIMATE = ("--n", "5000", "--delta", "0.1", "--seed", "1")
_ESTIMATE_HD = ("--r", "0.5", "--eta", "0.25") + _ESTIMATE


def test_cli_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = coverage\nmodel = laplace(0,1)\nn = 400\n"
                   "trials = 3\ndelta = 0.1\nseed = 1\n")
    out = tmp_path / "o.csv"
    calls = [
        ["bench", "coverage", "--config", str(cfg), "--out", str(out)],
        ["estimate", "--model", "laplace(0,1)", *_ESTIMATE],
        ["estimate", "--model", "laplace(0,1)", "--n", "many"],  # argparse's exit
        ["fisher", "--model", "laplace(0,1)", "--r-grid", "0.5,1"],
    ]

    def run(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        stdout, stderr = capsys.readouterr()
        csv = out.read_bytes() if argv[0] == "bench" else b""
        return rc, stdout, stderr, csv

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    assert [res[0] for res in alone] == [0, 0, 2, 0]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert len(built) == 1
    assert build() is not build()  # the public builder still makes a fresh one


# Each crashed with a traceback (OverflowError, a math domain error), printed
# fisher_at_r = inf, failed later with a misleading shift diagnosis, or (the
# sawtooth) took seconds and hundreds of MB.
@pytest.mark.parametrize("args,name", [
    (("estimate", "--model", "gaussian(0,1e300)") + _ESTIMATE, "gaussian sigma"),
    (("fisher", "--model", "gaussian(0,1e200)", "--r-grid", "0.1"),
     "gaussian sigma"),
    (("estimate-hd", "--model", "product(gaussian(0,1e300)^2)") + _ESTIMATE_HD,
     "gaussian sigma"),
    (("estimate", "--model", "gaussian(0,1e-200)") + _ESTIMATE, "gaussian sigma"),
    (("estimate", "--model", "laplace(0,1e-300)") + _ESTIMATE, "laplace scale b"),
    (("estimate", "--model", "laplace(1e20,1)") + _ESTIMATE, "laplace mu"),
    (("fisher", "--model", "sawtooth(1e-4,0)", "--r-grid", "0.1"),
     "sawtooth tooth width w"),
])
def test_cli_rejects_out_of_range_model_numbers(args, name):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {name} ")
    assert "position" in res.stderr


# Laplace scores lose their digits at r/b >> 1; this printed a Fisher
# information of 0 at both radii
def test_cli_fisher_refuses_laplace_radius_past_ceiling():
    res = run_cli("fisher", "--model", "laplace(0,1e-100)", "--r-grid", "1e-3,1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: laplace smoothing radius r = 0.001 ")
    assert "r/b = 1e+97" in res.stderr


# a fractional count was truncated (trials = 2.7 ran 2 trials, a d-grid
# entry of 4.5 ran d = 4), and NaN raised a bare ValueError; trials = 0
# divided by zero in the coverage tally and gave a sawtooth cell with no
# estimate, and n = -5 reached numpy's "negative dimensions"
_CONC = dict(families=("gaussian",), delta_grid=(0.1,))


@pytest.mark.parametrize("run,kw,msg", [
    (run_coverage, dict(model_spec="laplace(0,1)", n=1000, trials=2.7,
                        delta=0.1), "trials must be an integer >= 1, got 2.7"),
    (run_coverage, dict(model_spec="laplace(0,1)", n=1000.5, trials=2,
                        delta=0.1), "n must be an integer >= 1, got 1000.5"),
    (run_coverage, dict(model_spec="laplace(0,1)", n=math.nan, trials=2,
                        delta=0.1), "n must be an integer >= 1, got nan"),
    (run_coverage_hd, dict(model_spec="product(laplace(0,1)^2)", n=200,
                           trials=math.inf, delta=0.1, r=0.5),
     "trials must be an integer >= 1, got inf"),
    (run_sawtooth_phase, dict(w=0.05, slope=4.0, n_grid=(1000, 1000.5),
                              trials=2, delta=0.1),
     "n_grid entry must be an integer >= 1, got 1000.5"),
    (run_concentration, dict(_CONC, d_grid=(4, 4.5), trials=1000),
     "d_grid entry must be an integer >= 1, got 4.5"),
    (run_concentration, dict(_CONC, d_grid=(4,), trials=1000.5),
     "trials must be an integer >= 1, got 1000.5"),
    (run_concentration, dict(_CONC, d_grid=(4,), trials=math.nan),
     "trials must be an integer >= 1, got nan"),
    (run_concentration, dict(_CONC, d_grid=(0,), trials=1000),
     "d_grid entry must be an integer >= 1, got 0"),
    (run_coverage, dict(model_spec="laplace(0,1)", n=1000, trials=0,
                        delta=0.1), "trials must be an integer >= 1, got 0"),
    (run_coverage, dict(model_spec="laplace(0,1)", n=-5, trials=2,
                        delta=0.1), "n must be an integer >= 1, got -5"),
    (run_coverage_hd, dict(model_spec="product(laplace(0,1)^2)", n=200,
                           trials=0, delta=0.1, r=0.5),
     "trials must be an integer >= 1, got 0"),
    (run_coverage_hd, dict(model_spec="product(laplace(0,1)^2)", n=0,
                           trials=2, delta=0.1, r=0.5),
     "n must be an integer >= 1, got 0"),
    (run_sawtooth_phase, dict(w=0.05, slope=4.0, n_grid=(1000,), trials=0,
                              delta=0.1),
     "trials must be an integer >= 1, got 0"),
    (run_sawtooth_phase, dict(w=0.05, slope=4.0, n_grid=(1000, 0), trials=2,
                              delta=0.1),
     "n_grid entry must be an integer >= 1, got 0"),
], ids=["coverage-trials", "coverage-n", "coverage-n-nan", "hd-trials-inf",
        "sawtooth-n", "concentration-d", "concentration-trials",
        "concentration-trials-nan", "concentration-d-0", "coverage-trials-0",
        "coverage-n-negative", "hd-trials-0", "hd-n-0", "sawtooth-trials-0",
        "sawtooth-n-0"])
def test_runs_reject_non_integer_counts_by_name(run, kw, msg):
    with pytest.raises(PreconditionError, match=f"^{re.escape(msg)}$"):
        run(seed=1, **kw)


# seed = 2.7 ran seed 2's trials, -1.5 was refused as "got -1", and NaN
# raised a bare ValueError
_SEED_RUNS = {
    "coverage": lambda seed: run_coverage("laplace(0,1)", 1000, 2, 0.1, seed),
    "coverage-hd": lambda seed: run_coverage_hd("product(laplace(0,1)^2)", 200,
                                                2, 0.1, 0.5, seed),
    "sawtooth-phase": lambda seed: run_sawtooth_phase(0.05, 4.0, (1000,), 2,
                                                      0.1, seed),
    "concentration": lambda seed: run_concentration(**_CONC, d_grid=(4,),
                                                    trials=1000, seed=seed),
}


@pytest.mark.parametrize("runner", sorted(_SEED_RUNS))
@pytest.mark.parametrize("seed", [2.7, -1.5, math.nan])
def test_runs_reject_non_integer_seeds_by_name(runner, seed):
    msg = f"seed must be an integer in [0, 2^64), got {seed}"
    with pytest.raises(PreconditionError, match=f"^{re.escape(msg)}$"):
        _SEED_RUNS[runner](seed)


@pytest.mark.parametrize("args", [
    ("estimate", "--model", "laplace(0,1)", "--seed", "-1"),
    ("estimate", "--model", "laplace(0,1)", "--seed", str(2**64)),
    ("estimate-hd", "--model", "product(laplace(0,1)^2)", "--r", "0.5",
     "--eta", "0.25", "--seed", "-1"),
], ids=["estimate-negative", "estimate-2^64", "estimate-hd-negative"])
def test_cli_rejects_out_of_range_seed(args):
    # RngSeed raised a bare ValueError: a traceback, not exit code 2
    res = run_cli(*args, "--n", "1000", "--delta", "0.1")
    assert res.returncode == 2
    assert res.stderr == (f"error: seed must be an integer in [0, 2^64), "
                          f"got {args[-1]}\n")


def test_cli_bench_rejects_out_of_range_seed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = coverage\nmodel = laplace(0,1)\nn = 1000\n"
                   "trials = 2\ndelta = 0.1\nseed = -5\n")
    out = tmp_path / "o.csv"
    res = run_cli("bench", "coverage", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == "error: key 'seed' out of range: -5\n"
    assert not out.exists()
    with pytest.raises(PreconditionError, match=r"^seed must be an integer"):
        RngSeed(2**64)


def test_model_constants_computed_once_per_run(monkeypatch):
    # the quartiles behind r* and the model alpha-quantile of the init
    # stage were bisected again by every block (2 per block + 1)
    import smoothloc.estimator1d as estimator1d
    import smoothloc.harness as harness
    import smoothloc.models as models

    saw = models.GaussianSawtooth(0.05, 4.0)
    q = models._bisect_cdf(saw._cdf, np.array([0.25, 0.75]), *saw._bracket())
    assert saw.iqr() == q[1] - q[0]
    models._iqr.cache_clear()
    estimator1d._model_quantile.cache_clear()
    calls = []
    bisect = models._bisect_cdf

    def counting(cdf, p, lo, hi, **kw):
        calls.append(np.asarray(p, dtype=float))
        return bisect(cdf, p, lo, hi, **kw)

    monkeypatch.setattr(models, "_bisect_cdf", counting)
    monkeypatch.setattr(harness, "_BLOCK_TRIALS", 1)
    t = run_sawtooth_phase(0.05, 4.0, (2000,), trials=3, delta=0.1, seed=1)
    assert t.rows[0][-1] == 0  # no errors
    quartiles = [p for p in calls if p.tolist() == [0.25, 0.75]]
    alpha_quantiles = [p for p in calls if p.ndim == 0]
    assert len(quartiles) == 1 and len(alpha_quantiles) == 1
    assert saw.iqr() == q[1] - q[0]


def test_shift_past_float_resolution_is_rejected():
    # at 8e307, lambda + draw rounded every draw away: abs_err read 0 and
    # the sample-mean baseline inf
    with pytest.raises(PreconditionError,
                       match=r"^lambda-scale = 8e\+307 is too large for this model"):
        run_coverage("laplace(0,1)", 1000, 2, 0.1, 1, lambda_scale=8e307)
    # a product is held to its narrowest component: laplace(0,1) alone
    # takes 1e7 (spacing 1.9e-9 against 1e-6 of its IQR 1.39)
    narrow = "product(laplace(0,1),gaussian(0,0.001))"
    with pytest.raises(PreconditionError, match="^lambda-scale = 1e\\+07 is too"):
        run_coverage_hd(narrow, 200, 2, 0.1, 0.0005, 1, lambda_scale=1e7)
    t = run_coverage("laplace(0,1)", 1000, 2, 0.1, 1, lambda_scale=1e7)
    assert all(r[-1] == "" and r[3] > 0.0 for r in t.rows[:-1])
    res = run_cli("estimate", "--model", "laplace(0,1)", "--lambda-true",
                  "1.79e308", "--n", "1000", "--delta", "0.1", "--seed", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: --lambda-true = 1.79e+308 is too large")


_LAMBDA_SCALE_RUNS = pytest.mark.parametrize("run", [
    lambda s: run_coverage("laplace(0,1)", 400, 3, 0.1, seed=1, lambda_scale=s),
    lambda s: run_coverage_hd("product(laplace(0,1)^2)", 400, 3, 0.1, 0.5,
                              seed=1, lambda_scale=s),
    lambda s: run_sawtooth_phase(0.05, 4, [1000], 3, 0.1, seed=1,
                                 lambda_scale=s),
], ids=["coverage", "coverage-hd", "sawtooth-phase"])


@_LAMBDA_SCALE_RUNS
def test_negative_lambda_scale_is_rejected_by_name(run):
    # the config grammar range-checks lambda-scale; a library call once
    # reached numpy's "high - low < 0" inside the first block
    with pytest.raises(PreconditionError,
                       match=r"^lambda-scale must be >= 0, got -2\.0$"):
        run(-2.0)


@_LAMBDA_SCALE_RUNS
def test_nan_lambda_scale_is_rejected_as_not_nonnegative(run):
    # NaN was read as "too large for this model: float64 spacing there is nan"
    with pytest.raises(PreconditionError,
                       match=r"^lambda-scale must be >= 0, got nan$"):
        run(math.nan)


@pytest.mark.parametrize("experiment,line", [
    ("sawtooth-phase", "min-n-factor = inf"),
    ("coverage", "lambda-scale = inf"),
    ("coverage", "lambda-scale = 1e308"),
])
def test_cli_bench_rejects_settings_that_overflow(tmp_path, experiment, line):
    # each once ended in an uncaught OverflowError
    cfg = tmp_path / "c.cfg"
    body = {"coverage": "model = laplace(0,1)\nn = 1000\n",
            "sawtooth-phase": "w = 0.05\nslope = 4\nn-grid = 1000\n"}
    cfg.write_text(f"experiment = {experiment}\n{body[experiment]}"
                   f"trials = 2\ndelta = 0.1\nseed = 1\n{line}\n")
    res = run_cli("bench", experiment, "--config", str(cfg),
                  "--out", str(tmp_path / "o.csv"))
    assert res.returncode == 2
    key, _, value = line.partition(" = ")
    assert res.stderr == f"error: key '{key}' out of range: {value}\n"


# -- the surface perfbench reads ------------------------------------------------------


def test_perfbench_surface():
    # perfbench/checks.py and perfbench/traced.py (`--trace 1`) read the
    # estimator constants from config instances and call the stages
    # positionally
    cfg, hd = Config1d(delta=0.1), ConfigHd(delta=0.1, r=0.5, eta=0.3)
    assert (cfg.r_star_multiplier, cfg.init_fraction_exponent,
            cfg.q_multiplier, cfg.alpha_grid_step) == (0.5, 0.1, math.sqrt(2.0), 1e-3)
    assert hd.mom_buckets_multiplier == 3.5
    assert hd.effective_init_fraction() == 0.3 / 10.0
    for ctor, required, name in (
            (Config1d, {}, "r_star_multiplier"),
            (Config1d, {}, "init_fraction_exponent"),
            (Config1d, {}, "q_multiplier"),
            (Config1d, {}, "alpha_grid_step"),
            (ConfigHd, {"r": 0.5}, "mom_buckets_multiplier")):
        with pytest.raises(TypeError, match=name):
            ctor(delta=0.1, **required, **{name: 1.0})
    q = cfg.q_multiplier * (math.log(2.0 / cfg.delta) / 10**4) ** 0.4
    alpha = choose_alpha(Laplace(0, 1), q, cfg.alpha_grid_step)
    assert alpha == choose_alpha(Laplace(0, 1), q) and abs(alpha - 0.5) < 1e-3
    x = parse_model("product(laplace(0,1)^4)").sample(200, RngSeed(3))
    got = geometric_median_of_means(x, hd.delta, RngSeed(1), hd.mom_buckets_multiplier)
    assert np.array_equal(got, geometric_median_of_means(x, hd.delta))
