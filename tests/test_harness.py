"""Experiment drivers: config grammar, CSV shape, thread determinism."""

import math
import re
import subprocess
import sys

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


def test_fisher_sweep_rejections():
    with pytest.raises(PreconditionError):
        run_fisher_sweep("product(gaussian(0,1)^4)", (0.5,))
    with pytest.raises(PreconditionError):
        run_fisher_sweep("gaussian(0,1)", ())
    with pytest.raises(PreconditionError):
        run_fisher_sweep("gaussian(0,1)", (0.5, -1.0))
    with pytest.raises(ModelSpecError):
        run_fisher_sweep("gauss(0,1)", (0.5,))


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
# scan with an error cell and an n whose blocks hold one trial
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
100000,1.43760081,0.183123552,0.967852752,0.00454609294,1.15644241,64710,3,0
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
# with eta and lambda-scale set, and a run whose every row is an error
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
0,0.0733880465,0.769288206,1,
1,0.10504677,0.769288206,1,
2,0.131044749,0.769288206,1,
3,0.0700385967,0.769288206,1,
4,0.0818115873,0.769288206,1,
5,0.166951548,0.769288206,1,
6,0.0991170576,0.769288206,1,
7,0.132518925,0.769288206,1,
8,0.0658474473,0.769288206,1,
9,0.123490214,0.769288206,1,
10,0.12068812,0.769288206,1,
11,0.119341335,0.769288206,1,
summary,0.112194052,0.769288206,,failure_rate=0 failures=0 errors=0 trials=12
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
