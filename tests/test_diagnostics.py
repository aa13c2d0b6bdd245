"""Statistical diagnostics: calibration oracles, fits, the surface."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from loopsim.data import generate_linear
from loopsim.density import InsufficientSampleError
from loopsim import engine
from loopsim.diagnostics import autonomy_fit, breusch_pagan, normality_test
from loopsim.engine import (
    SETTING_SAMPLING,
    SETTING_SLIDING,
    DiagnosticsReport,
    LoopConfig,
    stddev_surface,
)


# -- normality test ----------------------------------------------------

def test_normality_null_calibration():
    """Rejection rate at 0.05 stays within [0.01, 0.10] under the null."""
    rng = np.random.default_rng(2024)
    rejections = sum(
        normality_test(rng.normal(size=5000))[1] < 0.05 for _ in range(200))
    assert 0.01 <= rejections / 200 <= 0.10


def test_normality_power_against_uniform():
    rng = np.random.default_rng(2024)
    hits = sum(
        normality_test(rng.uniform(size=5000))[1] < 0.05 for _ in range(200))
    assert hits / 200 >= 0.95


def test_normality_bimodal_mixture_is_flagged():
    rng = np.random.default_rng(77)
    sample = np.concatenate([rng.normal(-3.0, 1.0, 2500),
                             rng.normal(3.0, 1.0, 2500)])
    assert normality_test(sample)[1] < 0.01


def test_normality_needs_twenty_points():
    with pytest.raises(InsufficientSampleError):
        normality_test(np.zeros(19))


@given(st.floats(0.1, 50), st.floats(-100, 100))
@settings(max_examples=40, deadline=None)
def test_normality_statistic_affine_invariant(a, b):
    rng = np.random.default_rng(9)
    x = rng.normal(size=500)
    k0, _ = normality_test(x)
    k1, _ = normality_test(a * x + b)
    assert abs(k0 - k1) < 1e-8


def _bits(value) -> bytes:
    """The bytes of a float, with every NaN folded into one pattern."""
    return np.float64(np.nan if math.isnan(value) else value).tobytes()


def _normality_sample(seed, n, kind, exponent, shifted):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "heavy":
        x = rng.standard_t(1.5, n)
    elif kind == "skewed":
        x = rng.exponential(size=n)
    elif kind == "near_constant":
        # +-1 ulp of 1 trips scipy's zero-variance rule, +-2 to 4 ulps do not
        width = 1 + seed % 4
        x = 1.0 + np.finfo(float).eps * rng.integers(-width, width + 1, n)
    else:  # "nan": one missing value
        x = rng.standard_normal(n)
        x[seed % n] = np.nan
    return (x + 3.0 * shifted) * 10.0**exponent


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 3000),
    kind=st.sampled_from(["normal", "heavy", "skewed", "near_constant", "nan"]),
    exponent=st.one_of(st.integers(-75, 75), st.integers(-300, 300)),
    shifted=st.booleans(),
)
@example(seed=1, n=600, kind="normal", exponent=-300, shifted=False)
@example(seed=1, n=600, kind="normal", exponent=300, shifted=True)
@example(seed=4, n=20, kind="near_constant", exponent=0, shifted=False)
@example(seed=5, n=600, kind="near_constant", exponent=-40, shifted=False)
@example(seed=3, n=3000, kind="heavy", exponent=70, shifted=False)
@settings(max_examples=1000, deadline=None)
def test_normality_matches_scipy_bit_for_bit(seed, n, kind, exponent, shifted):
    """The numpy K^2 equals scipy.stats.normaltest's statistic bit for bit,
    NaN where scipy gives NaN."""
    x = _normality_sample(seed, n, kind, exponent, shifted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's precision-loss warning
        want = stats.normaltest(x)
    assert _bits(normality_test(x)[0]) == _bits(float(want.statistic))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 3000),
    kind=st.sampled_from(["normal", "heavy", "skewed", "near_constant", "nan"]),
    exponent=st.integers(-75, 75),
    shifted=st.booleans(),
)
@example(seed=3, n=3000, kind="heavy", exponent=70, shifted=False)
@settings(max_examples=300, deadline=None)
def test_normality_p_is_the_chi2_tail_of_its_statistic(seed, n, kind, exponent, shifted):
    """p = exp(-K^2 / 2), the chi-square(2) survival function in closed
    form. It agrees with scipy.stats.chi2.sf to a relative 1e-13, or to the
    smallest normal float below it: on 500 000 points in [0, 1600] the
    largest moves were 5.8e-14 and 7.8e-312."""
    x = _normality_sample(seed, n, kind, exponent, shifted)
    statistic, p = normality_test(x)
    assert _bits(p) == _bits(math.exp(-statistic / 2))
    want = float(stats.chi2.sf(statistic, df=2))
    if math.isnan(want):
        assert math.isnan(p)
    else:
        assert p == pytest.approx(want, rel=1e-13, abs=np.finfo(float).tiny)


# -- homoscedasticity test ---------------------------------------------

def test_bp_null_calibration():
    rng = np.random.default_rng(77)
    t = np.arange(500, dtype=float)
    rejections = sum(
        breusch_pagan(rng.normal(size=500), t) < 0.05 for _ in range(200))
    assert 0.01 <= rejections / 200 <= 0.10


def test_bp_null_pvalues_roughly_uniform():
    rng = np.random.default_rng(99)
    t = np.arange(500, dtype=float)
    pvals = np.sort([breusch_pagan(rng.normal(size=500), t) for _ in range(200)])
    grid = (np.arange(200) + 1) / 200
    assert np.max(np.abs(pvals - grid)) < 0.1


def test_bp_detects_variance_trend():
    rng = np.random.default_rng(3)
    t = np.arange(500, dtype=float)
    hits = sum(
        breusch_pagan(rng.normal(size=500) * (0.1 + t / 250.0), t) < 0.01
        for _ in range(100))
    assert hits >= 95


def test_bp_zero_residuals_convention():
    assert breusch_pagan(np.zeros(50), np.arange(50.0)) == 1.0


def test_bp_rejects_constant_regressor():
    with pytest.raises(ValueError):
        breusch_pagan(np.random.default_rng(0).normal(size=50), np.full(50, 2.0))


def test_bp_rejects_short_input():
    with pytest.raises(ValueError):
        breusch_pagan(np.zeros(5), np.arange(5.0))


def _breusch_pagan_lm(e, x):
    """breusch_pagan's LM statistic as written, unclamped; None where the
    squared residuals carry no variance."""
    e2 = e * e
    ss_tot = float(np.sum((e2 - e2.mean()) ** 2))
    if ss_tot == 0.0:
        return None
    slope, intercept = np.polyfit(x, e2, 1)
    r2_aux = 1.0 - float(np.sum((e2 - (slope * x + intercept)) ** 2)) / ss_tot
    return e.size * r2_aux


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 600),
    kind=st.sampled_from(["null", "trend", "mirrored"]),
    exponent=st.integers(-70, 70),
    spaced=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_bp_matches_chi2_sf_to_rounding(seed, n, kind, exponent, spaced):
    """p = erfc(sqrt(LM / 2)), the chi-square(1) survival function in closed
    form, with LM clamped at 0 where rounding leaves it a hair below (a
    mirrored sample against an even grid). It agrees with
    scipy.stats.chi2.sf to a relative 2e-13: on 500 000 points in
    [0, 700] the largest move was 1.0e-13, near LM = 690."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=float) if spaced else rng.uniform(0, 10, n)
    if kind == "null":
        e = rng.normal(size=n)
    elif kind == "trend":
        e = rng.normal(size=n) * (0.1 + np.arange(n) / n)
    else:
        half = rng.normal(size=(n + 1) // 2)
        e = np.concatenate([half, half[: n // 2][::-1]])
    e = e * 10.0**exponent
    lm = _breusch_pagan_lm(e, x)
    p = breusch_pagan(e, x)
    if lm is None:
        assert p == 1.0
        return
    assert _bits(p) == _bits(math.erfc(math.sqrt(max(lm, 0.0) / 2)))
    assert p == pytest.approx(float(stats.chi2.sf(lm, df=1)), rel=2e-13)


def test_bp_rounded_negative_lm_is_homoscedastic():
    # mirrored residuals on an even grid: the true R^2 is 0, and rounding
    # leaves it at -2.2e-16 on this seed, where the square root of the tail
    # is undefined
    rng = np.random.default_rng(0)
    half = rng.normal(size=48)
    e = np.concatenate([half, half[:47][::-1]])
    assert breusch_pagan(e, np.arange(95.0)) == 1.0



@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 300),
    trend=st.booleans(),
    exponent=st.floats(-150.0, 150.0),
)
@settings(max_examples=200, deadline=None)
def test_bp_does_not_depend_on_the_scale_of_the_residuals(seed, n, trend, exponent):
    """From 1e-150 to 1e150, where the squares of the squared residuals
    leave the float range: a power-of-two scale keeps the bits of the
    p-value, a decimal one keeps it up to rounding."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=float)
    e = rng.normal(size=n) * ((0.1 + x / n) if trend else 1.0)
    plain = breusch_pagan(e, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = breusch_pagan(e * 10.0**exponent, x)
        binary = breusch_pagan(e * 2.0 ** round(exponent * math.log2(10.0)), x)
    assert scaled == pytest.approx(plain, rel=1e-9, abs=1e-9)
    assert _bits(binary) == _bits(plain)


def test_bp_rejects_nonfinite_residuals():
    e = np.random.default_rng(0).normal(size=50)
    e[7] = np.inf
    with pytest.raises(ValueError, match="finite"):
        breusch_pagan(e, np.arange(50.0))


# -- autonomy fit ------------------------------------------------------

def test_autonomy_fit_recovers_decay_rate():
    steps = np.arange(0, 2000, 25, dtype=float)
    trace = 0.99**steps
    fit = autonomy_fit(steps, trace)
    assert fit.slope == pytest.approx(math.log(0.99), abs=1e-3)
    assert fit.r2 > 0.999
    assert fit.n_excluded == 0


def test_autonomy_fit_constant_trace_convention():
    steps = np.arange(0.0, 100.0, 5.0)
    fit = autonomy_fit(steps, np.full(steps.size, 2.5))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_autonomy_fit_power_trace_beats_linear_trace():
    steps = np.arange(1.0, 1001.0, 10.0)
    power_fit = autonomy_fit(steps, 0.99**steps)
    linear_fit = autonomy_fit(steps, steps.copy())
    assert power_fit.r2 > linear_fit.r2


def test_autonomy_fit_excludes_nonpositive_points():
    steps = np.arange(0.0, 300.0, 10.0)
    trace = 0.98**steps
    trace[3] = 0.0
    trace[7] = -1.0
    trace[11] = float("nan")
    fit = autonomy_fit(steps, trace)
    assert fit.n_excluded == 3
    assert fit.n_points == steps.size - 3
    assert fit.r2 > 0.99


def test_autonomy_fit_needs_ten_valid_points():
    steps = np.arange(0.0, 90.0, 10.0)
    with pytest.raises(InsufficientSampleError):
        autonomy_fit(steps, 0.9**steps)  # only 9 points


def test_autonomy_fit_segment_restriction():
    steps = np.arange(0.0, 400.0, 10.0)
    trace = np.where(steps < 200, 1.0, 0.98 ** (steps - 200))
    full = autonomy_fit(steps, trace)
    tail = autonomy_fit(steps, trace, segment=(200.0, 400.0))
    assert tail.segment == (200.0, 400.0)
    assert tail.r2 > full.r2
    assert tail.slope == pytest.approx(math.log(0.98), abs=1e-3)


def test_autonomy_fit_r2_clamped_to_unit_interval():
    rng = np.random.default_rng(8)
    steps = np.arange(0.0, 200.0, 10.0)
    trace = np.exp(rng.normal(size=steps.size))  # pure noise
    fit = autonomy_fit(steps, trace)
    assert 0.0 <= fit.r2 <= 1.0


def test_autonomy_fit_json_dict_names_exclusions():
    steps = np.arange(0.0, 300.0, 10.0)
    fit = autonomy_fit(steps, 0.99**steps)
    d = fit.to_json_dict()
    assert set(d) >= {"slope", "intercept", "r2", "bp_pvalue", "segment",
                      "excluded_points"}


# -- stddev surface ----------------------------------------------------

@pytest.fixture(scope="module")
def surface_inputs():
    data = generate_linear(80, 4, noise_variance=1.0, seed=21)
    base = LoopConfig(setting=SETTING_SAMPLING, total_steps=120, usage_p=0.5,
                      adherence_s=1.0, seed=3, repeats=2)
    return data, base


def test_surface_shape_and_determinism(surface_inputs):
    data, base = surface_inputs
    p_grid, s_grid = (0.0, 1.0), (0.0, 1.0, 2.0)
    a = stddev_surface(data, p_grid, s_grid, base, workers=1)
    b = stddev_surface(data, p_grid, s_grid, base, workers=2)
    assert a.mean.shape == (2, 3)
    assert np.array_equal(a.mean, b.mean, equal_nan=True)
    assert a.errors == {} and b.errors == {}


def test_surface_zero_usage_rows_do_not_depend_on_s(surface_inputs):
    data, base = surface_inputs
    surf = stddev_surface(data, (0.0,), (0.0, 1.5, 3.0), base)
    row = surf.mean[0, :]
    assert np.allclose(row, row[0])


def test_surface_collects_cell_errors():
    # adherence 1e6 on every retrain overflows the targets where the
    # predictions are used: that cell must fail in isolation
    data = generate_linear(200, 3, noise_variance=1.0, seed=42)
    base = LoopConfig(setting=SETTING_SLIDING, total_steps=140, usage_p=0.5,
                      adherence_s=1.0, retrain_period=1, seed=703, repeats=1)
    surf = stddev_surface(data, (0.0, 1.0), (1e6,), base)
    # the sweep itself must survive and report per-cell messages
    assert surf.errors == {(1, 0): "repeat 0, step 94: training targets are not finite"}
    assert np.isfinite(surf.mean[0, 0]) and np.isnan(surf.mean[1, 0])


def test_surface_rejects_out_of_range_grid_before_running(surface_inputs, monkeypatch):
    data, base = surface_inputs

    def refuse(*args, **kwargs):
        raise AssertionError("no cell may run")

    monkeypatch.setattr(engine, "run_many", refuse)
    with pytest.raises(ValueError, match="usage_p"):
        stddev_surface(data, (0.0, 1.5), (0.0,), base)
    with pytest.raises(ValueError, match="adherence_s"):
        stddev_surface(data, (0.0,), (0.0, -1.0), base)


# -- report aggregate ---------------------------------------------------

def _report(values):
    matrix = np.array(values, dtype=float)
    return DiagnosticsReport(
        probe_steps=list(range(matrix.shape[1])), kappa_list=[],
        per_repeat={"moment_l1": matrix}, spike_counts=np.zeros(matrix.shape[1]),
        step_traces=np.zeros((len(matrix), 0), engine.STEP_RECORD).view(np.recarray),
    )


def test_report_mean_stays_finite_near_the_float_maximum():
    big = 1.7e308
    rep = _report([[big, big, 1.0, np.nan],
                   [big, 1.6e308, 3.0, np.nan],
                   [np.nan, big, 5.0, np.nan]])
    with np.errstate(over="ignore"), pytest.warns(RuntimeWarning, match="empty slice"):
        plain = np.nanmean(rep.per_repeat["moment_l1"], axis=0)
    assert not np.isfinite(plain[:2]).any()
    mean = rep.mean("moment_l1")
    assert mean[0] == big
    assert mean[1] == pytest.approx(big / 3 + big / 3 + 1.6e308 / 3, rel=1e-15)
    # a mean that was finite keeps its bits, and an all-NaN probe stays NaN
    assert mean[2] == plain[2] == 3.0
    assert np.isnan(mean[3])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=12))
def test_report_mean_is_the_plain_nanmean_where_finite(values):
    rep = _report([[v] for v in values])
    assert rep.mean("moment_l1")[0] == np.nanmean(rep.per_repeat["moment_l1"], axis=0)[0]


def test_report_std_stays_finite_where_the_squared_deviations_leave_the_range():
    rep = _report([[1e160, 2e160, 1e-170, 1.0, np.nan],
                   [3e160, 6e160, 3e-170, 3.0, np.nan]])
    with np.errstate(over="ignore"):
        plain = np.nanstd(rep.per_repeat["moment_l1"][:, :4], axis=0)
    assert np.isinf(plain[:2]).all() and plain[2] == 0.0
    std = rep.std("moment_l1")
    assert std[:3] == pytest.approx([1e160, 2e160, 1e-170], rel=1e-15)
    # an in-range std keeps its bits, and an all-NaN probe stays NaN
    assert std[3] == plain[3] == 1.0
    assert np.isnan(std[4])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=1, max_size=12))
def test_report_std_is_the_plain_nanstd_where_finite_and_nonzero(values):
    rep = _report([[v] for v in values])
    plain = np.nanstd(rep.per_repeat["moment_l1"], axis=0)[0]
    assume(plain > 0 or min(values) == max(values))
    assert rep.std("moment_l1")[0] == plain
