"""Statistical tests and fits over loop-run traces.

Covers the (usage, adherence) standard-deviation surface, residual
normality testing, the robust log-linear autonomy fit, and the
Breusch-Pagan homoscedasticity check on fit residuals.
"""

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from loopsim.density import MASS_COLUMN, MOMENT_ORDERS, InsufficientSampleError
from loopsim.regressors import fit_huber_line


@dataclass
class DiagnosticsReport:
    """Per-probe statistics of a repeated-learning run.

    ``per_repeat`` keeps the raw (repeats x probes) matrices keyed by stat
    name: always "psi", "stddev" and "mass@<kappa>", and "normality_p",
    "moment_l1", "moment_l1_truncated" and "moment_<k>" where the probes
    computed them. ``mean`` and ``std`` reduce them over repeats, and the
    trace properties are their means (``moment_traces`` is empty when the
    probes skipped the raw moments). ``step_traces`` is the (repeats x
    total_steps) recarray of the loop's step records (engine.STEP_RECORD).
    """

    probe_steps: list
    kappa_list: list
    per_repeat: dict
    spike_counts: np.ndarray
    step_traces: np.recarray

    def __post_init__(self):
        n = len(self.probe_steps)
        for name, matrix in self.per_repeat.items():
            if matrix.shape[1] != n:
                raise ValueError(f"{name} length does not match probe_steps")
        pv = self.per_repeat.get("normality_p", np.empty((0, 0)))
        pv = pv[np.isfinite(pv)]
        if pv.size and (pv.min() < 0 or pv.max() > 1):
            raise ValueError("p-values must lie in [0, 1]")

    def mean(self, stat) -> np.ndarray:
        """Mean over repeats, ignoring NaN; finite wherever the values are.

        Where the plain float64 mean overflows, the values are scaled down
        by a power of two at least the repeat count before averaging.
        """
        values = self.per_repeat[stat]
        with warnings.catch_warnings():
            # all-spike probes leave empty slices behind; NaN is the answer there
            warnings.simplefilter("ignore", category=RuntimeWarning)
            out = np.nanmean(values, axis=0)
            over = ~np.isfinite(out)
            if over.any():
                scale = 2.0 ** len(values).bit_length()
                out[over] = np.nanmean(values[:, over] / scale, axis=0) * scale
        return out

    def std(self, stat) -> np.ndarray:
        """Standard deviation over repeats, ignoring NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return np.nanstd(self.per_repeat[stat], axis=0)

    repeats_aggregated = property(lambda self: len(self.per_repeat["psi"]))
    psi_trace = property(lambda self: self.mean("psi"))
    stddev_trace = property(lambda self: self.mean("stddev"))
    moment_l1_trace = property(lambda self: self.mean("moment_l1"))
    interval_masses = property(
        lambda self: {kap: self.mean(MASS_COLUMN.format(kap)) for kap in self.kappa_list}
    )
    moment_traces = property(lambda self: {
        k: self.mean(f"moment_{k}") for k in MOMENT_ORDERS if f"moment_{k}" in self.per_repeat
    })


@dataclass(frozen=True)
class AutonomyFit:
    """Robust log-linear fit of a point-density trace.

    r2 is the coefficient of determination of the robust line against the
    log-density data; bp_pvalue is the Breusch-Pagan p-value on the fit
    residuals; n_excluded counts nonpositive or degenerate trace entries
    dropped before taking logs.
    """

    slope: float
    intercept: float
    r2: float
    bp_pvalue: float
    segment: tuple
    n_points: int
    n_excluded: int

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "bp_pvalue": self.bp_pvalue,
            "segment": list(self.segment),
            "n_points": self.n_points,
            "excluded_points": self.n_excluded,
        }


def normality_test(sample) -> tuple[float, float]:
    """D'Agostino-Pearson omnibus normality test.

    Combines the skewness and kurtosis normal transforms into a K^2
    statistic referred to chi-square with 2 degrees of freedom. Needs at
    least 20 points for the transforms to be calibrated.

    A port of scipy.stats.normaltest (skewtest + kurtosistest) that keeps
    scipy's order of operations, so both values match it bit for bit.
    Constant samples, and samples whose fourth powers leave the float
    range (scales above about 1e75 or below 1e-75), give NaN as in scipy.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size < 20:
        raise InsufficientSampleError(f"normality test needs >= 20 points, got {arr.size}")
    # n is a 0-d array as in scipy, so every power below takes numpy's path, not Python's
    n = np.asarray(float(arr.size))
    with np.errstate(all="ignore"):
        mean = np.mean(arr, keepdims=True)
        d = arr - mean
        d2 = d**2
        m2, m3, m4 = np.mean(d2), np.mean(d2 * d), np.mean(d2**2)
        zero = m2 <= (np.finfo(float).eps * mean[0]) ** 2
        # skewtest: the skewness m3 / m2^1.5 through D'Agostino's transform
        y = (np.nan if zero else m3 / m2**1.5) * np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
        beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3)
                 / ((n-2.0) * (n+5) * (n+7) * (n+9)))
        w2 = -1 + np.sqrt(2 * (beta2 - 1))
        delta = 1 / np.sqrt(0.5 * np.log(w2))
        alpha = np.sqrt(2.0 / (w2 - 1))
        y = 1.0 if y == 0 else y
        z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha)**2 + 1))
        # kurtosistest: the kurtosis m4 / m2^2 through Anscombe and Glynn's transform
        b2 = np.nan if zero else m4 / m2**2.0
        e = 3.0*(n-1) / (n+1)
        varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
        x = (b2-e) / varb2**0.5
        sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                     / (n*(n-2)*(n-3)))**0.5
        a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
        term1 = 1 - 2/(9.0*a)
        denom = 1 + x * (2/(a-4.0))**0.5
        term2 = np.nan if denom == 0 else np.sign(denom) * ((1-2.0/a)/np.abs(denom))**(1/3)
        z_kurt = (term1 - term2) / (2/(9.0*a))**0.5
        statistic = z_skew*z_skew + z_kurt*z_kurt
    return float(statistic), float(special.chdtrc(2.0, statistic))


# below this, subnormal squared deviations can reach the last bits of ss_tot
_BP_SS_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _bp_lm(e, x) -> float:
    """n * R^2 of the auxiliary OLS of e**2 on x, clamped at 0; NaN where
    e**2 carries no variance, or the sum of squared deviations of e**2
    overflows or comes within 2**52 of the subnormal range."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        e2 = e * e
        ss_tot = float(np.sum((e2 - e2.mean()) ** 2))
    if not _BP_SS_FLOOR <= ss_tot < math.inf:
        return math.nan
    slope, intercept = np.polyfit(x, e2, 1)
    resid_aux = e2 - (slope * x + intercept)
    r2_aux = 1.0 - float(np.sum(resid_aux**2)) / ss_tot
    # rounding can leave R^2 a hair below 0, where chdtrc gives NaN and the
    # chi-square survival function 1
    return max(e.size * r2_aux, 0.0)


def breusch_pagan(residuals, regressor) -> float:
    """Breusch-Pagan LM test for homoscedasticity against one regressor.

    Auxiliary OLS of squared residuals on the regressor; LM = n * R^2 of
    that regression, referred to chi-square with 1 degree of freedom.
    Degenerate cases (all-zero residuals, or squared residuals that carry
    no variance) are perfectly homoscedastic by convention: p = 1. LM does
    not depend on the scale of the residuals: where the squares of their
    squares overflow, or come near the subnormal range (scales beyond
    about 1e77 or below 1e-73), the residuals are first scaled by a power
    of two near their largest magnitude, so every other p-value keeps its
    bits.
    """
    e = np.asarray(residuals, dtype=float)
    x = np.asarray(regressor, dtype=float)
    if e.shape != x.shape or e.ndim != 1:
        raise ValueError("residuals and regressor must be equal-length 1-d sequences")
    n = e.size
    if n < 10:
        raise ValueError(f"need at least 10 observations, got {n}")
    if np.ptp(x) == 0:
        raise ValueError("constant regressor: auxiliary regression undefined")
    if not np.all(np.isfinite(e)):
        raise ValueError("residuals must be finite")
    lm = _bp_lm(e, x)
    if math.isnan(lm):
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(e))))[1] - 1)
        # near unit scale ss_tot is far above the floor, unless e**2 is constant
        lm = _bp_lm(e / scale, x)
        if math.isnan(lm):
            return 1.0
    return float(special.chdtrc(1.0, lm))


def autonomy_fit(steps, psi_values, segment=None) -> AutonomyFit:
    """Fit ln(density trace) against step with a robust line.

    A trace that follows a power sequence is a straight line in log
    space; the r2 of the robust fit (fit_huber_line, at its fixed
    threshold HUBER_DELTA) measures how close the run is to that.
    Nonpositive and degenerate (non-finite or spike) values cannot enter
    the log and are excluded with a count.
    """
    t_all = np.asarray(steps, dtype=float)
    raw = list(psi_values)
    if t_all.size != len(raw):
        raise ValueError("steps and psi_values must have equal length")
    if segment is None:
        segment = (float(t_all.min()), float(t_all.max()))
    lo, hi = segment
    t_list, v_list = [], []
    excluded = 0
    for t, v in zip(t_all, raw):
        if not (lo <= t <= hi):
            continue
        if not isinstance(v, numbers.Real) or not np.isfinite(v) or v <= 0:
            excluded += 1
            continue
        t_list.append(t)
        v_list.append(float(v))
    if len(t_list) < 10:
        raise InsufficientSampleError(
            f"autonomy fit needs >= 10 valid points inside the segment, got {len(t_list)} "
            f"({excluded} excluded)"
        )
    t = np.asarray(t_list)
    log_v = np.log(np.asarray(v_list))
    line = fit_huber_line(t, log_v)
    slope = float(line.weights[0])
    intercept = line.intercept
    fitted = slope * t + intercept
    resid = log_v - fitted
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    # zero-variance convention: a constant trace is a perfect flat fit; the
    # mean subtraction leaves O(eps) dust even on bit-identical values, so
    # compare against a scale-aware floor instead of exact zero
    scale = max(1.0, float(np.max(np.abs(log_v))))
    floor = log_v.size * (4.0 * np.finfo(float).eps * scale) ** 2
    if ss_tot <= floor:
        r2 = 1.0
        resid = np.zeros_like(resid)
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    # the robust line can undershoot the mean fit on outlier-heavy traces;
    # the report keeps r2 inside [0, 1]
    r2 = min(1.0, max(0.0, r2))
    bp = breusch_pagan(resid, t)
    return AutonomyFit(slope, intercept, r2, bp, (lo, hi), len(t_list), excluded)


@dataclass
class SurfaceResult:
    """Final residual standard deviation over a (usage, adherence) grid."""

    p_grid: list
    s_grid: list
    mean: np.ndarray
    std: np.ndarray
    errors: dict


def stddev_surface(data, p_grid, s_grid, config, workers: int = 1) -> SurfaceResult:
    """Run the loop over a (usage, adherence) grid.

    Each cell executes ``config.repeats`` independent runs probed only at
    step 0 and the final step; the cell value is the mean final-probe
    residual standard deviation, with the across-repeat deviation kept
    alongside. A grid value outside the config's range raises ValueError
    before anything runs. A failing cell records its error, keyed by its
    (i, j) index, and leaves NaN in the matrices instead of aborting the
    sweep.
    """
    from loopsim import engine

    p_grid = list(p_grid)
    s_grid = list(s_grid)
    if not p_grid or not s_grid:
        raise ValueError("grids must be nonempty")
    cells = [(i, j) for i in range(len(p_grid)) for j in range(len(s_grid))]
    configs = [dataclasses.replace(config, usage_p=p_grid[i], adherence_s=s_grid[j])
               for i, j in cells]
    # only stddev is read, so skip derive_kappas and its throwaway initial
    # fit, and every optional probe statistic
    reports = engine.run_many(data, configs, (), engine.DEFAULT_KAPPA_FRACTIONS, stats=(),
                              workers=workers)
    mean = np.full((len(p_grid), len(s_grid)), np.nan)
    std = np.full((len(p_grid), len(s_grid)), np.nan)
    errors = {}
    for idx, report in zip(cells, reports):
        if isinstance(report, Exception):
            errors[idx] = str(report)
        else:
            final = report.per_repeat["stddev"][:, -1]
            mean[idx], std[idx] = float(np.mean(final)), float(np.std(final))
    return SurfaceResult(p_grid, s_grid, mean, std, errors)
