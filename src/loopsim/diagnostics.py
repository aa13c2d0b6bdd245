"""Statistical tests on residual samples and traces.

Covers residual normality testing, the robust log-linear autonomy fit,
and the Breusch-Pagan homoscedasticity check on fit residuals. The
report of a run and the (usage, adherence) surface are engine's. Both
tests refer their statistic to a chi-square tail with 1 or 2 degrees of
freedom, which has a closed form, so this module needs numpy only.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from loopsim.density import InsufficientSampleError
from loopsim.regressors import fit_huber_line


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


@functools.lru_cache(maxsize=64)
def _normality_constants(size: int) -> tuple:
    """The terms of normality_test that depend on the sample size alone.

    Returns the skewness factor sqrt((n+1)(n+3) / (6(n-2))), D'Agostino's
    delta and alpha, the kurtosis mean e and standard deviation
    varb2**0.5, and Anscombe and Glynn's term1, (2/(a-4))**0.5, 1 - 2/a
    and (2/(9a))**0.5, each computed from the 0-d array n as scipy does.
    """
    # n is a 0-d array as in scipy, so every power below takes numpy's path, not Python's
    n = np.asarray(float(size))
    with np.errstate(all="ignore"):
        skew_factor = np.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
        beta2 = (3.0 * (n**2 + 27*n - 70) * (n+1) * (n+3)
                 / ((n-2.0) * (n+5) * (n+7) * (n+9)))
        w2 = -1 + np.sqrt(2 * (beta2 - 1))
        delta = 1 / np.sqrt(0.5 * np.log(w2))
        alpha = np.sqrt(2.0 / (w2 - 1))
        e = 3.0*(n-1) / (n+1)
        varb2 = 24.0*n*(n-2)*(n-3) / ((n+1)*(n+1.)*(n+3)*(n+5))
        sqrtbeta1 = 6.0*(n*n-5*n+2)/((n+7)*(n+9)) * ((6.0*(n+3)*(n+5))
                                                     / (n*(n-2)*(n-3)))**0.5
        a = 6.0 + 8.0/sqrtbeta1 * (2.0/sqrtbeta1 + (1+4.0/(sqrtbeta1**2))**0.5)
        return (skew_factor, delta, alpha, e, varb2**0.5,
                1 - 2/(9.0*a), (2/(a-4.0))**0.5, 1-2.0/a, (2/(9.0*a))**0.5)


def normality_test(sample) -> tuple[float, float]:
    """D'Agostino-Pearson omnibus normality test.

    Combines the skewness and kurtosis normal transforms into a K^2
    statistic referred to chi-square with 2 degrees of freedom. Needs at
    least 20 points for the transforms to be calibrated.

    A port of scipy.stats.normaltest (skewtest + kurtosistest) that keeps
    scipy's order of operations, so K^2 matches it bit for bit. The terms
    that depend on the sample size alone are computed once per size and
    kept (_normality_constants), with the same expressions. The p-value
    is the closed-form chi-square(2) tail exp(-K^2 / 2), which agrees with
    scipy's to rounding but not always to the last bit. Constant samples,
    and samples whose fourth powers leave the float range (scales above
    about 1e75 or below 1e-75), give NaN as in scipy.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1 or arr.size < 20:
        raise InsufficientSampleError(f"normality test needs >= 20 points, got {arr.size}")
    (skew_factor, delta, alpha, e, sd_b2,
     term1, kurt_factor, one_minus, z_scale) = _normality_constants(arr.size)
    with np.errstate(all="ignore"):
        mean = np.mean(arr, keepdims=True)
        d = arr - mean
        d2 = d**2
        m2, m3, m4 = np.mean(d2), np.mean(d2 * d), np.mean(d2**2)
        zero = m2 <= (np.finfo(float).eps * mean[0]) ** 2
        # skewtest: the skewness m3 / m2^1.5 through D'Agostino's transform
        y = (np.nan if zero else m3 / m2**1.5) * skew_factor
        y = 1.0 if y == 0 else y
        z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha)**2 + 1))
        # kurtosistest: the kurtosis m4 / m2^2 through Anscombe and Glynn's transform
        b2 = np.nan if zero else m4 / m2**2.0
        x = (b2-e) / sd_b2
        denom = 1 + x * kurt_factor
        term2 = np.nan if denom == 0 else np.sign(denom) * (one_minus/np.abs(denom))**(1/3)
        z_kurt = (term1 - term2) / z_scale
        statistic = z_skew*z_skew + z_kurt*z_kurt
    return float(statistic), math.exp(-statistic / 2)


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
    # rounding can leave R^2 a hair below 0, where the square root of the
    # tail is undefined and the chi-square survival function is 1
    return max(e.size * r2_aux, 0.0)


def breusch_pagan(residuals, regressor) -> float:
    """Breusch-Pagan LM test for homoscedasticity against one regressor.

    Auxiliary OLS of squared residuals on the regressor; LM = n * R^2 of
    that regression, referred to chi-square with 1 degree of freedom,
    whose tail is erfc(sqrt(LM / 2)).
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
    return math.erfc(math.sqrt(lm / 2))


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
