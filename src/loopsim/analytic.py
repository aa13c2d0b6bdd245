"""Exact density-map family and its limit/moment/norm probes.

The central object is the scaling map family f_t(x) = psi_t^n * f0(psi_t * x)
driven by a positive sequence psi_t. Operations here are the analytic side
of the simulator: weak-limit probes against compact test functions,
the multiplicativity check that separates autonomous from non-autonomous
sequences, exact moment scaling, and a quadrature lower bound for the
operator norm of a one-step density transformation.

All quadrature is one-dimensional: 20-point Gauss-Legendre on 1, 2, 4, ... panels per piece
between breakpoints, until every piece's last two estimates agree within 1e-8 or 1e-10 relative.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

QUAD_EPSABS = 1e-8
QUAD_EPSREL = 1e-10
QUAD_MAX_PANELS = 2**12
GAUSSIAN_SUPPORT_SDS = 12.0
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(20))  # on first use


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


def _check_interval(name: str, interval: tuple) -> None:
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must be a finite interval with lo < hi, got {interval}")


@dataclass(frozen=True)
class DensityFn:
    """A probability density given by an evaluator and a finite support hint.

    The support hint bounds where the mass lives; evaluators may be
    nonzero only inside.
    """

    evaluator: object
    support_hint: tuple

    def __post_init__(self):
        _check_interval("support hint", self.support_hint)


@dataclass(frozen=True)
class PsiSequence:
    """A positive scaling sequence indexed by integer steps t >= 1."""

    evaluator: object

    def at(self, t: int) -> float:
        if int(t) != t or t < 1:
            raise ValueError(f"step index must be a positive integer, got {t}")
        try:
            value = float(self.evaluator(int(t)))
        except OverflowError:
            value = math.inf
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"sequence value at t={t} must be positive and finite, got {value}")
        return value


@dataclass(frozen=True)
class TestFunction:
    """A continuous test function with declared compact support."""

    evaluator: object
    support: tuple

    def __post_init__(self):
        _check_interval("support", self.support)


@dataclass(frozen=True)
class AnalyticMap:
    """The scaling family applied to a base density, in a fixed dimension."""

    base: DensityFn
    psi: PsiSequence
    dimension: int = 1

    def __post_init__(self):
        if int(self.dimension) < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension}")


def gaussian_density(mean: float = 0.0, variance: float = 1.0) -> DensityFn:
    """Normal density with support truncated at +-12 standard deviations."""
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be finite and positive, got {variance}")
    sd = math.sqrt(variance)
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def evaluator(x):
        return norm * np.exp(-((np.asarray(x, dtype=float) - mean) ** 2) / (2.0 * variance))

    lo = mean - GAUSSIAN_SUPPORT_SDS * sd
    hi = mean + GAUSSIAN_SUPPORT_SDS * sd
    return DensityFn(evaluator, (lo, hi))


def uniform_density(lo: float, hi: float) -> DensityFn:
    """Uniform density on [lo, hi]."""
    _check_interval("interval", (lo, hi))
    height = 1.0 / (hi - lo)

    def evaluator(x):
        xa = np.asarray(x, dtype=float)
        return np.where((xa >= lo) & (xa <= hi), height, 0.0)

    return DensityFn(evaluator, (lo, hi))


def power_sequence(a: float) -> PsiSequence:
    """psi_t = a^t, the multiplicative (autonomous) family."""
    if a <= 0:
        raise ValueError(f"base must be positive, got {a}")
    return PsiSequence(lambda t: a**t)


def linear_sequence() -> PsiSequence:
    """psi_t = t."""
    return PsiSequence(lambda t: float(t))


def triangle_test_function(half_width: float = 1.0, center: float = 0.0) -> TestFunction:
    """The tent function max(0, 1 - |x - center|/half_width)."""
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")

    def evaluator(x):
        xa = np.asarray(x, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(xa - center) / half_width)

    return TestFunction(evaluator, (center - half_width, center + half_width))


def apply_map(amap: AnalyticMap, t: int, x):
    """Evaluate the transformed density at step t: psi_t^n * f0(psi_t * x)."""
    psi_t = amap.psi.at(t)
    value = psi_t**amap.dimension * amap.base.evaluator(psi_t * np.asarray(x, dtype=float))
    if np.ndim(x) == 0:
        return float(value)
    return value


def transformed_support(amap: AnalyticMap, t: int) -> tuple:
    """Support hint of the step-t density (base support scaled by 1/psi_t)."""
    psi_t = amap.psi.at(t)
    lo, hi = amap.base.support_hint
    return (lo / psi_t, hi / psi_t)


def _quad(fn, lo, hi, points) -> float:
    if lo >= hi:
        return 0.0
    nodes, weights = _gauss_legendre()
    vfn = np.vectorize(fn, otypes=[float])  # evaluators take one point at a time
    edges = np.array([lo, *sorted(p for p in points if lo < p < hi), hi])
    estimate, change, panels = np.nan, np.inf, 1
    while not np.all(change <= np.maximum(QUAD_EPSABS, QUAD_EPSREL * np.abs(estimate))):
        if panels > QUAD_MAX_PANELS:
            raise QuadratureError(f"quadrature did not converge within {QUAD_MAX_PANELS} panels")
        half = np.diff(edges)[:, None, None] / (2 * panels)
        x = edges[:-1, None, None] + half * (np.arange(1, 2 * panels, 2)[:, None] + nodes)
        refined = (vfn(x) @ weights).sum(axis=1) * half[:, 0, 0]
        estimate, change, panels = refined, np.abs(refined - estimate), 2 * panels
    return float(estimate.sum())


def _require_dimension_one(amap: AnalyticMap, op: str) -> None:
    if amap.dimension != 1:
        raise ValueError(f"{op} integrates numerically and supports dimension 1 only")


def envelope_norm(amap: AnalyticMap, t: int) -> float:
    """Quadrature norm of the step-t density; should be 1 for any psi_t."""
    _require_dimension_one(amap, "envelope_norm")
    lo, hi = transformed_support(amap, t)
    return _quad(lambda x: apply_map(amap, t, x), lo, hi, points=(0.0,))


def weak_limit_probe(amap: AnalyticMap, phi: TestFunction, t_list) -> list[float]:
    """Integrate the step-t density against a compact test function.

    As psi_t grows the values approach phi(0); as psi_t vanishes so do the
    values. Integration runs over the intersection of the two supports,
    split at the interior endpoints so the panels see the moving
    concentration region.
    """
    _require_dimension_one(amap, "weak_limit_probe")
    values = []
    for t in t_list:
        f_lo, f_hi = transformed_support(amap, t)
        p_lo, p_hi = phi.support
        lo, hi = max(f_lo, p_lo), min(f_hi, p_hi)

        def integrand(x, t=t):
            return apply_map(amap, t, x) * float(phi.evaluator(x))

        values.append(_quad(integrand, lo, hi, points=(0.0, f_lo, f_hi)))
    return values


@dataclass(frozen=True)
class AutonomyCheckResult:
    """Outcome of the multiplicativity check over a step horizon."""

    autonomous: bool
    max_violation: float
    worst_pair: tuple

    def __iter__(self):
        # unpack support: ok, violation, pair = autonomy_check(...)
        return iter((self.autonomous, self.max_violation, self.worst_pair))


def autonomy_check(psi: PsiSequence, horizon: int, rel_tol: float = 1e-9) -> AutonomyCheckResult:
    """Check psi_(tau+kappa) = psi_tau * psi_kappa over all pairs in range.

    The relative violation |psi_(tau+kappa) - psi_tau*psi_kappa| /
    psi_(tau+kappa) must stay within rel_tol for every pair with
    tau, kappa >= 1 and tau + kappa <= horizon. Exactly the power
    sequences pass for every horizon.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    cache = {t: psi.at(t) for t in range(1, horizon + 1)}
    worst = 0.0
    worst_pair = (1, 1)
    for tau in range(1, horizon):
        for kap in range(1, horizon - tau + 1):
            target = cache[tau + kap]
            violation = abs(target - cache[tau] * cache[kap]) / target
            if violation > worst:
                worst = violation
                worst_pair = (tau, kap)
    return AutonomyCheckResult(worst <= rel_tol, worst, worst_pair)


def moment_scaling_predict(amap: AnalyticMap, k: int, t: int, nu_k_0: float) -> float:
    """Exact k-th raw moment at step t under the scaling map.

    A change of variables gives nu_k at step t equal to psi_t^(-k) times
    the base moment.
    """
    if int(k) < 1:
        raise ValueError(f"moment order must be a positive integer, got {k}")
    return amap.psi.at(t) ** (-int(k)) * nu_k_0


def envelope_step(scale: float):
    """One-step density transformation D(f)(x) = scale * f(scale * x) on the line."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def transform(f):
        def g(x):
            return scale * f(scale * np.asarray(x, dtype=float))

        return g

    return transform


def operator_norm_lower_bound(transform, interval, breakpoints=None) -> float:
    """Lower bound on the q-norm of a one-step density transformation.

    Pushes the uniform density on the interval through the transformation
    and integrates the image back over the same interval; the result
    bounds the operator norm from below for every q in [1, inf].
    Breakpoints let the caller flag discontinuities of the image.
    """
    lo, hi = interval
    indicator = uniform_density(lo, hi)
    image = transform(indicator.evaluator)
    pts = list(breakpoints) if breakpoints is not None else [lo, hi, 0.0]
    return _quad(lambda x: float(image(x)), lo, hi, points=pts)
