"""Empirical-distribution machinery.

Everything measurable about one residual sample lives here: the empirical
CDF with its distribution-free DKW confidence band, a point-density
estimate (Gaussian KDE with Silverman bandwidth), interval masses, and
raw moments with saturation-aware high-order sums. Which of them a loop
probe records, and under which trace column, is engine's.
"""

import math
from typing import NamedTuple

import numpy as np

# fewest sample points a point-density estimate accepts
MIN_DENSITY_POINTS = 20


class InsufficientSampleError(ValueError):
    """Raised when a query needs more sample points than are available."""


class SaturationError(FloatingPointError):
    """Raised when a moment overflows even in extended precision."""


class DegenerateSpike:
    """Sentinel for density queries on a constant sample.

    A constant sample has zero bandwidth; its density is a point mass and
    has no finite value at the atom. Queries return this marker instead of
    infinity so downstream traces stay representable.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<degenerate spike>"


SPIKE = DegenerateSpike()

# float() of an extended-precision value is finite exactly below this: the
# midpoint between the float64 maximum and 2**1024 rounds up, to infinity
_FLOAT_OVERFLOW = np.longdouble(np.finfo(np.float64).max) + np.longdouble(2.0**970)


class MomentSum(NamedTuple):
    """Partial-sum result of a high-order moment series.

    ``truncated_at`` is None when all requested terms were summed (or the
    rest provably could not change the value), otherwise the first order
    left out because it would have taken the sum past the float64 range.
    """

    value: float
    truncated_at: int | None


def dkw_epsilon(alpha: float, n: int) -> float:
    """Half-width of the DKW confidence band: sqrt(ln(2/alpha) / (2N)).

    The band [ecdf - eps, ecdf + eps] contains the true CDF everywhere
    with probability at least 1 - alpha.
    """
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if n < 1:
        raise ValueError("N must be a positive integer")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def spread(values) -> float:
    """np.std of the values, finite and nonzero wherever the true value is.

    Where the squared deviations leave the float range (an overflow past
    about 1.3e154, or an underflow of unequal values to 0), the values are
    scaled by a power of two before the plain std, so every other result
    keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(values))
        if not math.isfinite(sd) or (sd == 0.0 and np.ptp(values) > 0):
            scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(values))))[1] - 1)
            sd = scale * float(np.std(values / scale))
    return sd


class EmpiricalDistribution:
    """Immutable sorted sample with distribution queries.

    Construction sorts a copy of the input; all queries are read-only and
    safe to call concurrently.
    """

    def __init__(self, sample):
        arr = np.sort(np.asarray(sample, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("sample must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample must be finite")
        self._sample = arr
        self._sample.flags.writeable = False

    @property
    def sample(self) -> np.ndarray:
        return self._sample

    @property
    def n(self) -> int:
        return self._sample.size

    def ecdf(self, x):
        """Right-continuous empirical CDF: (# sample values <= x) / N."""
        counts = np.searchsorted(self._sample, x, side="right")
        return counts / self.n

    def interval_mass(self, kappa: float) -> float:
        """Empirical mass of [-kappa, kappa]: ecdf(kappa) - ecdf(-kappa)."""
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        return float(self.ecdf(kappa) - self.ecdf(-kappa))

    def bandwidth(self) -> float:
        """Silverman rule: 0.9 * min(sd, IQR/1.34) * N^(-1/5).

        Falls back to the standard deviation alone when the IQR collapses
        to zero on a non-constant sample.
        """
        sd = spread(self._sample)
        q75, q25 = np.percentile(self._sample, [75, 25])
        iqr = q75 - q25
        scale = min(sd, iqr / 1.34) if iqr > 0 else sd
        return 0.9 * scale * self.n ** (-0.2)

    def density_at(self, x: float):
        """Gaussian-kernel density estimate at a point.

        Needs at least 20 points. Returns the SPIKE sentinel for a
        constant sample (zero bandwidth), never infinity.
        """
        if self.n < MIN_DENSITY_POINTS:
            raise InsufficientSampleError(
                f"density needs N >= {MIN_DENSITY_POINTS} points, got {self.n}"
            )
        h = self.bandwidth()
        if h == 0.0:
            return SPIKE
        u = (x - self._sample) / h
        return float(np.exp(-0.5 * u * u).sum() / (self.n * h * math.sqrt(2.0 * math.pi)))

    def raw_moment(self, k: int) -> float:
        """k-th raw moment (1/N) * sum(sample**k), in extended precision."""
        if k < 1:
            raise ValueError("moment order k must be >= 1")
        with np.errstate(over="ignore"):
            pw = self._sample.astype(np.longdouble) ** k
            value = pw.mean()
        if not np.isfinite(value):
            raise SaturationError(f"moment of order {k} saturated extended precision")
        return float(value)

    def moment_l1_sum(self, n_terms: int) -> MomentSum:
        """Sum of |raw moments| for orders 1..n_terms with saturation guard.

        Powers accumulate in extended precision. If adding order k would
        take the sum past the float64 range (or a term saturates), the
        partial sum up to order k - 1 is returned with truncated_at=k, so
        the value is always finite.

        When max|x| < 1, every later term is at most max|x|**(k+1) / (1 -
        max|x|); the ladder stops once twice that bound no longer changes
        the extended-precision sum. Rounding is monotone, so no later term
        could have changed it either, and the result equals the full sum.
        """
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        base = self._sample.astype(np.longdouble)
        powers = np.ones_like(base)
        amax = max(-base[0], base[-1])  # the sample is sorted
        # tail = 2 * amax**(k+1) / (1 - amax) after term k; the factor 2
        # covers the rounding of the computed powers
        tail = 2 * amax / (1 - amax) if amax < 1 else np.longdouble(np.inf)
        total = np.longdouble(0.0)
        with np.errstate(over="ignore"):
            for k in range(1, n_terms + 1):
                np.multiply(powers, base, out=powers)
                # the pairwise sum and division of powers.mean(), without its overhead
                new = total + abs(np.add.reduce(powers) / self.n)
                if not new < _FLOAT_OVERFLOW:  # also catches a NaN or inf term
                    return MomentSum(float(total), k)
                total = new
                tail *= amax
                if total + tail == total:
                    break
        return MomentSum(float(total), None)
