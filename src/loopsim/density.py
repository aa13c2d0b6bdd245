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
# most moment orders one block of the power-sum ladder computes at once;
# its buffer holds this many extended-precision copies of the sample
POWER_SUM_BLOCK = 32


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
    safe to call concurrently. The moment queries share one lazily built
    ladder of power sums: the first one that needs order k extends it in
    blocks of POWER_SUM_BLOCK orders. Construction builds none of
    it. The ladder is replaced, never mutated, so a concurrent query at
    worst builds a block twice.
    """

    def __init__(self, sample):
        arr = np.sort(np.asarray(sample, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("sample must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample must be finite")
        self._sample = arr
        self._sample.flags.writeable = False
        # (power sums for orders 0..K, the sequential product x**K); the
        # sums are a tuple of extended-precision scalars
        self._ladder = None

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

    def _power_sums(self, order: int) -> tuple:
        """Power sums for orders 0..K with K >= order: entry k is the mean of
        the sequential extended-precision product x*x*...*x (k factors).

        Each missing block holds POWER_SUM_BLOCK orders: the sample fills a
        (POWER_SUM_BLOCK, N) buffer whose first row is seeded with the
        previous product, np.multiply.accumulate turns its rows into the
        next powers, and each row's pairwise sum over N gives that order's
        sum, as the one-order loop would. A block may run past the orders
        a caller reads; that changes none of the sums.
        """
        sums, last = self._ladder or ((np.longdouble(1.0),), None)
        if len(sums) > order:
            return sums
        with np.errstate(over="ignore", invalid="ignore"):
            while len(sums) <= order:
                buf = np.empty((POWER_SUM_BLOCK, self.n), dtype=np.longdouble)
                buf[0] = self._sample
                buf[1:] = buf[0]  # one cast per block: casting each row costs 10x a copy
                if last is not None:
                    np.multiply(last, buf[0], out=buf[0])
                np.multiply.accumulate(buf, axis=0, out=buf)
                sums += tuple(np.add.reduce(buf, axis=1) / self.n)
                last = buf[-1].copy()
        self._ladder = (sums, last)
        return sums

    def raw_moment(self, k: int) -> float:
        """k-th raw moment (1/N) * sum(sample**k), read off the power sums.

        The powers are the sequential extended-precision products of the
        ladder that moment_l1_sum also reads, so asking for several orders,
        or for the ladder as well, computes each power once.
        """
        if k < 1:
            raise ValueError("moment order k must be >= 1")
        value = self._power_sums(k)[k]
        if not np.isfinite(value):
            raise SaturationError(f"moment of order {k} saturated extended precision")
        return float(value)

    def moment_l1_sum(self, n_terms: int) -> MomentSum:
        """Sum of |raw moments| for orders 1..n_terms with saturation guard.

        The terms are the power sums that raw_moment reads, extended block
        by block as this walk reaches them. If adding order k would take
        the sum past the float64 range (or a term saturates), the partial
        sum up to order k - 1 is returned with truncated_at=k, so the
        value is always finite.

        When max|x| < 1, every later term is at most max|x|**(k+1) / (1 -
        max|x|); the ladder stops once twice that bound no longer changes
        the extended-precision sum. Rounding is monotone, so no later term
        could have changed it either, and the result equals the full sum.
        """
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        amax = np.longdouble(max(-self._sample[0], self._sample[-1]))  # the sample is sorted
        # tail = 2 * amax**(k+1) / (1 - amax) after term k; the factor 2
        # covers the rounding of the computed powers
        tail = 2 * amax / (1 - amax) if amax < 1 else np.longdouble(np.inf)
        total = np.longdouble(0.0)
        sums = ()
        with np.errstate(over="ignore"):
            for k in range(1, n_terms + 1):
                if k >= len(sums):
                    sums = self._power_sums(k)
                new = total + abs(sums[k])
                if not new < _FLOAT_OVERFLOW:  # also catches a NaN or inf term
                    return MomentSum(float(total), k)
                total = new
                tail *= amax
                if total + tail == total:
                    break
        return MomentSum(float(total), None)
