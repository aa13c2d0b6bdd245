"""Empirical-distribution machinery.

Everything measurable about one residual sample lives here: the empirical
CDF with its distribution-free DKW confidence band, a point-density
estimate (Gaussian KDE with Silverman bandwidth), interval masses, raw
moments in extended precision (sequential products), and the
saturation-aware float64 sum of the high-order moments (powers by block
products). Which of them a loop probe records, and under which
trace column, is engine's.
"""

import math
from typing import NamedTuple

import numpy as np

# fewest sample points a point-density estimate accepts
MIN_DENSITY_POINTS = 20
# most orders one block of the moment_l1 ladder computes at once; its
# buffer holds this many float64 copies of the sample, plus one for u**32.
# A larger block costs the ladders that stop within the first one more
# than it saves on the full ones.
LADDER_BLOCK = 32


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


def _sorted_quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) of an already sorted array, bit for bit, without its sort."""
    pos = (values.size - 1) * q
    i = math.floor(pos)
    a, b = float(values[i]), float(values[min(i + 1, values.size - 1)])
    t = pos - i
    # numpy's _lerp: interpolate from the nearer neighbour
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


class EmpiricalDistribution:
    """Immutable sorted sample with distribution queries.

    Construction sorts a copy of the input; all queries are read-only and
    safe to call concurrently. raw_moment reads a lazily built tuple of
    extended-precision power sums, which a query for a higher order
    rebuilds from the sample up to that order; moment_l1_sum runs its own
    float64 ladder and builds none of it, and neither does construction.
    A concurrent query at worst builds the tuple twice.
    """

    def __init__(self, sample):
        arr = np.sort(np.asarray(sample, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("sample must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample must be finite")
        self._sample = arr
        self._sample.flags.writeable = False
        # power sums for orders 0..K, a tuple of extended-precision scalars
        self._sums = ()

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
        if not kappa > 0:  # NaN too
            raise ValueError("kappa must be positive")
        return float(self.ecdf(kappa) - self.ecdf(-kappa))

    def bandwidth(self) -> float:
        """Silverman rule: 0.9 * min(sd, IQR/1.34) * N^(-1/5).

        Falls back to the standard deviation alone when the IQR collapses
        to zero on a non-constant sample.
        """
        sd = spread(self._sample)
        q75, q25 = _sorted_quantile(self._sample, 0.75), _sorted_quantile(self._sample, 0.25)
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

        Orders 1..order are built in one block from the sample: row k-1 of
        an (order, N) buffer is row k-2 times the sample, one whole-row
        multiply per order, and each row's pairwise sum over N gives that
        order's sum, as the one-order loop would. A query for a higher
        order than the kept sums hold builds the block again from the
        start.
        """
        sums = self._sums
        if len(sums) > order:
            return sums
        with np.errstate(over="ignore", invalid="ignore"):
            buf = np.empty((order, self.n), dtype=np.longdouble)
            buf[0] = self._sample
            for r in range(1, order):
                np.multiply(buf[r - 1], buf[0], out=buf[r])
            sums = (np.longdouble(1.0), *(np.add.reduce(buf, axis=1) / self.n))
        self._sums = sums
        return sums

    def raw_moment(self, k: int) -> float:
        """k-th raw moment (1/N) * sum(sample**k), read off the power sums.

        The powers are the sequential extended-precision products x*x*...*x,
        kept between calls, so asking for several orders computes each power
        once; asking for the highest first builds them in one block.
        """
        if k < 1:
            raise ValueError("moment order k must be >= 1")
        value = self._power_sums(k)[k]
        if not np.isfinite(value):
            raise SaturationError(f"moment of order {k} saturated extended precision")
        return float(value)

    def moment_l1_sum(self, n_terms: int) -> MomentSum:
        """Sum of |raw moments| for orders 1..n_terms with saturation guard.

        The ladder runs in float64, on the sample scaled by a power of two:
        with max|x| = f * 2**e (0.5 <= f < 1), u = x * 2**-e is exact (but
        where it falls below 2**-1022, too small to move any term) and
        |u| < 1, so no power of u overflows. Order k's term is
        |ldexp(mean(u**k), e*k)|, where the mean is a pairwise sum over N
        divided by N. The powers are block products: for k <= 32, u**k is
        u**(k-r) * u**r with r the largest power of two below k (u**2 =
        u*u, u**3 = u*u**2, u**5..u**8 = u..u**4 times u**4, ...), and
        u**(k+32) = u**k * u**32. Each u**k is still a product of k
        factors with k - 1 roundings, as the sequential product is. The
        terms are added in order. If term k is not finite, or adding it
        takes the sum past the float64 range, the partial sum up to order
        k - 1 is returned with truncated_at=k, so the value is always
        finite.

        When max|x| < 1, every later term is at most max|x|**(k+1) / (1 -
        max|x|); the walk stops once twice that bound no longer changes
        the sum. Rounding is monotone, so no later term could have changed
        it either, and the result equals the full sum.

        The powers are computed LADDER_BLOCK (32) orders at a time, one row
        per order: the first block in five doubling multiplies, each later
        one in a single multiply by u**32. Each block's means, running sums
        and stop rule take whole-array calls, so Python loops once per
        block. None of this reads the extended-precision power sums of
        raw_moment.
        """
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        amax = max(-self._sample[0], self._sample[-1])  # the sample is sorted
        exponent = math.frexp(amax)[1]
        u = np.ldexp(self._sample, -exponent)
        shifts = exponent * np.arange(1, n_terms + 1)
        if amax < 1:
            # tails[k-1] = 2 * amax**(k+1) / (1 - amax), the bound after term
            # k, as the sequential products tail *= amax; the factor 2
            # covers the rounding of the computed powers
            tails = np.full(n_terms, amax)
            tails[0] *= 2 * amax / (1 - amax)
            np.multiply.accumulate(tails, out=tails)
        total = 0.0
        buf = np.empty((min(LADDER_BLOCK, n_terms), self.n))
        with np.errstate(over="ignore"):
            for first in range(0, n_terms, LADDER_BLOCK):
                rows = min(LADDER_BLOCK, n_terms - first)
                if first == 0:
                    # doubling: rows r..2r-1 (powers r+1..2r) are rows 0..r-1 times u**r
                    buf[0] = u
                    r = 1
                    while r < rows:
                        top = min(2 * r, rows)
                        np.multiply(buf[:top - r], buf[r - 1], out=buf[r:top])
                        r = top
                    if rows < n_terms:
                        u_block = buf[-1].copy()  # u**LADDER_BLOCK
                else:  # the previous block was full: its rows times u**LADDER_BLOCK
                    np.multiply(buf[:rows], u_block, out=buf[:rows])
                sums = np.add.reduce(buf[:rows], axis=1) / self.n
                terms = np.abs(np.ldexp(sums, shifts[first:first + rows]))
                terms[0] += total
                totals = np.add.accumulate(terms, out=terms)  # the running sums, in order
                if amax < 1:
                    # every term is at most about amax**k < 1: no sum leaves the range
                    done = totals + tails[first:first + rows] == totals
                    j = int(done.argmax())
                    if done[j]:
                        return MomentSum(float(totals[j]), None)
                elif not math.isfinite(totals[-1]):
                    # the sums only grow: the first one past the range is order first + 1 + j
                    j = int(np.isfinite(totals).argmin())
                    return MomentSum(float(totals[j - 1]) if j else total, first + 1 + j)
                total = float(totals[-1])
        return MomentSum(total, None)
