"""Empirical distribution queries: frozen oracles and properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsim.density import (
    SPIKE,
    EmpiricalDistribution,
    InsufficientSampleError,
    MomentSum,
    SaturationError,
    _sorted_quantile,
    dkw_epsilon,
    spread,
)


def test_dkw_epsilon_frozen_values():
    # sqrt(ln(2/alpha) / (2N)) evaluated independently
    assert dkw_epsilon(0.05, 2000) == pytest.approx(0.030368073095415, abs=1e-12)
    assert dkw_epsilon(0.001, 10000) == pytest.approx(0.019494746035204, abs=1e-12)
    assert dkw_epsilon(0.1, 500) == pytest.approx(math.sqrt(math.log(20.0) / 1000.0))


def test_dkw_epsilon_rejects_bad_args():
    with pytest.raises(ValueError):
        dkw_epsilon(0.0, 100)
    with pytest.raises(ValueError):
        dkw_epsilon(2.0, 100)
    with pytest.raises(ValueError):
        dkw_epsilon(0.05, 0)


def test_ecdf_hand_values():
    d = EmpiricalDistribution([1.0, 2.0, 2.0, 4.0])
    assert d.ecdf(0.5) == 0.0
    assert d.ecdf(1.0) == 0.25   # right continuous: counts the atom
    assert d.ecdf(2.0) == 0.75
    assert d.ecdf(3.0) == 0.75
    assert d.ecdf(5.0) == 1.0


def test_ecdf_vectorized():
    d = EmpiricalDistribution([0.0, 1.0])
    got = d.ecdf([-1.0, 0.0, 0.5, 2.0])
    assert np.allclose(got, [0.0, 0.5, 0.5, 1.0])


def test_interval_mass_hand_value():
    d = EmpiricalDistribution([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert d.interval_mass(1.0) == pytest.approx(0.6)
    for kappa in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="kappa must be positive"):
            d.interval_mass(kappa)


def test_interval_mass_gaussian_band():
    rng = np.random.default_rng(7)
    d = EmpiricalDistribution(rng.normal(size=200000))
    # Phi(1) - Phi(-1)
    assert d.interval_mass(1.0) == pytest.approx(0.682689492, abs=0.005)


def test_silverman_bandwidth_hand_computation():
    sample = np.arange(32, dtype=float)
    d = EmpiricalDistribution(sample)
    sd = float(np.std(sample))
    q75, q25 = np.percentile(sample, [75, 25])
    want = 0.9 * min(sd, (q75 - q25) / 1.34) * 32 ** (-0.2)
    assert d.bandwidth() == pytest.approx(want, rel=1e-12)


def test_bandwidth_keeps_the_bits_of_np_percentile():
    """The quartiles are read off the sorted sample by numpy's linear rule,
    its _lerp included, so they and the Silverman bandwidth keep
    np.percentile's bits, down to n = 1."""
    rng = np.random.default_rng(5)
    for n in range(1, 2001, 7):
        for scale in (1e-30, 1.0, 1e30):
            d = EmpiricalDistribution(rng.standard_t(3, n) * scale)
            q75, q25 = np.percentile(d.sample, [75, 25])
            got = np.array([_sorted_quantile(d.sample, 0.75), _sorted_quantile(d.sample, 0.25)])
            assert got.tobytes() == np.array([q75, q25]).tobytes(), (n, scale)
            iqr, sd = q75 - q25, spread(d.sample)
            assert d.bandwidth() == 0.9 * (min(sd, iqr / 1.34) if iqr > 0 else sd) * n ** (-0.2)


@given(st.integers(0, 2**32 - 1), st.integers(2, 500), st.integers(-150, 150))
@settings(max_examples=100, deadline=None)
def test_spread_keeps_the_plain_std_bits_where_it_is_finite_and_nonzero(seed, n, exponent):
    x = np.random.default_rng(seed).standard_normal(n) * 10.0**exponent
    with np.errstate(over="ignore", under="ignore"):
        plain = float(np.std(x))
    if math.isfinite(plain) and plain > 0:
        assert spread(x) == plain


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
def test_spread_survives_squares_outside_the_float_range(scale):
    # the plain std overflows to inf above about 1.3e154 and underflows to 0
    # below about 1e-162; a power-of-two rescale keeps both representable
    x = np.random.default_rng(0).standard_normal(600)
    assert spread(x * scale) == pytest.approx(np.std(x) * scale, rel=1e-14)


def test_bandwidth_of_a_tiny_unequal_sample_is_no_spike():
    d = EmpiricalDistribution(np.random.default_rng(3).standard_normal(200) * 1e-300)
    assert d.bandwidth() > 0
    assert d.density_at(0.0) is not SPIKE


def test_density_at_matches_known_gaussian():
    rng = np.random.default_rng(12)
    d = EmpiricalDistribution(rng.normal(scale=5.0, size=50000))
    # N(0,25) density at the origin: 1/(5*sqrt(2*pi))
    assert d.density_at(0.0) == pytest.approx(0.0797884561, rel=0.03)


def test_density_histogram_cross_estimator_agrees():
    rng = np.random.default_rng(13)
    d = EmpiricalDistribution(rng.normal(size=5000))
    kde = d.density_at(0.0)
    # the height of the equal-width histogram bin that holds the origin
    heights, edges = np.histogram(d.sample, bins=71, density=True)
    hist = heights[np.searchsorted(edges, 0.0) - 1]
    assert abs(hist - kde) / kde < 0.25


def test_density_needs_twenty_points():
    d = EmpiricalDistribution(np.arange(19, dtype=float))
    with pytest.raises(InsufficientSampleError):
        d.density_at(0.0)


def test_constant_sample_is_a_spike():
    d = EmpiricalDistribution(np.full(25, 3.0))
    assert d.density_at(3.0) is SPIKE


def test_raw_moment_hand_values():
    d = EmpiricalDistribution([1.0, 2.0, 3.0])
    assert d.raw_moment(1) == pytest.approx(2.0)
    assert d.raw_moment(2) == pytest.approx(14.0 / 3.0)
    with pytest.raises(ValueError):
        d.raw_moment(0)


def test_raw_moment_saturation():
    d = EmpiricalDistribution([1e200, 1e200])
    with pytest.raises(SaturationError):
        d.raw_moment(30)


def test_moment_l1_sum_geometric_oracle():
    # constant sample c=0.5: k-th abs moment is 0.5^k, so the 300-term sum
    # is a geometric series: 0.5 * (1 - 0.5^300) / (1 - 0.5) -> 1.0
    d = EmpiricalDistribution(np.full(30, 0.5))
    got = d.moment_l1_sum(300)
    assert got.truncated_at is None
    assert got.value == pytest.approx(1.0, rel=1e-12)


def test_moment_l1_sum_truncates_on_overflow():
    # terms are 1e(30k); adding 1e330 at k=11 would leave the float64 range,
    # so the sum stops at 1e30 + ... + 1e300 and reports the truncation
    d = EmpiricalDistribution(np.full(30, 1e30))
    got = d.moment_l1_sum(300)
    assert got.truncated_at == 11
    assert math.isfinite(got.value)
    assert got.value == pytest.approx(1e300, rel=1e-12)


def test_moment_l1_sum_truncates_when_only_the_sum_overflows():
    # every term stays inside extended precision (20**300 ~ 1e390), but the
    # sum passes the float64 maximum near order 238
    got = EmpiricalDistribution([-20.0, 3.0, 20.0]).moment_l1_sum(300)
    assert got.truncated_at is not None
    assert math.isfinite(got.value)
    assert got.value > 1e300


def _moment_l1_sum_reference(sample, n_terms=300):
    """The plain long-double loop that the float64 ladder replaced: the
    accuracy reference. Returns the running sums of |raw moment k| and of
    the absolute moments mean(|x|**k), for k = 1..n_terms. The second sum
    is the scale of the rounding error in a sum of signed powers."""
    base = sample.astype(np.longdouble)
    powers, absolute = np.ones_like(base), np.ones_like(base)
    total = scale = np.longdouble(0.0)
    sums, scales = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_terms):
            powers = powers * base
            absolute = absolute * np.abs(base)
            total = total + np.abs(powers.mean())
            scale = scale + absolute.mean()
            sums.append(total)
            scales.append(scale)
    return sums, scales


# the long-double sums pass the float64 range exactly from here: the midpoint
# between the float64 maximum and 2**1024 rounds up, to infinity
_FLOAT64_LIMIT = np.longdouble(np.finfo(np.float64).max) + np.longdouble(2.0**970)
# The float64 ladder stays within this multiple of the absolute-moment sum of
# the long-double loop, over the orders both summed. The first-order rounding
# bound (2 * n_terms + log2 N + 1) * 2**-53 is 6.8e-14 at 300 terms and
# N = 2000. The measured worst was 1.5e-14 with the block products, over
# 5000 Gaussian, t(3), uniform and constant samples with N from 1 to 800
# and scales from 1e-323 to 1e300; the sequential products read 2.3e-15 on
# the same samples. Every power above u**32 repeats the rounding of u**32,
# so the error grows with the order rather than as its square root. Over
# 14 000 such samples with N up to 2000, where the sequential ladder's
# truncation order differed from the reference's, the reference's sum lay
# within 5e-20 of its scale from the range's end. A bound relative to the
# sum itself does not hold: on a symmetric sample whose even moments leave
# the float64 range, the sum is an odd moment's cancellation error in
# either precision.
L1_BOUND = 1e-13


def _assert_close_to_the_long_double_loop(got, sample, n_terms):
    sums, scales = _moment_l1_sum_reference(sample, n_terms)
    # the long-double loop truncates where its running sum leaves the float64 range
    want_truncated = next((k for k, s in enumerate(sums, 1) if not s < _FLOAT64_LIMIT), None)
    if got.truncated_at != want_truncated:
        # only where the reference's sum lies within the bound of that range
        k = min(t for t in (got.truncated_at, want_truncated) if t is not None)
        assert abs(sums[k - 1] - _FLOAT64_LIMIT) <= L1_BOUND * scales[k - 1]
        return
    summed = (want_truncated or n_terms + 1) - 1
    if summed == 0:
        assert got.value == 0.0
        return
    # plus one subnormal spacing per order, where the terms round to it
    tolerance = L1_BOUND * scales[summed - 1] + summed * 2.0**-1074
    assert abs(np.longdouble(got.value) - sums[summed - 1]) <= tolerance


_unit = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
_ladder_samples = st.one_of(
    # any scale the float64 range allows
    st.tuples(st.lists(_unit, min_size=1, max_size=50), st.integers(-300, 300)).map(
        lambda args: [x * 10.0 ** args[1] for x in args[0]]),
    # entirely inside (-1, 1): the ladder stops early
    st.lists(_unit, min_size=1, max_size=50),
    # straddling +-1
    st.tuples(st.lists(_unit, max_size=49), st.floats(1.0, 2.0), st.booleans()).map(
        lambda args: args[0] + [args[1] if args[2] else -args[1]]),
)


@given(_ladder_samples)
@settings(max_examples=150, deadline=None)
# x**3 leaves the float64 range, but the mean of the cubes does not
@example(sample=[1e103] + [0.0] * 99)
def test_moment_l1_sum_matches_the_plain_loop(sample):
    d = EmpiricalDistribution(sample)
    got = d.moment_l1_sum(300)
    assert got == _moment_l1_sum_one_order(d.sample, 300)
    assert math.isfinite(got.value)
    _assert_close_to_the_long_double_loop(got, d.sample, 300)


@given(_ladder_samples)
@settings(max_examples=150, deadline=None)
def test_moment_l1_is_at_least_the_sum_of_the_first_six_raw_moments(sample):
    """The benchmark's moment_l1_bound check, across the two precisions."""
    d = EmpiricalDistribution(sample)
    got = d.moment_l1_sum(300)
    assume(got.truncated_at is None or got.truncated_at > 6)
    head = math.fsum(abs(d.raw_moment(k)) for k in range(1, 7))
    assert got.value >= (1.0 - 1e-12) * head


def _sequential_mean(sample, k):
    """(1/N) * the pairwise sum of the sequential extended-precision
    product x*x*...*x (k factors)."""
    base = np.asarray(sample, dtype=np.longdouble)
    powers = base.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k - 1):
            powers = powers * base
        return np.add.reduce(powers) / base.size


def _moment_l1_sum_one_order(sample, n_terms):
    """moment_l1_sum as its docstring states it, one order at a time: the
    sample scaled by 2**-e; u**k as u**(k-r) * u**r, with r the largest
    power of two below k for k <= 32 and r = 32 above; the pairwise mean
    shifted back by e*k, and the sum in order with the same stop rules."""
    amax = max(-sample[0], sample[-1])
    exponent = math.frexp(amax)[1]
    u = np.ldexp(sample, -exponent)
    powers = [None, u]  # powers[k] is u**k
    tail = 2 * amax / (1 - amax) if amax < 1 else math.inf
    total = 0.0
    with np.errstate(over="ignore"):
        for k in range(1, n_terms + 1):
            if k > 1:
                r = 1 << ((k - 1).bit_length() - 1) if k <= 32 else 32
                powers.append(powers[k - r] * powers[r])
            new = total + abs(float(np.ldexp(np.add.reduce(powers[k]) / u.size, exponent * k)))
            if not math.isfinite(new):
                return MomentSum(total, k)
            total = new
            tail *= amax
            if total + tail == total:
                break
    return MomentSum(total, None)


def _bits(value):
    return np.float64(value).tobytes()


@given(_ladder_samples, st.integers(1, 70))
@settings(max_examples=150, deadline=None)
# samples where one powl per value rounds the moment to another float64
@example(sample=[1.614, -1.426, -1.381], k=5)
@example(sample=[0.276, 0.161, -0.486], k=6)
def test_raw_moment_is_the_mean_of_the_sequential_product(sample, k):
    d = EmpiricalDistribution(sample)
    want = _sequential_mean(d.sample, k)
    if np.isfinite(want):
        assert _bits(d.raw_moment(k)) == _bits(want)
    else:
        with pytest.raises(SaturationError):
            d.raw_moment(k)


# the sequential product moves a moment by at most this many float64 ulps of
# the absolute moment mean(|x|**k) away from one powl per value; measured
# worst 0.98 ulp over 3000 Gaussian and t(3) samples at scales 1e-60..1e60,
# orders 1..40
POWL_BOUND_ULPS = 2


@given(st.lists(_unit, min_size=1, max_size=60), st.integers(-60, 60), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_raw_moment_stays_within_two_ulps_of_powl(sample, exponent, k):
    d = EmpiricalDistribution([x * 10.0**exponent for x in sample])
    base = d.sample.astype(np.longdouble)
    with np.errstate(over="ignore", under="ignore"):
        powl = float((base**k).mean())
        scale = float((np.abs(base) ** k).mean())
    assume(math.isfinite(scale) and scale > 0)
    assert abs(d.raw_moment(k) - powl) <= POWL_BOUND_ULPS * 2.0**-52 * scale


_moment_samples = {
    "gaussian_600": np.random.default_rng(4).normal(size=600) * 3.0,
    "t3_2000": np.random.default_rng(5).standard_t(3, 2000) * 1e-6,
    "inside_unit": np.random.default_rng(6).uniform(-0.9, 0.9, 50),
    "straddling": np.array([-1.5, -0.2, 0.1, 0.7, 1.25]),
    "tiny": np.random.default_rng(7).normal(size=40) * 1e-9,
}


@pytest.mark.parametrize("name", _moment_samples)
def test_the_moments_do_not_depend_on_which_query_ran_first(name):
    sample = _moment_samples[name]
    moments_first = EmpiricalDistribution(sample)
    raw = [moments_first.raw_moment(k) for k in range(1, 7)]
    l1 = moments_first.moment_l1_sum(300)
    ladder_first = EmpiricalDistribution(sample)
    assert ladder_first.moment_l1_sum(300) == l1 == _moment_l1_sum_one_order(
        ladder_first.sample, 300)
    _assert_close_to_the_long_double_loop(l1, ladder_first.sample, 300)
    assert [_bits(ladder_first.raw_moment(k)) for k in range(1, 7)] == list(map(_bits, raw))


@pytest.mark.parametrize("n_terms", [1, 31, 32, 33, 300])
@pytest.mark.parametrize("name", _moment_samples)
def test_the_ladder_crosses_block_edges(name, n_terms):
    sample = _moment_samples[name]
    want = _moment_l1_sum_one_order(np.sort(sample), n_terms)
    fresh = EmpiricalDistribution(sample)
    assert fresh.moment_l1_sum(n_terms) == want
    primed = EmpiricalDistribution(sample)
    primed.raw_moment(6)  # the extended-precision power sums already built
    assert primed.moment_l1_sum(n_terms) == want
    _assert_close_to_the_long_double_loop(want, fresh.sample, n_terms)


@pytest.mark.parametrize("n_terms", [1, 2, 5])
@pytest.mark.parametrize("name", _moment_samples)
def test_raw_moment_extends_a_ladder_that_stopped_before_its_order(name, n_terms):
    d = EmpiricalDistribution(_moment_samples[name])
    d.moment_l1_sum(n_terms)
    for k in (6, 33, 2):  # order 33 rebuilds the power sums that order 6 built; 2 reads them
        assert _bits(d.raw_moment(k)) == _bits(_sequential_mean(d.sample, k))


def test_sample_is_sorted_and_immutable():
    d = EmpiricalDistribution([3.0, 1.0, 2.0])
    assert np.array_equal(d.sample, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        d.sample[0] = 0.0


def test_rejects_bad_samples():
    with pytest.raises(ValueError):
        EmpiricalDistribution([])
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.0, float("nan")])
    with pytest.raises(ValueError):
        EmpiricalDistribution([[1.0, 2.0]])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       st.floats(-2e6, 2e6), st.floats(-2e6, 2e6))
@settings(max_examples=60, deadline=None)
def test_ecdf_is_monotone_and_bounded(sample, a, b):
    d = EmpiricalDistribution(sample)
    lo, hi = min(a, b), max(a, b)
    fa, fb = d.ecdf(lo), d.ecdf(hi)
    assert 0.0 <= fa <= fb <= 1.0


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=50),
       st.floats(0.01, 50))
@settings(max_examples=60, deadline=None)
def test_interval_mass_in_unit_range(sample, kappa):
    d = EmpiricalDistribution(sample)
    m = d.interval_mass(kappa)
    assert 0.0 <= m <= 1.0


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=40),
       st.integers(1, 6), st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_moment_homogeneity(sample, k, c):
    """Scaling the sample by c scales the k-th raw moment by c^k."""
    base = EmpiricalDistribution(sample)
    scaled = EmpiricalDistribution(np.asarray(sample) * c)
    want = base.raw_moment(k) * c**k
    # cancellation in near-zero odd moments needs the absolute escape hatch
    assert scaled.raw_moment(k) == pytest.approx(want, rel=1e-6, abs=c**k * 1e-9)
