"""Closed-form density maps: envelope algebra, weak limits, autonomy."""

import math

import numpy as np
import pytest
from scipy import integrate

from loopsim import analytic
from loopsim.analytic import (
    AUTONOMY_REL_TOL,
    AnalyticMap,
    DensityFn,
    PsiSequence,
    QuadratureError,
    apply_map,
    autonomy_check,
    envelope_norm,
    envelope_step,
    gaussian_density,
    linear_sequence,
    moment_scaling_predict,
    operator_norm_lower_bound,
    power_sequence,
    transformed_support,
    triangle_test_function,
    uniform_density,
    weak_limit_probe,
)

GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)


def gauss_map(a: float) -> AnalyticMap:
    return AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(a))


def test_apply_map_rescales_density():
    # psi * f0(psi * x): at the origin the value is psi * f0(0)
    amap = gauss_map(2.0)
    assert apply_map(amap, 3, 0.0) == pytest.approx(8.0 * GAUSS_PEAK, rel=1e-12)
    # and mass is preserved away from 0 consistently: f_t(x) = psi*f0(psi*x)
    x = 0.7
    want = 8.0 * math.exp(-0.5 * (8.0 * x) ** 2) * GAUSS_PEAK
    assert apply_map(amap, 3, x) == pytest.approx(want, rel=1e-12)


def test_apply_map_identity_sequence():
    amap = gauss_map(1.0)
    for t in (1, 5, 40):
        assert apply_map(amap, t, 0.3) == pytest.approx(
            GAUSS_PEAK * math.exp(-0.045), rel=1e-12)


def test_envelope_norm_stays_one():
    """The rescaling preserves total probability mass at every step."""
    for a in (0.5, 1.1, 3.0):
        amap = gauss_map(a)
        for t in (1, 4, 9):
            assert envelope_norm(amap, t) == pytest.approx(1.0, abs=1e-6)


def test_envelope_norm_uniform_base():
    amap = AnalyticMap(base=uniform_density(-1.0, 1.0), psi=power_sequence(2.0))
    assert envelope_norm(amap, 5) == pytest.approx(1.0, abs=1e-6)


def test_transformed_support_shrinks_with_growing_psi():
    amap = gauss_map(2.0)
    lo1, hi1 = transformed_support(amap, 1)
    lo3, hi3 = transformed_support(amap, 3)
    assert hi3 == pytest.approx(hi1 / 4.0)
    assert lo3 == pytest.approx(lo1 / 4.0)


def test_weak_limit_probe_concentration_branch():
    # growing psi drives all mass into any neighborhood of the origin
    amap = gauss_map(2.0)
    phi = triangle_test_function(half_width=0.05)
    vals = weak_limit_probe(amap, phi, [1, 5, 10])
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 0.95


def test_weak_limit_probe_escape_branch():
    # shrinking psi flattens the density; pairings against a compact bump die
    amap = gauss_map(0.5)
    phi = triangle_test_function(half_width=0.05)
    vals = weak_limit_probe(amap, phi, [1, 5, 10])
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05


def test_weak_limit_probe_disjoint_support_is_zero():
    amap = AnalyticMap(base=uniform_density(0.0, 1.0), psi=power_sequence(1.0))
    # a tent of half-width 0.5 centred at 10, far from the density's support
    phi = analytic.TestFunction(lambda x: np.maximum(0.0, 1.0 - np.abs(x - 10.0) / 0.5),
                                (9.5, 10.5))
    assert weak_limit_probe(amap, phi, [1])[0] == 0.0


def test_autonomy_check_accepts_power_sequences():
    for a in (0.5, 1.0, 2.0):
        res = autonomy_check(power_sequence(a), horizon=50)
        assert res.autonomous
        assert res.max_violation <= AUTONOMY_REL_TOL


def test_autonomy_check_rejects_linear_sequence():
    res = autonomy_check(linear_sequence(), horizon=2)
    assert not res.autonomous
    # worst pair at (1,1): |2 - 1*1| / 2 = 0.5
    assert res.worst_pair == (1, 1)
    assert res.max_violation == pytest.approx(0.5)


def test_autonomy_check_custom_borderline():
    # a^t times (1 + wobble) breaks multiplicativity by about the wobble:
    # it passes below AUTONOMY_REL_TOL and fails above it
    def wobbly(wobble):
        return PsiSequence(lambda t: 1.5**t * (1.0 + wobble))

    small = autonomy_check(wobbly(1e-12), horizon=10)
    assert small.autonomous
    assert small.max_violation == pytest.approx(1e-12, rel=1e-3)
    large = autonomy_check(wobbly(1e-6), horizon=10)
    assert not large.autonomous
    assert large.max_violation == pytest.approx(1e-6, rel=1e-3)


def test_autonomy_check_unpacks_like_a_pair():
    ok, violation, _ = autonomy_check(power_sequence(2.0), horizon=5)
    assert ok
    assert violation <= 1e-9


def test_autonomy_check_validates_horizon():
    with pytest.raises(ValueError):
        autonomy_check(power_sequence(1.0), horizon=1)


def test_psi_sequence_rejects_bad_queries():
    seq = power_sequence(2.0)
    with pytest.raises(ValueError):
        seq.at(0)
    with pytest.raises(ValueError):
        seq.at(-1)
    bad = PsiSequence(lambda t: 0.0)
    with pytest.raises(ValueError):
        bad.at(3)


def test_psi_sequence_names_a_value_past_the_float_range():
    with pytest.raises(ValueError, match=r"^sequence value at t=2000 .* got inf$"):
        power_sequence(2.0).at(2000)
    with pytest.raises(ValueError, match=r"^sequence value at t=400 .* got 0.0$"):
        power_sequence(0.001).at(400)


def test_moment_scaling_prediction_matches_quadrature():
    """Quadrature moments of the mapped density equal psi^(-k) * base moment."""
    amap = gauss_map(1.1)
    nu0 = {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0}
    for t in (1, 7, 25, 50):
        lo, hi = transformed_support(amap, t)
        for k in range(1, 7):
            pred = moment_scaling_predict(amap, k, t, nu0[k])
            got, _ = integrate.quad(lambda x, k=k: x**k * apply_map(amap, t, x),
                                    lo, hi, epsabs=1e-14, epsrel=1e-12,
                                    limit=300, points=(0.0,))
            if k % 2 == 0:
                assert abs(got - pred) / pred < 1e-6
            else:
                assert abs(got - pred) < 1e-9


def test_moment_scaling_decay_and_growth_direction():
    amap_up = gauss_map(1.5)    # growing psi: moments decay
    amap_down = gauss_map(0.8)  # shrinking psi: moments grow
    assert moment_scaling_predict(amap_up, 2, 10, 1.0) < 1.0
    assert moment_scaling_predict(amap_down, 2, 10, 1.0) > 1.0


def test_operator_norm_lower_bound_hand_examples():
    """Three frozen cases for the indicator-function bound."""
    # pure envelope rescale preserves mass: bound 1
    got = operator_norm_lower_bound(envelope_step(2.0), (-1.0, 1.0))
    assert got == pytest.approx(1.0, abs=1e-6)
    # identity transform: bound 1
    got = operator_norm_lower_bound(lambda f: f, (-0.5, 0.5))
    assert got == pytest.approx(1.0, abs=1e-6)
    # halving transform keeps half the mass on the interval
    got = operator_norm_lower_bound(lambda f: (lambda x: 0.5 * f(x)), (-1.0, 1.0))
    assert got == pytest.approx(0.5, abs=1e-6)


def test_operator_norm_lower_bound_validates_interval():
    with pytest.raises(ValueError):
        operator_norm_lower_bound(lambda f: f, (1.0, 1.0))
    with pytest.raises(ValueError):
        operator_norm_lower_bound(lambda f: f, (2.0, -2.0))


def test_density_fn_validates_support():
    with pytest.raises(ValueError):
        gaussian_density(0.0, 0.0)
    with pytest.raises(ValueError):
        uniform_density(2.0, 2.0)


def test_quadrature_error_surfaces():
    # non-integrable singularity: the quadrature must refuse rather than
    # fabricate a finite norm; the Gauss nodes never land on the breakpoint 0
    bad = DensityFn(evaluator=lambda x: 1.0 / np.abs(x), support_hint=(-1.0, 1.0))
    amap = AnalyticMap(base=bad, psi=power_sequence(1.0))
    with pytest.raises(QuadratureError):
        envelope_norm(amap, 1)


def test_envelope_norm_evaluates_the_density_once_per_refinement_level():
    """Each level passes the whole node array: 2 pieces (split at 0) x panels x 20 nodes."""
    base = gaussian_density(0.0, 1.0)
    sizes = []

    def evaluator(x):
        sizes.append(np.size(x))
        return base.evaluator(x)

    amap = AnalyticMap(base=DensityFn(evaluator, base.support_hint), psi=power_sequence(2.0))
    assert envelope_norm(amap, 3) == pytest.approx(1.0, abs=1e-6)
    assert len(sizes) >= 2
    assert sizes == [2 * 2**level * 20 for level in range(len(sizes))]


def _scipy_quad(fn, lo, hi, points) -> float:
    """The reference: scipy's adaptive quad, split at the points inside [lo, hi]."""
    inner = sorted(p for p in points if lo < p < hi) or None
    return integrate.quad(fn, lo, hi, points=inner, epsabs=1e-14, epsrel=1e-12, limit=300)[0]


@pytest.mark.parametrize("psi", [power_sequence(2.0), power_sequence(0.5), linear_sequence()],
                         ids=["power:2", "power:0.5", "linear"])
def test_the_gauss_legendre_rule_agrees_with_scipy_quad(psi):
    """On analytic_demo's defaults (variance 25, the tent of half-width 1),
    weak_limit_probe and envelope_norm equal scipy's quad within 1e-13."""
    amap = AnalyticMap(base=gaussian_density(0.0, 25.0), psi=psi)
    phi = triangle_test_function()
    t_list = (1, 2, 5, 10, 20, 50, 100)
    for t, weak in zip(t_list, weak_limit_probe(amap, phi, t_list)):
        f_lo, f_hi = transformed_support(amap, t)
        want = _scipy_quad(lambda x: apply_map(amap, t, x) * phi.evaluator(x),
                           max(f_lo, -1.0), min(f_hi, 1.0), (0.0, f_lo, f_hi))
        assert abs(weak - want) <= 1e-13, (t, weak, want)
        want = _scipy_quad(lambda x: apply_map(amap, t, x), f_lo, f_hi, (0.0,))
        assert abs(envelope_norm(amap, t) - want) <= 1e-13, (t, want)


def test_power_sequence_values():
    seq = power_sequence(2.0)
    assert seq.at(1) == 2.0
    assert seq.at(10) == 1024.0
    lin = linear_sequence()
    assert lin.at(7) == 7.0
