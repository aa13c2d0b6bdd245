"""Closed-form density maps: envelope algebra, weak limits, autonomy."""

import math

import pytest
from scipy import integrate

from loopsim.analytic import (
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
    return AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(a), dimension=1)


def test_apply_map_rescales_density():
    # psi^n * f0(psi * x): at the origin the value is psi * f0(0)
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
    amap = AnalyticMap(base=uniform_density(-1.0, 1.0),
                       psi=power_sequence(2.0), dimension=1)
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
    amap = AnalyticMap(base=uniform_density(0.0, 1.0),
                       psi=power_sequence(1.0), dimension=1)
    phi = triangle_test_function(half_width=0.5, center=10.0)
    assert weak_limit_probe(amap, phi, [1])[0] == 0.0


def test_autonomy_check_accepts_power_sequences():
    for a in (0.5, 1.0, 2.0):
        res = autonomy_check(power_sequence(a), horizon=50, rel_tol=1e-9)
        assert res.autonomous
        assert res.max_violation <= 1e-9


def test_autonomy_check_rejects_linear_sequence():
    res = autonomy_check(linear_sequence(), horizon=2, rel_tol=1e-9)
    assert not res.autonomous
    # worst pair at (1,1): |2 - 1*1| / 2 = 0.5
    assert res.worst_pair == (1, 1)
    assert res.max_violation == pytest.approx(0.5)


def test_autonomy_check_custom_borderline():
    # a*t fails; a^t with tiny wobble passes only within its tolerance
    wob = PsiSequence(lambda t: 1.5**t * (1.0 + 1e-12))
    assert autonomy_check(wob, horizon=10, rel_tol=1e-9).autonomous
    assert not autonomy_check(wob, horizon=10, rel_tol=1e-16).autonomous


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


def test_dimension_must_be_one_for_quadrature():
    amap = AnalyticMap(base=gaussian_density(0.0, 1.0),
                       psi=power_sequence(2.0), dimension=3)
    # pointwise algebra still works in any dimension
    assert apply_map(amap, 2, 0.0) == pytest.approx(4.0**3 * GAUSS_PEAK)
    with pytest.raises(ValueError):
        envelope_norm(amap, 2)


def test_quadrature_error_surfaces():
    # non-integrable singularity: the quadrature must refuse rather than
    # fabricate a finite norm
    bad = DensityFn(evaluator=lambda x: 1.0 / abs(x) if x != 0.0 else 1e300,
                    support_hint=(-1.0, 1.0))
    amap = AnalyticMap(base=bad, psi=power_sequence(1.0), dimension=1)
    with pytest.raises(QuadratureError):
        envelope_norm(amap, 1)


def test_power_sequence_values():
    seq = power_sequence(2.0)
    assert seq.at(1) == 2.0
    assert seq.at(10) == 1024.0
    lin = linear_sequence()
    assert lin.at(7) == 7.0
