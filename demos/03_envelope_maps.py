"""Closed-form mirror of the simulated loop.

The simulator's density evolution has an exact analytic counterpart: a
scaling map f_t(x) = psi_t * f0(psi_t * x) driven by a positive sequence
psi_t. This script exercises that machinery directly, with no data and
no fitted models: mass conservation under the map, weak limits probed by
a bump test function, the semigroup property that makes the sequence
autonomous, and the moment scaling law.
"""

from loopsim import (
    AnalyticMap,
    autonomy_check,
    envelope_norm,
    gaussian_density,
    linear_sequence,
    moment_scaling_predict,
    power_sequence,
    triangle_test_function,
    weak_limit_probe,
)

grow = AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(1.2))
shrink = AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(0.8))

print("mass conservation: envelope_norm should be 1 at every t")
for t in (1, 5, 20):
    print(f"  t={t:2d}  grow {envelope_norm(grow, t):.9f}"
          f"  shrink {envelope_norm(shrink, t):.9f}")

bump = triangle_test_function(half_width=0.05)
t_list = [1, 5, 10, 20]
print("\nweak limit probe, mass captured by a narrow bump at the origin")
print("  psi growing  ->", [f"{v:.3f}" for v in weak_limit_probe(grow, bump, t_list)])
print("  psi shrinking->", [f"{v:.3f}" for v in weak_limit_probe(shrink, bump, t_list)])

print("\nautonomy: geometric sequences compose, psi_{a+b} = psi_a * psi_b")
for a in (0.5, 1.0, 2.0):
    ok, violation, _ = autonomy_check(power_sequence(a), horizon=50)
    print(f"  psi_t = {a}^t   autonomous={bool(ok)}  max violation {violation:.1e}")
ok, violation, pair = autonomy_check(linear_sequence(), horizon=2)
print(f"  psi_t = t     autonomous={bool(ok)}  violating pair {pair}")

print("\nmoment scaling: nu_k(t) = psi_t^(-k) * nu_k(0)")
nu4_0 = 3.0  # fourth raw moment of the standard normal
for t in (1, 10, 25):
    print(f"  t={t:2d}  predicted fourth moment "
          f"{moment_scaling_predict(grow, 4, t, nu4_0):.6e}")
