"""Watching every moment die at once.

When the loop contracts, the k-th raw moment of the residuals scales as
psi_t^(-k): higher moments collapse faster, and the l1 sum over orders
crashes by hundreds of decades over a few hundred steps. The simulated
trace below is paired with the closed-form prediction, checked by the
trapezoid rule on the analytic map.
"""

import numpy as np

from loopsim import (
    AnalyticMap,
    LoopConfig,
    SETTING_SLIDING,
    apply_map,
    gaussian_density,
    generate_linear,
    moment_scaling_predict,
    power_sequence,
    run,
    transformed_support,
)

data = generate_linear(500, 10, noise_variance=1.0, seed=42)
report = run(data, LoopConfig(setting=SETTING_SLIDING, total_steps=350,
                              usage_p=1.0, adherence_s=0.0, seed=7, repeats=3))

print("simulated l1 moment sum (orders 1..300), sliding window:")
picks = [0, len(report.probe_steps) // 2, -1]
for i in picks:
    print(f"  step {report.probe_steps[i]:4d}   sum {report.moment_l1_trace[i]:.3e}")
ratio = report.moment_l1_trace[-1] / report.moment_l1_trace[0]
print(f"  final/initial ratio {ratio:.2e}")

amap = AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(1.1),
                   dimension=1)
print("\nanalytic check, psi_t = 1.1^t on a standard normal base:")
print(f"{'t':>4s} {'k':>3s} {'quadrature':>14s} {'scaling law':>14s}")
for t in (5, 25):
    x = np.linspace(*transformed_support(amap, t), 20001)
    for k in (2, 4, 6):
        y = x**k * apply_map(amap, t, x)
        # the trapezoid rule, written out: np.trapezoid needs numpy 2
        value = float(((y[1:] + y[:-1]) * np.diff(x)).sum() / 2)
        nu_k_0 = {2: 1.0, 4: 3.0, 6: 15.0}[k]
        predicted = moment_scaling_predict(amap, k, t, nu_k_0)
        print(f"{t:4d} {k:3d} {value:14.6e} {predicted:14.6e}")
