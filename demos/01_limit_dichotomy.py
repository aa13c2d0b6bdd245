"""Where does repeated retraining send the residual distribution?

One knob pair decides the fate of the feedback loop: how often model
predictions replace true targets (usage), and how much extra noise rides on
each accepted prediction (adherence). Depending on the mix, the residual
distribution either collapses to a point mass at zero, flattens out
toward zero density everywhere, or settles in between. This script runs
the same dataset through all three regimes and prints the peak density
and interval mass traces side by side.
"""

from loopsim import LoopConfig, SETTING_SAMPLING, generate_linear, run

data = generate_linear(500, 10, noise_variance=1.0, seed=42)

REGIMES = {
    "collapse  (usage 1.0, adherence 0.0)": (1.0, 0.0),
    "flatten   (usage 1.0, adherence 3.0)": (1.0, 3.0),
    "neutral   (usage 0.1, adherence 0.9)": (0.1, 0.9),
}

print(f"{'regime':45s} {'peak t=0':>10s} {'peak final':>12s} {'mass final':>12s}")
for label, (p, s) in REGIMES.items():
    report = run(data, LoopConfig(setting=SETTING_SAMPLING, total_steps=3000,
                                  usage_p=p, adherence_s=s, seed=7, repeats=3))
    smallest = min(report.interval_masses)
    print(f"{label:45s} {report.psi_trace[0]:10.3f} "
          f"{report.psi_trace[-1]:12.3f} "
          f"{report.interval_masses[smallest][-1]:12.3f}")

print()
print("collapse: peak density grows by orders of magnitude and nearly all")
print("mass sits inside the tightest interval around zero; flatten: the peak")
print("dies toward zero; neutral: the distribution barely moves.")
