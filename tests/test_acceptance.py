"""Acceptance gate: ten numbered criteria, one measured verdict line each.

Criterion 6's setting-separation clause fails by design of the protocol,
not by accident: with the noise variance estimated on the active set,
every stage of the pipeline (fit, predict, holdout error, resampling) is
scale equivariant in the targets, so the sliding window contracts at the
same multiplicative rate while the window fills as after, and its log
density trace is as straight as the sampling one (observed r2 gap about
0.003 against the required 0.1). The criterion is kept faithful and red
rather than weakened; everything it asserts is printed in its line.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from conftest import ACCEPTANCE_LINES
from loopsim.analytic import (
    AnalyticMap,
    apply_map,
    autonomy_check,
    envelope_step,
    gaussian_density,
    linear_sequence,
    moment_scaling_predict,
    operator_norm_lower_bound,
    power_sequence,
    transformed_support,
)
from loopsim.data import generate_linear
from loopsim.density import dkw_epsilon
from loopsim.diagnostics import autonomy_fit, breusch_pagan, normality_test
from loopsim.engine import SETTING_SAMPLING, SETTING_SLIDING, LoopConfig, run
from loopsim.harness import build_config, config_from_manifest, execute, sha256_file


def note(criterion: str, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def lin500():
    return generate_linear(500, 10, noise_variance=1.0, seed=42)


def timed_run(data, config):
    t0 = time.perf_counter()
    report = run(data, config)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def delta_run(lin500):
    """Reused by criteria 1 and 7."""
    return timed_run(lin500, LoopConfig(
        setting=SETTING_SAMPLING, total_steps=3000, usage_p=1.0,
        adherence_s=0.0, seed=7, repeats=5))


def test_criterion_01_delta_branch_concentrates(delta_run):
    report, seconds = delta_run
    psi_ratio = report.psi_trace[-1] / report.psi_trace[0]
    smallest_kappa = min(report.interval_masses)
    final_mass = report.interval_masses[smallest_kappa][-1]
    passed = psi_ratio > 5.0 and final_mass > 0.9 and seconds < 120.0
    note("1", passed,
         f"peak density ratio {psi_ratio:.1f} (need > 5), "
         f"final mass at kappa {smallest_kappa:.3f} = {final_mass:.3f} "
         f"(need > 0.9), {seconds:.1f}s (need < 120s)")
    assert psi_ratio > 5.0
    assert final_mass > 0.9
    assert seconds < 120.0


def test_criterion_02_amplifying_branch_flattens(lin500):
    report, seconds = timed_run(lin500, LoopConfig(
        setting=SETTING_SAMPLING, total_steps=3000, usage_p=1.0,
        adherence_s=3.0, seed=7, repeats=5))
    psi_ratio = report.psi_trace[-1] / report.psi_trace[0]
    largest_kappa = max(report.interval_masses)
    mass = report.interval_masses[largest_kappa]
    mass_ratio = mass[-1] / mass[0]
    passed = psi_ratio < 0.5 and mass_ratio < 0.5 and seconds < 120.0
    note("2", passed,
         f"peak density ratio {psi_ratio:.4f} (need < 0.5), "
         f"mass ratio at kappa {largest_kappa:.3f} = {mass_ratio:.4f} "
         f"(need < 0.5), {seconds:.1f}s (need < 120s)")
    assert psi_ratio < 0.5
    assert mass_ratio < 0.5
    assert seconds < 120.0


def test_criterion_03_neutral_mix_stays_put(lin500):
    report, _ = timed_run(lin500, LoopConfig(
        setting=SETTING_SAMPLING, total_steps=3000, usage_p=0.1,
        adherence_s=0.9, seed=7, repeats=5))
    psi_ratio = report.psi_trace[-1] / report.psi_trace[0]
    passed = 0.5 <= psi_ratio <= 2.0
    note("3", passed, f"peak density ratio {psi_ratio:.3f} (need in [0.5, 2])")
    assert 0.5 <= psi_ratio <= 2.0


def test_criterion_04_surface_is_monotone():
    from loopsim.engine import stddev_surface

    data = generate_linear(400, 10, noise_variance=1.0, seed=42)
    base = LoopConfig(setting=SETTING_SLIDING, total_steps=280, usage_p=1.0,
                      adherence_s=0.0, model="sgd", seed=7, repeats=3)
    t0 = time.perf_counter()
    surf = stddev_surface(data, (0.0, 0.25, 0.5, 0.75, 1.0),
                          (0.0, 0.75, 1.5, 2.25, 3.0), base, workers=4)
    seconds = time.perf_counter() - t0
    s_row = surf.mean[-1, :]      # usage 1, increasing adherence
    p_col = surf.mean[:, 0]       # adherence 0, increasing usage
    s_inversions = int(np.sum(np.diff(s_row) < 0))
    p_inversions = int(np.sum(np.diff(p_col) > 0))
    passed = (not surf.errors and s_inversions <= 1 and p_inversions <= 1
              and seconds < 600.0)
    note("4", passed,
         f"stddev rises with adherence ({s_inversions} inversions) and falls "
         f"with usage ({p_inversions} inversions), both within the 1 allowed; "
         f"{seconds:.1f}s (need < 600s)")
    assert surf.errors == {}
    assert s_inversions <= 1
    assert p_inversions <= 1
    assert seconds < 600.0


def test_criterion_05_moment_collapse_and_scaling(lin500):
    report, _ = timed_run(lin500, LoopConfig(
        setting=SETTING_SLIDING, total_steps=350, usage_p=1.0,
        adherence_s=0.0, seed=7, repeats=5))
    l1_ratio = report.moment_l1_trace[-1] / report.moment_l1_trace[0]

    amap = AnalyticMap(base=gaussian_density(0.0, 1.0), psi=power_sequence(1.1))
    double_factorial = {2: 1.0, 4: 3.0, 6: 15.0}
    worst_even_rel, worst_odd_abs = 0.0, 0.0
    for t in (1, 7, 25, 50):
        lo, hi = transformed_support(amap, t)
        for k in range(1, 7):
            value, _ = quad(lambda x: x**k * apply_map(amap, t, x), lo, hi,
                            epsabs=1e-14, epsrel=1e-12, limit=300, points=(0.0,))
            predicted = moment_scaling_predict(
                amap, k, t, double_factorial.get(k, 0.0))
            if k % 2 == 0:
                worst_even_rel = max(worst_even_rel,
                                     abs(value - predicted) / abs(predicted))
            else:
                worst_odd_abs = max(worst_odd_abs, abs(value - predicted))
    passed = (l1_ratio < 0.1 and worst_even_rel < 1e-6 and worst_odd_abs < 1e-9)
    note("5", passed,
         f"moment l1 ratio {l1_ratio:.2e} (need < 0.1); quadrature vs scaling "
         f"law: worst even rel {worst_even_rel:.1e} (need < 1e-6), worst odd "
         f"abs {worst_odd_abs:.1e} (need < 1e-9)")
    assert l1_ratio < 0.1
    assert worst_even_rel < 1e-6
    assert worst_odd_abs < 1e-9


def test_criterion_06_log_linear_envelope_separates_settings():
    data = generate_linear(2000, 10, noise_variance=1.0, seed=42)
    sampling, _ = timed_run(data, LoopConfig(
        setting=SETTING_SAMPLING, total_steps=3000, usage_p=1.0,
        adherence_s=3.0, seed=7, repeats=5))
    sliding, _ = timed_run(data, LoopConfig(
        setting=SETTING_SLIDING, total_steps=1400, usage_p=1.0,
        adherence_s=3.0, seed=7, repeats=5))
    fit_sampling = autonomy_fit(
        np.asarray(sampling.probe_steps, dtype=float), sampling.psi_trace)
    fit_sliding = autonomy_fit(
        np.asarray(sliding.probe_steps, dtype=float), sliding.psi_trace)
    gap = fit_sampling.r2 - fit_sliding.r2

    checks_ok = all(
        autonomy_check(power_sequence(a), horizon=50).autonomous
        for a in (0.5, 1.0, 2.0))
    rejects_linear = not autonomy_check(linear_sequence(), horizon=2).autonomous

    passed = (fit_sampling.r2 >= 0.9 and gap >= 0.1
              and checks_ok and rejects_linear)
    note("6", passed,
         f"sampling r2 {fit_sampling.r2:.4f} (need >= 0.9), sliding r2 "
         f"{fit_sliding.r2:.4f}, gap {gap:+.4f} (need >= +0.1: known faithful "
         f"failure, scale equivariance keeps both traces log-linear); "
         f"semigroup check accepts powers {checks_ok}, rejects linear "
         f"{rejects_linear}")
    assert fit_sampling.r2 >= 0.9
    assert checks_ok
    assert rejects_linear
    assert gap >= 0.1, (
        "setting-separation gap is structurally unattainable when the "
        "holdout variance is measured on the active set; kept red on purpose")


def test_criterion_07_residuals_lose_normality(delta_run):
    report, _ = delta_run
    pvalues = report.per_repeat["normality_p"]
    steps = np.asarray(report.probe_steps)
    final_third = steps >= steps[-1] - (steps[-1] - steps[0]) // 3
    initial_ok = int(np.sum(pvalues[:, 0] > 0.05))
    final_medians = np.median(pvalues[:, final_third], axis=1)
    final_reject = int(np.sum(final_medians < 0.05))
    repeats = pvalues.shape[0]
    passed = initial_ok >= 4 and final_reject >= 4
    note("7", passed,
         f"initial probe normal in {initial_ok}/{repeats} repeats (need >= 4), "
         f"final-third median p < 0.05 in {final_reject}/{repeats} (need >= 4)")
    assert initial_ok >= 4
    assert final_reject >= 4


def test_criterion_08_statistical_calibration():
    alpha, n, trials = 0.10, 500, 200
    eps = dkw_epsilon(alpha, n)
    rng = np.random.default_rng(2025)
    misses = 0
    for _ in range(trials):
        x = np.sort(rng.normal(size=n))
        cdf = stats.norm.cdf(x)
        i = np.arange(1, n + 1)
        distance = max(np.max(np.abs(cdf - i / n)),
                       np.max(np.abs(cdf - (i - 1) / n)))
        misses += distance > eps
    miss_rate = misses / trials
    miss_bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)

    rng = np.random.default_rng(2024)
    dp_rate = sum(normality_test(rng.normal(size=n))[1] < 0.05
                  for _ in range(trials)) / trials
    rng = np.random.default_rng(77)
    t_axis = np.arange(n, dtype=float)
    bp_rate = sum(breusch_pagan(rng.normal(size=n), t_axis) < 0.05
                  for _ in range(trials)) / trials

    passed = (miss_rate <= miss_bound
              and 0.01 <= dp_rate <= 0.10 and 0.01 <= bp_rate <= 0.10)
    note("8", passed,
         f"band miss rate {miss_rate:.3f} (need <= {miss_bound:.4f}); null "
         f"rejection rates: normality {dp_rate:.3f}, heteroscedasticity "
         f"{bp_rate:.3f} (both need in [0.01, 0.10])")
    assert miss_rate <= miss_bound
    assert 0.01 <= dp_rate <= 0.10
    assert 0.01 <= bp_rate <= 0.10


def test_criterion_09_operator_norm_hand_examples():
    doubling = operator_norm_lower_bound(
        envelope_step(2.0), (-1.0, 1.0), breakpoints=[-0.5, 0.0, 0.5])
    identity = operator_norm_lower_bound(lambda f: f, (-1.0, 1.0))
    halving = operator_norm_lower_bound(
        envelope_step(0.5), (-1.0, 1.0), breakpoints=[0.0])
    passed = (abs(doubling - 1.0) < 1e-6 and abs(identity - 1.0) < 1e-6
              and abs(halving - 0.5) < 1e-6)
    note("9", passed,
         f"doubling {doubling:.8f} (want 1), identity {identity:.8f} (want 1), "
         f"halving {halving:.8f} (want 0.5), all within 1e-6")
    assert doubling == pytest.approx(1.0, abs=1e-6)
    assert identity == pytest.approx(1.0, abs=1e-6)
    assert halving == pytest.approx(0.5, abs=1e-6)


def test_criterion_10_manifest_rerun_is_byte_identical(tmp_path):
    raw = {
        "experiment": "density_trace", "kind": "linear", "rows": "500",
        "cols": "10", "noise": "1.0", "data_seed": "42",
        "setting": "sampling", "usage": "0.1", "adherence": "0.9",
        "steps": "3000", "seed": "7", "repeats": "5",
        "out_dir": str(tmp_path / "first"),
    }
    first = execute(build_config(raw))
    rerun_config = dataclasses.replace(
        config_from_manifest(first.manifest_path),
        out_dir=str(tmp_path / "second"))
    second = execute(rerun_config)

    csv_names = sorted(p.name for p in first.out_dir.glob("*.csv"))
    mismatched = [
        name for name in csv_names
        if sha256_file(first.out_dir / name) != sha256_file(second.out_dir / name)
    ]
    passed = bool(csv_names) and not mismatched
    note("10", passed,
         f"rerun from manifest reproduced {len(csv_names)} csv file(s) "
         f"byte-identically: {', '.join(csv_names)}")
    assert csv_names
    assert mismatched == []
