"""Loop engine: config validation, protocol mechanics, determinism."""

import dataclasses
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopsim import engine
from loopsim.data import generate_linear
from loopsim.density import EmpiricalDistribution
from loopsim.engine import (
    SETTING_SAMPLING,
    SETTING_SLIDING,
    LoopComplete,
    LoopConfig,
    init_state,
    run,
    run_many,
    step,
)
from loopsim.regressors import TrainedModel, predict
from reference_loop import reference_repeat


def cfg(**kw):
    base = dict(setting=SETTING_SAMPLING, total_steps=100, usage_p=1.0,
                adherence_s=0.0, seed=0, repeats=2)
    base.update(kw)
    return LoopConfig(**base)


# -- config validation -------------------------------------------------

def test_config_rejects_bad_usage():
    with pytest.raises(ValueError):
        cfg(usage_p=1.5)
    with pytest.raises(ValueError):
        cfg(usage_p=-0.1)


def test_config_rejects_negative_adherence():
    with pytest.raises(ValueError):
        cfg(adherence_s=-1.0)


def test_config_rejects_nonpositive_steps_and_period():
    with pytest.raises(ValueError):
        cfg(total_steps=0)
    with pytest.raises(ValueError):
        cfg(retrain_period=0)


def test_config_fraction_bounds_are_open():
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            cfg(train_fraction=bad)
        with pytest.raises(ValueError):
            cfg(holdout_fraction=bad)
        with pytest.raises(ValueError):
            cfg(setting=SETTING_SLIDING, window_fraction=bad if bad == 0.0 else 1.5)


def test_config_rejects_unknown_setting_and_model():
    with pytest.raises(ValueError):
        cfg(setting="bleh")
    with pytest.raises(ValueError):
        cfg(model="forest")


def test_sampling_rejects_explicit_partial_window():
    with pytest.raises(ValueError):
        cfg(window_fraction=0.3)
    # full window is the sampling default and stays accepted
    assert cfg(window_fraction=1.0).resolved_window_fraction == 1.0
    assert cfg().resolved_window_fraction == 1.0


def test_sliding_defaults():
    c = cfg(setting=SETTING_SLIDING, total_steps=50)
    assert c.resolved_window_fraction == 0.3
    assert c.resolved_probe_every == 10
    assert cfg().resolved_probe_every == 100


def test_window_size_arithmetic():
    c = cfg(setting=SETTING_SLIDING, total_steps=10)
    assert c.window_size(2000) == 600
    assert c.window_size(10) == 3


# -- init --------------------------------------------------------------

def test_init_sliding_split_sizes():
    data = generate_linear(2000, 4, noise_variance=1.0, seed=0)
    c = cfg(setting=SETTING_SLIDING, total_steps=1400)
    st = init_state(data, c, np.random.default_rng(0))
    assert st.window_size == 600
    # the unconsumed reserve: the rows past the active set
    assert st.targets.size - st.window_size - st.step_t == 1400
    assert np.array_equal(st.active_rows(), np.arange(600))
    assert st.step_t == 0
    assert st.sigma2 >= 0.0


def test_init_sliding_tiny_dataset():
    # 2 training rows cannot support exact least squares, so penalize
    data = generate_linear(10, 2, noise_variance=1.0, seed=0)
    c = cfg(setting=SETTING_SLIDING, total_steps=7,
            model="ridge_regularized", regularization=0.1)
    st = init_state(data, c, np.random.default_rng(0))
    assert st.window_size == 3
    assert st.targets.size - st.window_size - st.step_t == 7


def test_init_sliding_rejects_overlong_run():
    data = generate_linear(100, 3, noise_variance=1.0, seed=0)
    with pytest.raises(ValueError):
        init_state(data, cfg(setting=SETTING_SLIDING, total_steps=71),
                     np.random.default_rng(0))


def test_init_sampling_full_set():
    data = generate_linear(120, 3, noise_variance=1.0, seed=1)
    st = init_state(data, cfg(), np.random.default_rng(0))
    assert st.window_size == 120
    assert np.array_equal(st.targets, data.targets)
    # the engine works on a copy: stepping must not mutate the input
    st.targets[0] += 1.0
    assert st.targets[0] != data.targets[0]


def test_init_state_dispatches_on_setting():
    data = generate_linear(60, 3, noise_variance=1.0, seed=1)
    a = init_state(data, cfg(), np.random.default_rng(5))
    b = init_state(data, cfg(setting=SETTING_SLIDING, total_steps=30),
                   np.random.default_rng(5))
    assert a.window_size == 60
    assert b.window_size == 18


def test_init_state_sampling_keeps_identity_order_and_draws_nothing():
    # two rows are enough for a sampling run; only the first fit uses the rng
    data = generate_linear(2, 1, noise_variance=1.0, seed=1)
    c = cfg(model="ridge_regularized")
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    st = init_state(data, c, rng)
    assert np.array_equal(st.item_indices, [0, 1])
    # the active set is every row, so no reserve is left
    assert np.array_equal(st.active_rows(), [0, 1])
    assert st.targets.size - st.window_size == 0
    ref.permutation(2)  # the retrain split
    assert rng.random() == ref.random()


def test_init_state_sliding_keeps_its_checks():
    with pytest.raises(ValueError, match="at least 10 rows"):
        init_state(generate_linear(9, 2, noise_variance=1.0, seed=0),
                   cfg(setting=SETTING_SLIDING, total_steps=1), np.random.default_rng(0))
    with pytest.raises(ValueError, match="window of 2 items"):
        init_state(generate_linear(20, 2, noise_variance=1.0, seed=0),
                   cfg(setting=SETTING_SLIDING, total_steps=1, window_fraction=0.1),
                   np.random.default_rng(0))
    with pytest.raises(ValueError, match="exceeds the reserve of 70 items"):
        init_state(generate_linear(100, 3, noise_variance=1.0, seed=0),
                   cfg(setting=SETTING_SLIDING, total_steps=71), np.random.default_rng(0))


def test_check_rows_owns_the_row_rules():
    sliding = cfg(setting=SETTING_SLIDING, total_steps=1)
    assert sliding.check_rows(100) == 30
    with pytest.raises(ValueError, match="at least 10 rows, got 9"):
        sliding.check_rows(9)
    # a window of 18 runs, but cannot be probed
    assert sliding.check_rows(60) == 18
    with pytest.raises(ValueError, match="at least 20 items, got 18"):
        sliding.check_rows(60, probed=True)
    assert cfg().check_rows(20, probed=True) == 20
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        cfg().check_rows(1)


def test_init_deterministic_given_rng_seed():
    data = generate_linear(80, 3, noise_variance=1.0, seed=2)
    c = cfg(setting=SETTING_SLIDING, total_steps=40)
    a = init_state(data, c, np.random.default_rng(42))
    b = init_state(data, c, np.random.default_rng(42))
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.model.weights, b.model.weights)


# -- stepping ----------------------------------------------------------

def test_step_zero_adherence_copies_prediction():
    data = generate_linear(60, 3, noise_variance=1.0, seed=3)
    c = cfg(total_steps=5, usage_p=1.0, adherence_s=0.0)
    st = init_state(data, c, np.random.default_rng(1))
    tr = step(st, c)
    assert tr.z_sampled == tr.y_pred
    assert tr.used_prediction
    assert tr.residual == tr.y_true - tr.y_pred
    assert st.step_t == 1
    # the drawn slot now holds the model's own prediction
    assert st.targets[tr.item_index] == tr.y_pred


def test_step_zero_usage_never_replaces():
    data = generate_linear(60, 3, noise_variance=1.0, seed=4)
    c = cfg(total_steps=50, usage_p=0.0, adherence_s=2.0)
    st = init_state(data, c, np.random.default_rng(2))
    before = st.targets.copy()
    for _ in range(50):
        tr = step(st, c)
        assert not tr.used_prediction
    assert np.array_equal(st.targets, before)


def test_step_sliding_consumes_reserve_and_signals_completion():
    data = generate_linear(20, 3, noise_variance=1.0, seed=5)
    c = cfg(setting=SETTING_SLIDING, total_steps=14)
    st = init_state(data, c, np.random.default_rng(3))
    for _ in range(14):
        step(st, c)
    assert st.targets.size - st.window_size - st.step_t == 0
    with pytest.raises(LoopComplete):
        step(st, c)


def test_step_sliding_keeps_window_size_constant():
    data = generate_linear(40, 3, noise_variance=1.0, seed=6)
    c = cfg(setting=SETTING_SLIDING, total_steps=28)
    st = init_state(data, c, np.random.default_rng(4))
    w = st.window_size
    for _ in range(28):
        step(st, c)
        assert st.window_size == w


def test_retrain_cadence():
    data = generate_linear(60, 3, noise_variance=1.0, seed=7)
    c = cfg(total_steps=40, retrain_period=10)
    st = init_state(data, c, np.random.default_rng(5))
    refits = []
    for _ in range(40):
        before = st.model
        step(st, c)
        if st.model is not before:
            refits.append(st.step_t)
    # the model is replaced exactly when step_t is a multiple of T
    assert refits == [10, 20, 30, 40]


def test_used_prediction_frequency_band():
    data = generate_linear(200, 3, noise_variance=1.0, seed=8)
    p = 0.3
    c = cfg(total_steps=2000, usage_p=p, adherence_s=1.0)
    st = init_state(data, c, np.random.default_rng(6))
    used = sum(step(st, c).used_prediction for _ in range(2000))
    frac = used / 2000
    band = 4.0 * np.sqrt(p * (1 - p) / 2000)
    assert abs(frac - p) <= band


# -- full runs ---------------------------------------------------------

def test_run_probe_bookkeeping():
    data = generate_linear(60, 3, noise_variance=1.0, seed=9)
    rep = run(data, cfg(total_steps=1, repeats=2), probes=(0, 1))
    assert rep.probe_steps == [0, 1]
    assert rep.psi_trace.shape == (2,)
    assert rep.repeats_aggregated == 2
    assert set(rep.per_repeat["psi"].shape) == {2}


def test_run_default_probe_schedule_includes_endpoints():
    data = generate_linear(60, 3, noise_variance=1.0, seed=9)
    rep = run(data, cfg(total_steps=250, repeats=1))
    assert rep.probe_steps[0] == 0
    assert rep.probe_steps[-1] == 250
    assert rep.probe_steps == sorted(rep.probe_steps)


def test_run_rejects_probes_outside_budget():
    data = generate_linear(60, 3, noise_variance=1.0, seed=9)
    with pytest.raises(ValueError):
        run(data, cfg(total_steps=10, repeats=1), probes=(0, 11))


def test_run_is_deterministic_and_worker_independent():
    data = generate_linear(100, 4, noise_variance=1.0, seed=10)
    c = cfg(total_steps=300, usage_p=0.7, adherence_s=1.2, repeats=3, seed=123)
    a = run(data, c, workers=1)
    b = run(data, c, workers=3)
    assert np.array_equal(a.psi_trace, b.psi_trace)
    assert np.array_equal(a.stddev_trace, b.stddev_trace)
    for k in a.per_repeat:
        assert np.array_equal(a.per_repeat[k], b.per_repeat[k],
                              equal_nan=True), k


def test_run_seed_changes_results():
    data = generate_linear(100, 4, noise_variance=1.0, seed=10)
    a = run(data, cfg(total_steps=200, adherence_s=1.0, seed=1, repeats=2))
    b = run(data, cfg(total_steps=200, adherence_s=1.0, seed=2, repeats=2))
    assert not np.array_equal(a.psi_trace, b.psi_trace)


def test_run_positive_loop_contracts_residuals():
    data = generate_linear(150, 4, noise_variance=1.0, seed=11)
    rep = run(data, cfg(total_steps=1500, usage_p=1.0, adherence_s=0.0,
                        repeats=3, seed=5))
    # delta-branch direction: final mean |residual| below the initial one
    assert rep.stddev_trace[-1] < rep.stddev_trace[0]
    assert rep.psi_trace[-1] > rep.psi_trace[0]


def test_run_amplifying_loop_grows_variance():
    data = generate_linear(150, 4, noise_variance=1.0, seed=11)
    rep = run(data, cfg(total_steps=1500, usage_p=1.0, adherence_s=3.0,
                        repeats=3, seed=5))
    assert rep.stddev_trace[-1] > rep.stddev_trace[0]
    assert rep.psi_trace[-1] < rep.psi_trace[0]


def test_run_records_masses_and_moments():
    data = generate_linear(80, 3, noise_variance=1.0, seed=12)
    rep = run(data, cfg(total_steps=100, repeats=2))
    assert len(rep.kappa_list) == 4
    for kappa, series in rep.interval_masses.items():
        assert kappa in rep.kappa_list
        finite = series[np.isfinite(series)]
        assert np.all((finite >= 0.0) & (finite <= 1.0))
    for k in range(1, 7):
        assert k in rep.moment_traces
    assert rep.moment_l1_trace.shape == rep.psi_trace.shape


@pytest.mark.parametrize("model", ["ridge_exact", "sgd"])
def test_a_diverged_lane_names_its_non_finite_targets_without_a_warning(model):
    # adherence 1e6 on every retrain overflows the window's targets; the
    # healthy config shares the diverged lane's lockstep task
    data = generate_linear(200, 3, noise_variance=1.0, seed=42)
    diverged = cfg(setting=SETTING_SLIDING, total_steps=140, adherence_s=1e6,
                   retrain_period=1, model=model, seed=703, repeats=1)
    healthy = dataclasses.replace(diverged, adherence_s=1.0, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failed, report = run_many(data, [diverged, healthy], None, [1.0])
        (alone,) = run_many(data, [healthy], None, [1.0])
    assert isinstance(failed, ValueError)
    assert str(failed) == "repeat 0, step 94: training targets are not finite"
    for name in alone.per_repeat:
        assert np.array_equal(report.per_repeat[name], alone.per_repeat[name], equal_nan=True)
    assert report.step_traces.tobytes() == alone.step_traces.tobytes()


def test_run_many_refuses_kappas_that_share_a_mass_column():
    data = generate_linear(60, 3, noise_variance=1.0, seed=1)
    with pytest.raises(ValueError, match=r"share the trace columns \['mass@0\.5'\]"):
        run_many(data, [cfg(total_steps=10)], None, [0.5, 0.50000000001])


def test_run_normality_pvalues_present_for_large_windows():
    data = generate_linear(100, 3, noise_variance=1.0, seed=13)
    rep = run(data, cfg(total_steps=100, repeats=2, adherence_s=1.0))
    pvalues = rep.mean("normality_p")
    assert np.all(np.isfinite(pvalues))
    assert np.all((pvalues >= 0) & (pvalues <= 1))


def test_run_keeps_probing_past_two_to_the_53():
    # a diverging sampling loop whose residuals pass 2**53 near step 7500,
    # where lo - 1.0 == lo: the probe's ECDF check must step below lo by one ulp
    data = generate_linear(200, 10, noise_variance=1.0, seed=42)
    rep = run(data, cfg(total_steps=9000, adherence_s=3.0, retrain_period=5, seed=7, repeats=1))
    stddev = rep.per_repeat["stddev"][0]
    assert np.all(np.isfinite(stddev))
    assert stddev[-1] > 2.0**53
    assert np.all(np.isfinite(rep.per_repeat["moment_l1"][0]))
    assert rep.per_repeat["moment_l1_truncated"][0][-1] == 1.0


def test_run_many_matches_run_per_config_at_any_worker_count():
    data = generate_linear(80, 3, noise_variance=1.0, seed=15)
    configs = [cfg(total_steps=60, adherence_s=0.5, repeats=2, seed=4),
               cfg(total_steps=60, adherence_s=2.0, repeats=3, seed=4)]
    kappas = [0.1, 0.2]
    serial = run_many(data, configs, None, kappas, workers=1)
    pooled = run_many(data, configs, None, kappas, workers=2)
    for config, a, b in zip(configs, serial, pooled):
        alone = run(data, config, kappa_list=kappas)
        assert a.repeats_aggregated == config.repeats
        for name in alone.per_repeat:
            assert np.array_equal(a.per_repeat[name], alone.per_repeat[name], equal_nan=True)
            assert np.array_equal(b.per_repeat[name], alone.per_repeat[name], equal_nan=True)


def test_run_many_returns_a_failed_config_as_its_exception():
    # adherence 1e6 on every retrain overflows the targets of the first
    # config's lanes; the second config shares their lockstep group and still reports
    data = generate_linear(200, 3, noise_variance=1.0, seed=42)
    bad = cfg(setting=SETTING_SLIDING, total_steps=140, adherence_s=1e6, retrain_period=1,
              seed=703, repeats=2)
    good = dataclasses.replace(bad, adherence_s=1.0, repeats=1)
    reports = run_many(data, [bad, good], (), [0.1], workers=2)
    assert isinstance(reports[0], ValueError)
    assert str(reports[0]) == "repeat 0, step 94: training targets are not finite"
    assert reports[1].repeats_aggregated == 1
    with pytest.raises(ValueError, match="training targets are not finite"):
        run(data, bad, probes=(), kappa_list=[0.1])


def _refuse(*args, **kwargs):
    raise AssertionError("no lane may run")


def test_run_many_refuses_a_too_small_active_set_before_any_lane_runs(monkeypatch):
    data = generate_linear(60, 3, noise_variance=1.0, seed=23)
    small = cfg(setting=SETTING_SLIDING, total_steps=5, repeats=1)
    monkeypatch.setattr(engine, "_run_lanes", _refuse)
    with pytest.raises(ValueError, match="at least 20 items, got 18"):
        run_many(data, [small, dataclasses.replace(small, usage_p=0.5)], (), [0.1])
    with pytest.raises(ValueError, match="at least 20 items, got 18"):
        engine.stddev_surface(data, (0.0, 1.0), (0.0,), small)


def test_run_many_refuses_configs_of_two_lockstep_groups_before_any_lane_runs(monkeypatch):
    data = generate_linear(80, 3, noise_variance=1.0, seed=23)
    a = cfg(total_steps=20, repeats=1)
    monkeypatch.setattr(engine, "_run_lanes", _refuse)
    assert run_many(data, [], (), [0.1]) == []
    with pytest.raises(ValueError, match=r"not in \['retrain_period'\]"):
        run_many(data, [a, dataclasses.replace(a, usage_p=0.5, retrain_period=5)], (), [0.1])
    with pytest.raises(ValueError, match=r"not in \['model', 'total_steps'\]"):
        run_many(data, [a, dataclasses.replace(a, total_steps=30),
                        dataclasses.replace(a, model="sgd", seed=4)], (), [0.1])


def _sgd_cells():
    """Three SGD sliding configs that share one lockstep task."""
    data = generate_linear(120, 3, noise_variance=1.0, seed=16)
    base = cfg(setting=SETTING_SLIDING, total_steps=60, model="sgd", sgd_iterations=8,
               retrain_period=5, probe_every=10, repeats=2)
    cells = ((1.0, 0.0, 5), (0.5, 2.0, 5), (0.8, 1.0, 6))
    return data, [dataclasses.replace(base, usage_p=p, adherence_s=s, seed=seed)
                  for p, s, seed in cells]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_many_sgd_lanes_equal_a_hand_written_loop(workers):
    data, configs = _sgd_cells()
    reports = run_many(data, configs, None, [0.1], workers=workers)
    for config, report in zip(configs, reports):
        children = np.random.SeedSequence(config.seed).spawn(config.repeats)
        for repeat, child in enumerate(children):
            state = init_state(data, config, np.random.default_rng(child))
            stddev = [np.std(state.residuals())]
            for t in range(1, config.total_steps + 1):
                step(state, config)
                if t % 10 == 0:
                    stddev.append(np.std(state.residuals()))
            assert report.per_repeat["stddev"][repeat].tobytes() == np.array(stddev).tobytes()


@st.composite
def _lockstep_groups(draw):
    """(data, configs, probes, kappas, stats): a small lockstep group of up
    to three configs, on either setting and every model; kappas None asks
    for the default ones."""
    setting = draw(st.sampled_from([SETTING_SAMPLING, SETTING_SLIDING]))
    model = draw(st.sampled_from(["ridge_exact", "ridge_regularized", "sgd"]))
    m = draw(st.integers(70, 300) if setting == SETTING_SLIDING else st.integers(20, 300))
    data = generate_linear(m, draw(st.integers(1, 5)), noise_variance=1.0,
                           seed=draw(st.integers(0, 2**16)))
    reserve = m - 3 * m // 10 if setting == SETTING_SLIDING else 150  # past a 0.3 window
    steps = draw(st.integers(1, min(150, reserve)))
    base = cfg(setting=setting, model=model, total_steps=steps,
               retrain_period=draw(st.integers(3, 40)), sgd_iterations=draw(st.integers(1, 3)),
               regularization=draw(st.sampled_from([0.5, 3.0])))
    cells = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 3), st.integers(0, 99),
                                    st.integers(1, 2)), min_size=1, max_size=3))
    configs = [dataclasses.replace(base, usage_p=p, adherence_s=s, seed=seed, repeats=repeats)
               for p, s, seed, repeats in cells]
    probes = draw(st.none() | st.lists(st.integers(0, steps), max_size=6))
    kappas = draw(st.none()
                  | st.lists(st.sampled_from([0.1, 0.5, 2.0]), unique=True, max_size=2))
    stats = tuple(draw(st.sets(st.sampled_from(engine.ALL_STATS))))
    return data, configs, probes, kappas, stats


@given(_lockstep_groups(), st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_run_many_equals_the_reference_loop_bit_for_bit(group, workers):
    data, configs, probes, kappas, stats = group
    reports = run_many(data, configs, probes, kappas, stats=stats, workers=workers)
    probe_steps = engine.resolve_probes(configs[0], probes)
    if kappas is None:
        # fractions of the step-0 spread of configs[0]'s repeat 0; that state
        # does not depend on total_steps, so one step stands for the repeat
        first = np.random.SeedSequence(configs[0].seed).spawn(1)[0]
        try:
            columns, _ = reference_repeat(data, dataclasses.replace(configs[0], total_steps=1),
                                          first, [0], [], ())
            sd0 = columns["stddev"][0]
        except Exception:
            sd0 = math.nan
        scale = sd0 if 0 < sd0 < math.inf else 1.0
        kappas = [f * scale for f in engine.DEFAULT_KAPPA_FRACTIONS]
    for config, report in zip(configs, reports):
        children = np.random.SeedSequence(config.seed).spawn(config.repeats)
        expected = []
        for repeat, child in enumerate(children):
            try:
                expected.append(reference_repeat(data, config, child, probe_steps, kappas, stats))
            except Exception as exc:
                # the report is the first failed repeat's exception, named
                assert isinstance(report, type(exc))
                assert str(report).startswith(f"repeat {repeat}, step ")
                assert str(report).endswith(f": {exc}")
                break
        else:
            assert report.kappa_list == kappas
            spikes = sum(columns.pop("spike") for columns, _ in expected)
            assert report.spike_counts.tobytes() == spikes.tobytes()
            for repeat, (columns, record) in enumerate(expected):
                assert set(report.per_repeat) == set(columns)
                for name, values in columns.items():
                    assert report.per_repeat[name][repeat].tobytes() == values.tobytes(), name
                assert report.step_traces[repeat].tobytes() == record.tobytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched engine only when forked")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sgd_lane_leaves_its_chunk_mates_alone(workers, monkeypatch):
    data, configs = _sgd_cells()
    solo = run(data, configs[0], kappa_list=[0.1])
    # the SGD seed of the first fit of configs[2], repeat 1: its rng first
    # permutes the rows, then draws the retrain split, then the seed
    rng = np.random.default_rng(np.random.SeedSequence(configs[2].seed).spawn(2)[1])
    rng.permutation(data.n_rows)
    rng.permutation(36)
    poisoned = int(rng.integers(0, 2**63 - 1))
    real_step, real_fit_sgd = engine.step, engine.fit_sgd

    def flaky_step(state, config, retrain=True):
        if config.adherence_s == 2.0 and state.step_t == 32:
            raise FloatingPointError("boom")
        return real_step(state, config, retrain)

    def broken_batch(*args, **kwargs):
        raise MemoryError("no batch today")

    def flaky_fit_sgd(features, targets, max_iterations, seed):
        if seed == poisoned:
            raise ArithmeticError("bad lane")
        return real_fit_sgd(features, targets, max_iterations, seed)

    monkeypatch.setattr(engine, "step", flaky_step)
    monkeypatch.setattr(engine, "fit_sgd_lanes", broken_batch)
    monkeypatch.setattr(engine, "fit_sgd", flaky_fit_sgd)
    reports = run_many(data, configs, None, [0.1], workers=workers)
    assert isinstance(reports[1], FloatingPointError)
    assert str(reports[1]) == "repeat 0, step 33: boom"
    assert isinstance(reports[2], ArithmeticError)
    assert str(reports[2]) == "repeat 1, step 0: bad lane"
    # the lanes fitted alone after the batch failed report what a solo run does
    for name in solo.per_repeat:
        assert np.array_equal(reports[0].per_repeat[name], solo.per_repeat[name],
                              equal_nan=True), name


@pytest.mark.parametrize("setting", [SETTING_SAMPLING, SETTING_SLIDING])
def test_each_step_predicts_the_bits_of_predict_on_its_row(setting):
    data = generate_linear(300, 10, noise_variance=1.0, seed=24)
    config = cfg(setting=setting, total_steps=200, usage_p=0.6, adherence_s=1.5,
                 retrain_period=7)
    state = init_state(data, config, np.random.default_rng(5))
    retrains = 0
    for _ in range(config.total_steps):
        model = state.model
        record = step(state, config)
        retrains += state.model is not model
        x = data.features[record.item_index]
        assert np.float64(record.y_pred).tobytes() == predict(model, x[None])[0].tobytes()
    assert retrains == config.total_steps // config.retrain_period


def _many_lanes():
    """Configs of one lockstep group with 8 lanes in all: more lanes than
    workers at workers 2 and 3."""
    data = generate_linear(200, 4, noise_variance=1.0, seed=25)
    a = cfg(total_steps=80, usage_p=0.5, adherence_s=1.5, retrain_period=10, probe_every=20,
            repeats=1, seed=3)
    b = dataclasses.replace(a, usage_p=0.9, repeats=3, seed=4)
    c = dataclasses.replace(a, adherence_s=0.5, repeats=4, seed=5)
    return data, [a, b, c]


def _report_bytes(report):
    return ({name: values.tobytes() for name, values in report.per_repeat.items()},
            report.step_traces.tobytes())


def test_run_many_keeps_its_bits_when_the_parent_runs_a_share_of_the_tasks():
    data, configs = _many_lanes()
    reports = {workers: run_many(data, configs, None, [0.1, 0.3], workers=workers)
               for workers in (1, 2, 3)}
    for serial, two, three in zip(reports[1], reports[2], reports[3]):
        assert _report_bytes(two) == _report_bytes(serial)
        assert _report_bytes(three) == _report_bytes(serial)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched engine only when forked")
def test_a_lane_failing_in_the_parents_share_is_named_and_leaves_its_chunk_mates_alone(
        monkeypatch):
    # at workers=2 the parent runs task 0, the first four of the 8 lanes:
    # repeat 0 of configs[0] and repeats 0-2 of configs[1]
    data, configs = _many_lanes()
    serial = run_many(data, configs, None, [0.1])
    parent, real_step, failed = os.getpid(), engine.step, []

    def flaky_step(state, config, retrain=True):
        if os.getpid() == parent and state.step_t == 41 and not failed:
            failed.append(config)
            raise FloatingPointError("boom")
        return real_step(state, config, retrain)

    monkeypatch.setattr(engine, "step", flaky_step)
    reports = run_many(data, configs, None, [0.1], workers=2)
    assert failed == [configs[0]]
    assert isinstance(reports[0], FloatingPointError)
    assert str(reports[0]) == "repeat 0, step 42: boom"
    assert _report_bytes(reports[1]) == _report_bytes(serial[1])
    assert _report_bytes(reports[2]) == _report_bytes(serial[2])
    assert multiprocessing.active_children() == []


def test_a_lane_failing_at_a_probe_is_named_and_leaves_its_chunk_mates_alone(monkeypatch):
    # repeat 1 of configs[1] is lane 2 of 8: the parent's task at workers 2
    data, configs = _many_lanes()
    serial = run_many(data, configs, None, [0.1])
    real_observe = engine._observe

    def flaky_observe(state, i, res, masses, stats):
        seq = state.rng.bit_generator.seed_seq
        if (seq.entropy, seq.spawn_key, state.step_t) == (configs[1].seed, (1,), 40):
            raise FloatingPointError("boom")
        return real_observe(state, i, res, masses, stats)

    monkeypatch.setattr(engine, "_observe", flaky_observe)
    for workers in (1, 2):
        reports = run_many(data, configs, None, [0.1], workers=workers)
        assert isinstance(reports[1], FloatingPointError)
        assert str(reports[1]) == "repeat 1, step 40: boom"
        assert _report_bytes(reports[0]) == _report_bytes(serial[0])
        assert _report_bytes(reports[2]) == _report_bytes(serial[2])
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched engine only when forked")
def test_a_raising_parent_share_leaves_no_pool_process_behind(monkeypatch):
    data, configs = _many_lanes()
    parent, real_refit = os.getpid(), engine._refit

    def refit_outside_the_pool(states, config):
        if os.getpid() == parent:
            raise MemoryError("no refit in the parent")
        return real_refit(states, config)

    monkeypatch.setattr(engine, "_refit", refit_outside_the_pool)
    with pytest.raises(MemoryError, match="no refit in the parent"):
        run_many(data, configs, None, [0.1], workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, repeats, pools", [(1, 8, []), (2, 8, [1]), (3, 8, [2]),
                                                      (4, 3, [2])])
def test_run_many_forks_one_process_per_task_but_the_parents(workers, repeats, pools,
                                                             monkeypatch):
    from concurrent import futures

    data, (config, *_) = _many_lanes()
    sizes, real_pool = [], futures.ProcessPoolExecutor

    class RecordingPool(real_pool):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    (report,) = run_many(data, [dataclasses.replace(config, repeats=repeats)], (), [0.1],
                         workers=workers)
    assert report.repeats_aggregated == repeats
    assert sizes == pools
    assert multiprocessing.active_children() == []


def _fresh_interpreter(script: str) -> str:
    """The standard output of script, run by a new interpreter on this loopsim."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("model, call", [
    ("ridge_exact", "stddev_surface(data, [0, 1], [1.0], config, workers=2)"),
    ("ridge_exact", "run(data, config, kappa_list=[0.1], workers=2)"),
    ("sgd", "stddev_surface(data, [0, 1], [1.0], config, workers=2)"),
], ids=["ridge-surface", "ridge-run-all-stats", "sgd-surface"])
def test_the_pool_forks_with_exactly_the_scipy_modules_its_lanes_call(model, call):
    """In a fresh interpreter, the scipy modules loaded when run_many builds
    its pool, and after the run: the lanes call numpy only, so none."""
    script = (
        "import sys\n"
        "from concurrent import futures\n"
        "from loopsim.data import generate_linear\n"
        "from loopsim.engine import LoopConfig, run, stddev_surface\n"
        "seen = []\n"
        "class RecordingPool(futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append([m for m in sys.modules if m.startswith('scipy')])\n"
        "        super().__init__(*args, **kwargs)\n"
        "futures.ProcessPoolExecutor = RecordingPool\n"
        "data = generate_linear(200, 4, noise_variance=1.0, seed=25)\n"
        "config = LoopConfig(setting='sampling_update', total_steps=20, usage_p=0.5,\n"
        f"                    adherence_s=1.0, seed=3, repeats=2, model={model!r})\n"
        f"{call}\n"
        "seen.append([m for m in sys.modules if m.startswith('scipy')])\n"
        "print(seen)\n"
    )
    assert _fresh_interpreter(script) == "[[], []]\n"


@pytest.mark.parametrize("seed", range(8))
def test_an_exactly_collinear_design_fails_at_the_first_fit_on_every_seed(seed):
    data = generate_linear(200, 3, noise_variance=1.0, seed=seed)
    features = data.features.copy()
    features[:, 2] = features[:, 1]
    collinear = dataclasses.replace(data, features=features)
    with pytest.raises(ValueError) as caught:
        run(collinear, cfg(total_steps=30, repeats=1, seed=seed))
    assert str(caught.value) == ("repeat 0, step 0: normal matrix is singular at "
                                 "regularization 0: centered feature rank 2 < 3 columns")

def test_replace_config():
    c = cfg(total_steps=100)
    d = dataclasses.replace(c, total_steps=50, adherence_s=2.0)
    assert d.total_steps == 50
    assert d.adherence_s == 2.0
    assert d.setting == c.setting
    # the copy is validated like a fresh config
    with pytest.raises(ValueError, match="usage_p"):
        dataclasses.replace(c, usage_p=1.5)


# -- probes at float extremes ------------------------------------------

def _probe(resid) -> dict:
    """One _observe call with every statistic on a fixed residual sample: its
    statistics by name."""
    masses = [("mass@1", 1.0)]
    names = ["psi", "stddev", "mass@1"]
    names += [column for columns, _ in engine.OPTIONAL_STATS.values() for column in columns]
    res = {name: np.full(1, np.nan) for name in names}
    state = types.SimpleNamespace(residuals=lambda: resid)
    engine._observe(state, 0, res, masses, engine.ALL_STATS)
    return {name: column[0] for name, column in res.items()}


@pytest.mark.parametrize("scale, plain", [(1e160, math.inf), (1e-300, 0.0)])
def test_stddev_probe_survives_squares_outside_the_float_range(scale, plain):
    x = np.random.default_rng(0).standard_normal(600)
    with np.errstate(over="ignore"):
        assert float(np.std(x * scale)) == plain  # what the probe used to write
    assert _probe(x * scale)["stddev"] == pytest.approx(np.std(x) * scale, rel=1e-14)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 600),
    exponent=st.integers(-300, 300),
    heavy=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_probe_does_not_raise_on_finite_samples_at_float_extremes(seed, n, exponent, heavy):
    """stddev stays finite and positive at any scale. normality_p is NaN
    beyond about 1e+-75, where the fourth powers of the deviations leave
    the float range; scipy.stats.normaltest gives NaN there too."""
    rng = np.random.default_rng(seed)
    resid = (rng.standard_t(2, n) if heavy else rng.standard_normal(n)) * 10.0**exponent
    assume(np.all(np.isfinite(resid)))
    stats = _probe(resid)
    assert math.isfinite(stats["stddev"]) and stats["stddev"] > 0
    assert not math.isnan(stats["psi"])  # no spike
    p = stats["normality_p"]
    assert math.isnan(p) or 0.0 <= p <= 1.0


# -- optional probe statistics -------------------------------------------

def _columns(stats) -> set:
    return {column for name in stats for column in engine.OPTIONAL_STATS[name][0]}


@pytest.fixture(scope="module")
def stats_runs():
    """run_many on a sampling and on a sliding config, one call each, for a
    given stats tuple; and its results with every statistic."""
    data = generate_linear(120, 4, noise_variance=1.0, seed=16)
    configs = [cfg(total_steps=60, adherence_s=1.5, repeats=2, probe_every=20),
               cfg(setting=SETTING_SLIDING, total_steps=60, usage_p=0.5, repeats=2,
                   probe_every=20)]

    def go(**options):
        return [run_many(data, [config], None, [0.1, 0.5], **options)[0] for config in configs]

    return go, go(stats=engine.ALL_STATS)


@pytest.mark.parametrize("subset", [
    subset for r in range(len(engine.ALL_STATS) + 1)
    for subset in itertools.combinations(engine.ALL_STATS, r)
], ids=lambda subset: "+".join(subset) or "core")
def test_a_subset_of_the_statistics_keeps_the_bits_of_the_full_run(stats_runs, subset):
    go, full = stats_runs
    for part, whole in zip(go(stats=subset), full):
        assert set(part.per_repeat) == {"psi", "stddev", "mass@0.1", "mass@0.5"} | _columns(subset)
        for name, matrix in part.per_repeat.items():
            assert np.array_equal(matrix, whole.per_repeat[name], equal_nan=True), name
        assert np.array_equal(part.spike_counts, whole.spike_counts)
        assert list(part.moment_traces) == ([1, 2, 3, 4, 5, 6] if "moments" in subset else [])


def test_run_many_computes_every_statistic_by_default(stats_runs):
    go, full = stats_runs
    assert list(full[0].moment_traces) == [1, 2, 3, 4, 5, 6]
    for default, whole in zip(go(), full):
        assert set(default.per_repeat) == set(whole.per_repeat)
        for name, matrix in default.per_repeat.items():
            assert np.array_equal(matrix, whole.per_repeat[name], equal_nan=True), name


def test_run_many_takes_the_statistics_in_any_order_and_rejects_unknown_names(stats_runs):
    go, _ = stats_runs
    ordered = go(stats=("moments", "normality_p"))
    shuffled = go(stats=("normality_p", "moments", "normality_p"))
    for a, b in zip(ordered, shuffled):
        assert list(a.per_repeat) == list(b.per_repeat)
    with pytest.raises(ValueError, match="kurtosis"):
        go(stats=("moments", "kurtosis"))


@pytest.mark.parametrize("stats", [(), ("normality_p",)], ids=["core", "normality_p"])
def test_a_probe_that_reads_no_moment_builds_no_power_sums(monkeypatch, stats):
    """The autonomy and normality probes pay nothing for the moment ladder's
    power sums: with its builder patched to raise, these runs still complete."""
    data = generate_linear(120, 4, noise_variance=1.0, seed=16)
    config = cfg(total_steps=60, adherence_s=1.5, repeats=2, probe_every=20)
    want = run(data, config, kappa_list=[0.1], stats=stats)

    def refuse(self, n_terms):
        raise AssertionError("ladder built")

    monkeypatch.setattr(EmpiricalDistribution, "_ladder_means", refuse)
    got = run(data, config, kappa_list=[0.1], stats=stats)
    for name, matrix in want.per_repeat.items():
        assert np.array_equal(got.per_repeat[name], matrix, equal_nan=True), name
    for other in ("moments", "moment_l1"):
        with pytest.raises(AssertionError, match="ladder built"):
            run(data, config, kappa_list=[0.1], stats=(other,))


@pytest.mark.parametrize("stats", [("moments", "moment_l1"), ("moment_l1", "moments")],
                         ids=["moments_first", "moment_l1_first"])
def test_a_probe_that_reads_the_moments_and_moment_l1_builds_the_first_block_once(
        monkeypatch, stats):
    data = generate_linear(120, 4, noise_variance=1.0, seed=16)
    config = cfg(total_steps=60, adherence_s=1.5, repeats=2, probe_every=20)
    want = run(data, config, kappa_list=[0.1], stats=stats)
    walks = {"built the first block": 0, "read it kept": 0}
    ladder_means = EmpiricalDistribution._ladder_means

    def counted(self, n_terms):
        walks["built the first block" if self._ladder is None else "read it kept"] += 1
        return ladder_means(self, n_terms)

    monkeypatch.setattr(EmpiricalDistribution, "_ladder_means", counted)
    got = run(data, config, kappa_list=[0.1], stats=stats)
    probes = config.repeats * len(got.probe_steps)
    # raw_moment walks the ladder once per order and moment_l1_sum once
    assert walks == {"built the first block": probes, "read it kept": 6 * probes}
    for name, matrix in want.per_repeat.items():
        assert np.array_equal(got.per_repeat[name], matrix, equal_nan=True), name


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_default_kappas_keep_the_scale_of_residuals_whose_squares_leave_the_float_range(scale):
    # np.std of these residuals overflows (1e160) or underflows (1e-170);
    # usage_p 0 keeps the targets, whose holdout MSE overflows at 1e160
    data = generate_linear(300, 4, noise_variance=1.0, seed=0)
    config = cfg(total_steps=10, repeats=1, usage_p=0.0)
    base = run(data, config).kappa_list
    with np.errstate(over="ignore", under="ignore"):
        kappas = run(dataclasses.replace(data, targets=data.targets * scale), config).kappa_list
    assert np.allclose(np.array(kappas) / scale, base, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("total_steps", [10, 60])
def test_zero_adherence_copies_the_prediction_where_the_holdout_mse_overflows(total_steps):
    # residuals near 1e160 square past the float range, so sigma2 is inf,
    # and a scale of sqrt(0 * inf) would draw NaN
    data = generate_linear(300, 4, noise_variance=1.0, seed=0)
    data = dataclasses.replace(data, targets=data.targets * 1e160)
    config = cfg(total_steps=total_steps, usage_p=1.0, adherence_s=0.0, repeats=2)
    with np.errstate(over="ignore"):
        report = run(data, config)
    assert np.array_equal(report.step_traces.z_sampled, report.step_traces.y_pred)


@pytest.mark.parametrize("setting", [SETTING_SAMPLING, SETTING_SLIDING])
def test_an_exact_first_fit_takes_the_bare_kappa_fractions_and_probes_spikes(setting):
    # constant targets: the first fit is exact, so the residual spread is 0
    data = generate_linear(200, 3, noise_variance=1.0, seed=8)
    data = dataclasses.replace(data, targets=np.full(data.n_rows, 5.0))
    config = cfg(setting=setting, total_steps=40, adherence_s=1.0, probe_every=10, repeats=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(data, config)
    assert report.kappa_list == [0.05, 0.1, 0.25, 0.5]
    assert report.probe_steps == [0, 10, 20, 30, 40]
    assert np.array_equal(report.spike_counts, np.full(5, config.repeats))
    assert np.array_equal(report.per_repeat["stddev"], np.zeros((config.repeats, 5)))


@pytest.mark.parametrize("setting", [SETTING_SAMPLING, SETTING_SLIDING])
def test_run_starts_each_repeat_once_and_fits_it_once_per_retrain(setting, monkeypatch):
    # the default kappas read repeat 0's own first fit, not a second one
    data = generate_linear(200, 3, noise_variance=1.0, seed=4)
    config = cfg(setting=setting, total_steps=50, retrain_period=20, repeats=3)
    calls = dict.fromkeys(("init_state", "fit_ridge"), 0)

    def counted(name):
        real = getattr(engine, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    report = run(data, config, workers=1)
    assert report.repeats_aggregated == config.repeats
    per_repeat = config.total_steps // config.retrain_period + 1
    assert calls == {"init_state": config.repeats, "fit_ridge": config.repeats * per_repeat}


# -- loop invariants -------------------------------------------------------

LOOP_DATA = generate_linear(60, 3, noise_variance=1.0, seed=17)


@given(seed=st.integers(0, 2**32 - 1), usage=st.floats(0.0, 1.0),
       adherence=st.floats(0.0, 3.0), period=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_sliding_window_holds_distinct_items_and_consumes_each_reserve_item_once(
        seed, usage, adherence, period):
    w = cfg(setting=SETTING_SLIDING).window_size(LOOP_DATA.n_rows)
    c = cfg(setting=SETTING_SLIDING, total_steps=LOOP_DATA.n_rows - w, usage_p=usage,
            adherence_s=adherence, retrain_period=period)
    state = init_state(LOOP_DATA, c, np.random.default_rng(seed))
    window = state.item_indices[state.active_rows()].tolist()
    reserve = state.item_indices[w:].tolist()
    assert sorted(window + reserve) == list(range(LOOP_DATA.n_rows))
    ring = list(window)
    consumed = []
    for t in range(c.total_steps):
        consumed.append(step(state, c).item_index)
        active = state.item_indices[state.active_rows()].tolist()
        assert len(set(active)) == w
        # the window is the newest w items, the oldest of them evicted first
        assert set(active) == set((window + consumed)[-w:])
        # a ring buffer: step t replaces slot t mod w, and the slot order
        # decides which rows go into the retrain split
        ring[t % w] = consumed[-1]
        assert active == ring
    assert consumed == reserve
    with pytest.raises(LoopComplete):
        step(state, c)


@given(seed=st.integers(0, 2**32 - 1), sliding=st.booleans(), usage=st.floats(0.0, 1.0),
       adherence=st.floats(0.0, 3.0), steps=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_replaced_count_equals_the_used_predictions_in_the_traces(
        seed, sliding, usage, adherence, steps):
    c = cfg(setting=SETTING_SLIDING if sliding else SETTING_SAMPLING, total_steps=steps,
            usage_p=usage, adherence_s=adherence, retrain_period=7)
    state = init_state(LOOP_DATA, c, np.random.default_rng(seed))
    assert state.replaced_count == 0
    traces = []
    for row in range(steps):
        traces.append(step(state, c))
        assert traces[-1].tobytes() == state.record[row].tobytes()
        assert state.replaced_count == np.count_nonzero(state.record.used_prediction[: row + 1])
    assert state.replaced_count == sum(tr.used_prediction for tr in traces)


@given(seed=st.integers(0, 2**32 - 1), sliding=st.booleans(), usage=st.floats(0.0, 1.0),
       adherence=st.floats(0.0, 3.0), steps=st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_the_step_record_holds_one_row_per_step_and_the_loop_ends_at_total_steps(
        seed, sliding, usage, adherence, steps):
    c = cfg(setting=SETTING_SLIDING if sliding else SETTING_SAMPLING, total_steps=steps,
            usage_p=usage, adherence_s=adherence, retrain_period=7, seed=seed, repeats=2,
            window_fraction=0.5 if sliding else None)
    records = run(LOOP_DATA, c, kappa_list=[0.1], stats=()).step_traces
    assert records.shape == (2, steps)
    assert records.dtype == engine.STEP_RECORD
    for repeat, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
        record = records[repeat]
        assert record.step_t.tolist() == list(range(1, steps + 1))
        assert record.residual.tobytes() == (record.y_true - record.y_pred).tobytes()
        # the lockstep lanes of run write the record of a solo loop
        state = init_state(LOOP_DATA, c, np.random.default_rng(child))
        for _ in range(steps):
            step(state, c)
        assert state.record.tobytes() == record.tobytes()
        assert state.replaced_count == np.count_nonzero(record.used_prediction)
        with pytest.raises(LoopComplete, match=f"after {steps} steps"):
            step(state, c)


@given(seed=st.integers(0, 2**32 - 1), sliding=st.booleans(), adherence=st.floats(0.0, 3.0),
       steps=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_zero_usage_leaves_the_targets_bitwise_unchanged(seed, sliding, adherence, steps):
    c = cfg(setting=SETTING_SLIDING if sliding else SETTING_SAMPLING, total_steps=steps,
            usage_p=0.0, adherence_s=adherence, retrain_period=7)
    state = init_state(LOOP_DATA, c, np.random.default_rng(seed))
    for _ in range(steps):
        step(state, c)
    assert state.targets.tobytes() == LOOP_DATA.targets[state.item_indices].tobytes()
    assert state.replaced_count == 0


# -- target scaling --------------------------------------------------------

SCALE_DATA = generate_linear(200, 4, noise_variance=1.0, seed=29)

# (model, setting, usage_p, adherence_s, repeats, workers): every model and
# both settings, flattening, collapsing and holding configs, one lane and
# two lockstep lanes split over two processes
SCALE_CASES = [
    ("ridge_exact", SETTING_SAMPLING, 1.0, 3.0, 1, 1),
    ("ridge_exact", SETTING_SLIDING, 0.5, 1.0, 2, 2),
    ("ridge_regularized", SETTING_SAMPLING, 1.0, 0.0, 2, 2),
    ("ridge_regularized", SETTING_SLIDING, 1.0, 3.0, 1, 1),
    ("sgd", SETTING_SAMPLING, 1.0, 0.0, 2, 2),
    ("sgd", SETTING_SLIDING, 0.5, 1.0, 1, 1),
]


def _same_bits(a, b) -> bool:
    """Whether two float arrays hold the same bits, every NaN alike."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


@pytest.mark.parametrize("model, setting, usage, adherence, repeats, workers", SCALE_CASES,
                         ids=["ridge-sampling-flatten", "ridge-sliding-hold-lanes",
                              "ridge-reg-sampling-collapse-lanes", "ridge-reg-sliding-flatten",
                              "sgd-sampling-collapse-lanes", "sgd-sliding-hold"])
def test_scaling_the_targets_by_a_power_of_two_scales_every_probe_exactly(
        model, setting, usage, adherence, repeats, workers):
    """Every stage of the loop is equivariant in the targets: scaling them
    by c = 2**k scales stddev by c, psi by 1/c, moment_k by c**k and the
    kappas by c, and leaves every mass, spike count and normality p-value
    as it was, bit for bit. moment_l1 is left out: its 300-term ladder
    overflows at large scales by design."""
    config = LoopConfig(setting=setting, total_steps=100, usage_p=usage, adherence_s=adherence,
                        model=model, sgd_iterations=10, retrain_period=25, probe_every=20,
                        seed=5, repeats=repeats)
    stats = ("moments", "normality_p")
    base = run(SCALE_DATA, config, stats=stats, workers=workers)
    for k in (-60, -7, 20, 60):
        c = 2.0**k
        scaled_data = dataclasses.replace(SCALE_DATA, targets=SCALE_DATA.targets * c)
        scaled = run(scaled_data, config, stats=stats, workers=workers)
        assert np.array(scaled.kappa_list).tobytes() == (np.array(base.kappa_list) * c).tobytes()
        want = {"stddev": base.per_repeat["stddev"] * c, "psi": base.per_repeat["psi"] / c,
                "normality_p": base.per_repeat["normality_p"]}
        want.update({f"moment_{order}": base.per_repeat[f"moment_{order}"] * c**order
                     for order in engine.MOMENT_ORDERS})
        for old, new in zip(base.kappa_list, scaled.kappa_list):
            want[engine.MASS_COLUMN.format(new)] = base.per_repeat[engine.MASS_COLUMN.format(old)]
        assert sorted(want) == sorted(scaled.per_repeat)
        for name, values in want.items():
            assert _same_bits(scaled.per_repeat[name], values), (k, name)
        assert np.array_equal(scaled.spike_counts, base.spike_counts)


@pytest.mark.parametrize("setting", [SETTING_SAMPLING, SETTING_SLIDING])
@pytest.mark.parametrize("model", ["ridge_exact", "ridge_regularized", "sgd"])
def test_scaling_the_targets_by_a_power_of_two_scales_the_surface_exactly(model, setting):
    """stddev_surface keeps the loop's equivariance: on a 2 x 2 grid split
    over two processes, scaling the targets by c = 2**k scales every cell's
    mean and std by c, bit for bit, and leaves the errors as they were."""
    config = cfg(setting=setting, model=model, sgd_iterations=10, retrain_period=25, seed=5)
    grids = ((0.5, 1.0), (0.0, 3.0))
    base = engine.stddev_surface(SCALE_DATA, *grids, config, workers=2)
    for k in (-60, 30, 60):
        c = 2.0**k
        scaled_data = dataclasses.replace(SCALE_DATA, targets=SCALE_DATA.targets * c)
        scaled = engine.stddev_surface(scaled_data, *grids, config, workers=2)
        assert _same_bits(scaled.mean, base.mean * c), k
        assert _same_bits(scaled.std, base.std * c), k
        assert scaled.errors == base.errors == {}


def test_the_surface_std_stays_finite_where_the_squared_deviations_leave_the_range(
        monkeypatch):
    config = cfg(total_steps=40, probe_every=40)
    grids = ((0.5, 1.0), (0.0, 3.0))
    base = engine.stddev_surface(SCALE_DATA, *grids, config)
    run_many = engine.run_many

    def huge_first_cell(*args, **kwargs):
        reports = run_many(*args, **kwargs)
        reports[0].per_repeat["stddev"][:, -1] = [1e160, 3e160]  # np.std of these is inf
        return reports

    monkeypatch.setattr(engine, "run_many", huge_first_cell)
    surface = engine.stddev_surface(SCALE_DATA, *grids, config)
    assert surface.mean[0, 0] == 2e160
    assert surface.std[0, 0] == 1e160
    surface.mean[0, 0], surface.std[0, 0] = base.mean[0, 0], base.std[0, 0]
    assert _same_bits(surface.mean, base.mean) and _same_bits(surface.std, base.std)


# -- the numpy ridge against scipy's ------------------------------------------

def _cho_ridge(features, targets, regularization=0.0):
    """fit_ridge through scipy's cho_factor and cho_solve."""
    from scipy.linalg import cho_factor, cho_solve

    X, y = np.asarray(features, dtype=float), np.asarray(targets, dtype=float)
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    w = cho_solve(cho_factor(Xc.T @ Xc + regularization * np.eye(X.shape[1])), Xc.T @ yc)
    return TrainedModel(w, float(y_mean - x_mean @ w), 1)


@pytest.mark.parametrize("dataset", ["linear_medium", "friedman_small"])
@pytest.mark.parametrize("usage, adherence", [(1.0, 0.0), (1.0, 3.0), (0.1, 0.9)],
                         ids=["collapse", "flatten", "hold"])
def test_the_numpy_ridge_stays_on_the_trajectory_of_scipys(dataset, usage, adherence, request,
                                                           monkeypatch):
    """The regimes of acceptance criteria 1-3, run with the numpy solve and
    again with scipy's: the random stream does not depend on the values, so
    the two runs differ only by rounding. Every discrete output is equal,
    and every statistic is within a relative 1e-7. The largest move
    measured here was 1.1e-11, and 1.2e-9 on the benchmark workloads.
    moment_k is taken relative to max(|m_k|, stddev**k), because odd raw
    moments cancel toward 0."""
    data = request.getfixturevalue(dataset)
    config = LoopConfig(setting=SETTING_SAMPLING, total_steps=600, usage_p=usage,
                        adherence_s=adherence, seed=7, repeats=2, probe_every=50)
    ours = run(data, config)
    monkeypatch.setattr(engine, "fit_ridge", _cho_ridge)
    theirs = run(data, config)
    assert ours.kappa_list == pytest.approx(theirs.kappa_list, rel=1e-7)
    assert np.array_equal(ours.spike_counts, theirs.spike_counts)
    for field in ("item_index", "used_prediction"):
        assert np.array_equal(ours.step_traces[field], theirs.step_traces[field])
    masses = [engine.MASS_COLUMN.format(kappa) for kappa in ours.kappa_list]
    masses_ref = [engine.MASS_COLUMN.format(kappa) for kappa in theirs.kappa_list]
    assert len(ours.per_repeat) == len(theirs.per_repeat)
    for name, values in ours.per_repeat.items():
        ref = theirs.per_repeat[masses_ref[masses.index(name)] if name in masses else name]
        if name in masses or name == "moment_l1_truncated":
            assert _same_bits(values, ref), name
            continue
        scale = np.maximum(np.abs(values), np.abs(ref))
        if name.startswith("moment_") and name[7:].isdigit():
            scale = np.maximum(scale, theirs.per_repeat["stddev"] ** int(name[7:]))
        assert np.array_equal(np.isnan(values), np.isnan(ref)), name
        finite = ~np.isnan(values)
        assert np.all(np.abs(values - ref)[finite] <= 1e-7 * scale[finite]), name
