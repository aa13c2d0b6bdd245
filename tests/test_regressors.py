"""Solvers: frozen hand examples, optimality checks, robustness."""

import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from loopsim.regressors import (
    SGD_DECAY,
    SGD_ETA0,
    TrainedModel,
    fit_huber_line,
    fit_ridge,
    fit_sgd,
    fit_sgd_lanes,
    mse,
    predict,
)


def test_ridge_hand_example():
    # X=[[1],[2],[3]], y=[1,2,3], penalty 0.1 -> w=20/21, b=2/21
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0])
    m = fit_ridge(X, y, 0.1)
    assert m.weights[0] == pytest.approx(20.0 / 21.0, abs=1e-12)
    assert m.intercept == pytest.approx(2.0 / 21.0, abs=1e-12)


def test_ridge_zero_penalty_recovers_exact_line():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.5 * X[:, 0] - 1.0
    m = fit_ridge(X, y, 0.0)
    assert m.weights[0] == pytest.approx(2.5, abs=1e-10)
    assert m.intercept == pytest.approx(-1.0, abs=1e-10)


def test_ridge_is_the_penalized_minimizer():
    """Perturbing the solution must not lower the penalized objective."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    lam = 0.7
    m = fit_ridge(X, y, lam)

    def objective(w, b):
        r = y - X @ w - b
        return r @ r + lam * (w @ w)

    base = objective(m.weights, m.intercept)
    for _ in range(25):
        dw = rng.normal(scale=1e-4, size=3)
        db = rng.normal(scale=1e-4)
        assert objective(m.weights + dw, m.intercept + db) >= base - 1e-9


def test_ridge_penalty_excludes_intercept():
    # constant shift of targets shifts only the intercept
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    a = fit_ridge(X, y, 0.3)
    b = fit_ridge(X, y + 5.0, 0.3)
    assert np.allclose(a.weights, b.weights, atol=1e-10)
    assert b.intercept - a.intercept == pytest.approx(5.0, abs=1e-10)


def test_sgd_noiseless_line():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 1))
    y = 2.0 * X[:, 0] + 1.0
    m = fit_sgd(X, y, max_iterations=50, seed=0)
    assert m.weights[0] == pytest.approx(2.0, abs=0.02)
    assert m.intercept == pytest.approx(1.0, abs=0.02)
    assert 1 <= m.iterations_used <= 50


def test_sgd_tracks_ridge_on_well_conditioned_data():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(400, 5))
    w = rng.uniform(0, 3, size=5)
    y = X @ w + rng.normal(scale=0.1, size=400)
    sgd = fit_sgd(X, y, max_iterations=60, seed=3)
    exact = fit_ridge(X, y, 0.0)
    assert np.max(np.abs(sgd.weights - exact.weights)) < 0.05


def test_sgd_is_seed_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 2))
    y = rng.normal(size=80)
    a = fit_sgd(X, y, max_iterations=20, seed=9)
    b = fit_sgd(X, y, max_iterations=20, seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_sgd_scale_equivariance():
    # scaling targets by c scales the fitted map by c exactly
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    a = fit_sgd(X, y, max_iterations=30, seed=1)
    b = fit_sgd(X, 10.0 * y, max_iterations=30, seed=1)
    assert np.allclose(10.0 * a.weights, b.weights, rtol=1e-9)
    assert 10.0 * a.intercept == pytest.approx(b.intercept, rel=1e-9)


def test_huber_line_exact_on_clean_data():
    t = np.arange(12, dtype=float)
    v = -0.25 * t + 3.0
    m = fit_huber_line(t, v)
    assert m.weights[0] == pytest.approx(-0.25, abs=1e-9)
    assert m.intercept == pytest.approx(3.0, abs=1e-9)


def test_huber_line_resists_one_outlier():
    t = np.arange(30, dtype=float)
    v = 0.5 * t + 1.0
    v_out = v.copy()
    v_out[7] += 50.0
    robust = fit_huber_line(t, v_out)
    # plain least squares would move the slope visibly; huber barely
    assert robust.weights[0] == pytest.approx(0.5, abs=0.02)


def test_predict_and_mse():
    m = TrainedModel(weights=np.array([2.0, -1.0]), intercept=0.5, iterations_used=0)
    X = np.array([[1.0, 1.0], [0.0, 2.0]])
    got = predict(m, X)
    assert np.allclose(got, [1.5, -1.5])
    assert mse(m, X, np.array([1.5, -1.5])) == 0.0
    assert mse(m, X, np.array([2.5, -1.5])) == pytest.approx(0.5)


def test_fit_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        fit_ridge(np.zeros((3, 2)), np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        fit_sgd(np.zeros((3, 2)), np.zeros(4), 5, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ridge_names_non_finite_targets_without_a_warning(bad):
    # a diverged loop lane hands its overflowed targets to the next retrain
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    y[4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="training targets are not finite"):
            fit_ridge(X, y, 0.0)


def test_ridge_keeps_the_bits_of_finite_targets():
    # the finiteness check reads y and changes none of the arithmetic after it
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50) * 1e300
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    w = cho_solve(cho_factor(Xc.T @ Xc + 0.1 * np.eye(4)), Xc.T @ yc)
    m = fit_ridge(X, y, 0.1)
    assert m.weights.tobytes() == w.tobytes()
    assert np.float64(m.intercept).tobytes() == np.float64(y_mean - x_mean @ w).tobytes()


def _sgd_reference(X, y, max_iterations, seed):
    """The per-sample SGD loop written out one sample at a time."""
    rng = np.random.default_rng(seed)
    w, b, t, epochs = np.zeros(X.shape[1]), 0.0, 0, 0
    for _ in range(max_iterations):
        order = rng.permutation(X.shape[0])
        w_prev, b_prev = w.copy(), b
        for i in order:
            eta = SGD_ETA0 / (1.0 + SGD_DECAY * t)
            err = X[i] @ w + b - y[i]
            w -= eta * err * X[i]
            b -= eta * err
            t += 1
        epochs += 1
        if max(np.max(np.abs(w - w_prev)), abs(b - b_prev)) < 1e-12:
            break
    return w, float(b), epochs


def _bits(model):
    return model.weights.tobytes(), np.float64(model.intercept).tobytes(), model.iterations_used


@st.composite
def sgd_lanes(draw):
    """An (L, n, d) stack whose lanes stop on different epochs or hold nonfinite values."""
    lanes, n, d = draw(st.integers(1, 5)), draw(st.integers(2, 12)), draw(st.integers(1, 4))
    any_float = st.floats(allow_nan=True, allow_infinity=True)
    X = np.empty((lanes, n, d))
    Y = np.empty((lanes, n))
    for lane in range(lanes):
        kind = draw(st.sampled_from(("scaled", "zero_targets", "any")))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        scale = 10.0 ** draw(st.integers(-3, 200)) if kind == "scaled" else 1.0
        X[lane] = rng.normal(size=(n, d)) * scale
        Y[lane] = 0.0 if kind == "zero_targets" else rng.normal(size=n) * scale
        if kind == "any":
            X[lane] = draw(hnp.arrays(float, (n, d), elements=any_float))
            Y[lane] = draw(hnp.arrays(float, n, elements=any_float))
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=lanes, max_size=lanes))
    return X, Y, seeds, draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(sgd_lanes())
def test_sgd_lanes_equal_separate_fits_bit_for_bit(case):
    X, Y, seeds, iterations = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lanes = fit_sgd_lanes(X, Y, iterations, seeds)
        for lane, model in enumerate(lanes):
            alone = fit_sgd(X[lane], Y[lane], iterations, seeds[lane])
            assert _bits(model) == _bits(alone)
            w, b, epochs = _sgd_reference(X[lane], Y[lane], iterations, seeds[lane])
            assert _bits(model) == (w.tobytes(), np.float64(b).tobytes(), epochs)


def test_sgd_lanes_stop_on_their_own_epoch():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3, 30, 2))
    Y = rng.normal(size=(3, 30))
    Y[1] = 0.0  # nothing to learn: the first pass leaves the parameters at 0
    models = fit_sgd_lanes(X, Y, 40, [1, 2, 3])
    assert models[1].iterations_used == 1
    assert models[0].iterations_used == models[2].iterations_used == 40
    for lane in (0, 2):
        assert _bits(models[lane]) == _bits(fit_sgd(X[lane], Y[lane], 40, lane + 1))


def test_sgd_lanes_reject_bad_shapes():
    with pytest.raises(ValueError, match="stack"):
        fit_sgd_lanes(np.zeros((3, 2)), np.zeros(3), 5, [0])
    with pytest.raises(ValueError, match="targets"):
        fit_sgd_lanes(np.zeros((2, 3, 2)), np.zeros((2, 4)), 5, [0, 1])
    with pytest.raises(ValueError, match="seeds"):
        fit_sgd_lanes(np.zeros((2, 3, 2)), np.zeros((2, 3)), 5, [0])
