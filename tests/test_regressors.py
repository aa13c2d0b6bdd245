"""Solvers: frozen hand examples, optimality checks, robustness."""

import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from loopsim.data import generate_linear
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


def _normal_equations(X, y, penalty):
    """The centered normal equations that fit_ridge solves, and their means."""
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc, yc = X - x_mean, y - y_mean
    return Xc.T @ Xc + penalty * np.eye(X.shape[1]), Xc.T @ yc, x_mean, y_mean


# Backward error of a solution w of G w = r, in units of eps:
# max|G w - r| / (max|G| max|w| + max|r|). On 40 000 random designs in the
# domain of the property test below, numpy's Cholesky solve reached 1.43 and
# scipy's cho_factor/cho_solve 1.66.
RIDGE_BACKWARD_EPS = 3.0


def _backward_error(gram, rhs, w) -> float:
    residual = np.max(np.abs(gram @ w - rhs))
    if residual == 0.0:
        return 0.0
    scale = np.max(np.abs(gram)) * np.max(np.abs(w)) + np.max(np.abs(rhs))
    return residual / scale / np.finfo(float).eps


def _assert_solves(model, gram, rhs, x_mean, y_mean):
    """model's weights solve the normal equations to rounding, and its
    intercept comes from the means."""
    assert _backward_error(gram, rhs, model.weights) <= RIDGE_BACKWARD_EPS
    assert (np.float64(model.intercept).tobytes()
            == np.float64(y_mean - x_mean @ model.weights).tobytes())


def _assert_near_cho_solve(w, gram, rhs):
    """w is scipy's cho_factor/cho_solve solution up to the condition
    number times rounding: at most 1.99 * cond * eps on the same designs."""
    w_ref = cho_solve(cho_factor(gram), rhs)
    bound = 4.0 * np.linalg.cond(gram) * np.finfo(float).eps * np.max(np.abs(w_ref))
    assert np.max(np.abs(w - w_ref)) <= bound


def test_ridge_keeps_the_bits_of_finite_targets():
    # the finiteness check reads y and changes none of the arithmetic after it
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50) * 1e300
    gram, rhs, x_mean, y_mean = _normal_equations(X, y, 0.1)
    lower = np.linalg.cholesky(gram)
    w = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    m = fit_ridge(X, y, 0.1)
    assert m.weights.tobytes() == w.tobytes()
    _assert_solves(m, gram, rhs, x_mean, y_mean)
    _assert_near_cho_solve(m.weights, gram, rhs)


def _rank_deficient(X, threshold) -> bool:
    """Whether the centered design's smallest squared singular value is
    below the pivot rule's threshold: the SVD sees a rank deficiency,
    whatever rounding a Cholesky factor of the Gram matrix makes of it."""
    Xc = X - X.mean(axis=0)
    singular = np.linalg.svd(Xc, compute_uv=False)
    return X.shape[0] <= X.shape[1] or singular[-1] ** 2 < threshold


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 60), cols=st.integers(1, 6),
       scale=st.integers(-60, 60), penalty=st.sampled_from([0.0, 0.1]),
       degenerate=st.sampled_from([None, "constant", "copy"]))
def test_ridge_agrees_with_cho_factor_and_cho_solve(seed, rows, cols, scale, penalty,
                                                    degenerate):
    """fit_ridge refuses what scipy's cho_factor refuses, plus ridge_exact's
    pivot rule, and solves the rest to rounding. On a rank-deficient design
    at penalty 0 the two factors round the last pivot differently, so
    either may accept what the other refuses (16 of 204 264 such designs
    measured); the refusal is then judged by the SVD."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, cols))
    y = (X @ rng.normal(size=cols) + rng.normal(size=rows)) * 2.0**scale
    if degenerate == "constant":
        X[:, -1] = 3.0
    elif degenerate == "copy":
        X[:, -1] = X[:, 0]
    gram, rhs, x_mean, y_mean = _normal_equations(X, y, penalty)
    threshold = cols * 2.0**-52 * np.diagonal(gram).max()
    try:
        factor = cho_factor(gram)
        scipy_accepts = penalty > 0 or np.diagonal(factor[0]).min() ** 2 >= threshold
    except np.linalg.LinAlgError:
        scipy_accepts = False
    borderline = penalty == 0.0 and _rank_deficient(X, threshold)
    try:
        m = fit_ridge(X, y, penalty)
    except ValueError as exc:
        assert not scipy_accepts or borderline
        assert str(exc).startswith(f"normal matrix is singular at regularization {penalty:g}")
        return
    assert scipy_accepts or borderline
    _assert_solves(m, gram, rhs, x_mean, y_mean)
    if not borderline:
        _assert_near_cho_solve(m.weights, gram, rhs)


@pytest.mark.parametrize("seed", range(8))
def test_ridge_exact_refuses_an_exactly_collinear_design_on_every_seed(seed):
    # cho_factor accepts some of these Gram matrices, with a last pivot of
    # rounding size; the pivot rule refuses all of them
    X = generate_linear(200, 3, noise_variance=1.0, seed=seed).features.copy()
    X[:, 2] = X[:, 1]
    y = np.random.default_rng(seed).normal(size=200)
    message = ("normal matrix is singular at regularization 0: "
               "centered feature rank 2 < 3 columns")
    with pytest.raises(ValueError) as caught:
        fit_ridge(X, y, 0.0)
    assert str(caught.value) == message
    assert np.all(np.isfinite(fit_ridge(X, y, 0.1).weights))


def test_ridge_names_the_penalty_under_which_the_factor_failed():
    # on this seed the collinear Gram matrix has a negative last pivot,
    # which a penalty of 1e-30 does not lift
    X = generate_linear(200, 3, noise_variance=1.0, seed=0).features.copy()
    X[:, 2] = X[:, 1]
    with pytest.raises(ValueError, match=r"^normal matrix is singular at regularization 1e-30: "):
        fit_ridge(X, X[:, 0], 1e-30)


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
        size = np.max(np.abs(np.append(w, b)))
        if np.isfinite(size) and np.max(np.abs(np.append(w - w_prev, b - b_prev))) <= 1e-12 * size:
            break
    # a NaN parameter is returned as the canonical NaN, whatever its sign
    w[np.isnan(w)] = np.nan
    return w, np.nan if np.isnan(b) else float(b), epochs


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


# lane 4 holds a -NaN feature beside +NaN ones: the stacked fit once
# returned NaN parameters whose sign bits differed from the lone fit's
_NAN_SIGNS_CASE = (
    np.concatenate([
        np.tile(np.array([[0.12573022, -0.13210486], [0.64042265, 0.10490012]]), (4, 1, 1)),
        np.array([[[-np.nan, np.nan], [np.nan, np.nan]]]),
    ]),
    np.array([[-0.53566937, 0.36159505]] * 3 + [[0.0, 0.0]] * 2),
    [0, 0, 0, 0, 0],
    1,
)


@settings(max_examples=200, deadline=None)
@given(sgd_lanes())
@example(case=_NAN_SIGNS_CASE)
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
