"""In-house linear-model fitters.

Three solver families drive the loop simulations (per-sample SGD, exact
ridge via Cholesky on the normal equations, ridge with a fixed penalty)
plus a robust Huber line fitter used by the autonomy diagnostics. All
fitters model an unpenalized intercept and are deterministic functions of
their inputs. The SGD step schedule (SGD_ETA0, SGD_DECAY) and the Huber
threshold (HUBER_DELTA) are constants, not options: every caller fits
with the same ones. Every fitter is numpy-only: the ridge solve factors
with numpy's Cholesky, so no fit loads scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

SOLVER_SGD = "sgd"
SOLVER_RIDGE_EXACT = "ridge_exact"
SOLVER_RIDGE_REGULARIZED = "ridge_regularized"

DEFAULT_RIDGE_PENALTY = 0.1

# SGD schedule: eta_t = SGD_ETA0 / (1 + SGD_DECAY * t) with t the global
# update counter. The loop dynamics only need a consistent approximate
# minimizer, not a tuned one.
SGD_ETA0 = 0.01
SGD_DECAY = 1e-3

HUBER_DELTA = 1.35


@dataclass(frozen=True)
class TrainedModel:
    """Fitted linear model: y ~ X @ weights + intercept."""

    weights: np.ndarray
    intercept: float
    iterations_used: int = 0


def _as_xy(features, targets):
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"targets shape {y.shape} does not match {X.shape[0]} rows")
    return X, y


def fit_sgd(features, targets, max_iterations: int, seed: int) -> TrainedModel:
    """Squared-loss linear fit by per-sample SGD with shuffled passes.

    Steps follow the fixed SGD_ETA0/SGD_DECAY schedule. Pass order is a
    fresh permutation per epoch from a generator seeded by ``seed``, so the
    fit is a deterministic function of (data, seed, max_iterations); the
    loop passes LoopConfig.sgd_iterations. The fit stops before that once a
    pass moves no parameter by more than 1e-12 of the largest parameter,
    so scaling the targets by a power of two scales the fit by it exactly.
    Never raises on degenerate data;
    returns the best-effort parameters instead. This is the one-lane call
    of ``fit_sgd_lanes``.
    """
    X, y = _as_xy(features, targets)
    return fit_sgd_lanes(X[None], y[None], max_iterations, [seed])[0]


def fit_sgd_lanes(features, targets, max_iterations: int, seeds) -> list[TrainedModel]:
    """``fit_sgd`` on L independent lanes at once, bit for bit.

    features is (L, n, d) and targets (L, n); lane l is fitted with
    ``seeds[l]`` and returns exactly what ``fit_sgd`` returns on its slice.
    The lanes share the update counter t, which is exact because every
    lane makes n updates per epoch; a lane that stops early draws no
    further permutations. Each lane's dot product goes through a stacked
    matmul, which numpy evaluates with the same BLAS dot as ``xi @ w``
    (einsum would not give the same bits). Every NaN parameter is
    returned as the one canonical NaN, whatever its sign bit was.
    """
    X = np.asarray(features, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if X.ndim != 3:
        raise ValueError("features must be an (L, n, d) stack")
    if Y.shape != X.shape[:2]:
        raise ValueError(f"targets shape {Y.shape} does not match {X.shape[:2]}")
    lanes, m, d = X.shape
    if len(seeds) != lanes:
        raise ValueError(f"{len(seeds)} seeds for {lanes} lanes")
    if m < 2:
        raise ValueError("need at least 2 training rows")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    W = np.zeros((lanes, d))
    B = np.zeros(lanes)
    epochs = np.zeros(lanes, dtype=int)
    live = np.arange(lanes)
    t = 0
    eta0, decay = SGD_ETA0, SGD_DECAY
    for _ in range(max_iterations):
        orders = np.stack([rngs[lane].permutation(m) for lane in live])
        # (n, L, d) and (n, L): row k holds every live lane's k-th sample
        Xe = X[live[:, None], orders].transpose(1, 0, 2)
        Ye = Y[live[:, None], orders].T
        w, b = W[live], B[live]
        w_prev, b_prev = w.copy(), b.copy()
        for xi, yi in zip(Xe, Ye):
            eta = eta0 / (1.0 + decay * t)
            err = (xi[:, None, :] @ w[:, :, None])[:, 0, 0] + b - yi
            step = eta * err
            w -= step[:, None] * xi
            b -= step
            t += 1
        W[live], B[live] = w, b
        epochs[live] += 1
        # stop a lane once a full pass moves no parameter by more than 1e-12
        # of its largest parameter, so the rule does not depend on the scale
        # of the targets; a lane with a non-finite parameter keeps running
        size = np.maximum(np.max(np.abs(w), axis=1), np.abs(b))
        move = np.maximum(np.max(np.abs(w - w_prev), axis=1), np.abs(b - b_prev))
        live = live[~(np.isfinite(size) & (move <= 1e-12 * size))]
        if live.size == 0:
            break
    # the sign bit of a NaN parameter depends on which NaN operand the
    # arithmetic propagates, and the stacked matmul does not always pick the
    # one a lone lane's does; one canonical NaN keeps the lanes equal
    W[np.isnan(W)] = np.nan
    B[np.isnan(B)] = np.nan
    return [
        TrainedModel(W[lane].copy(), float(B[lane]), int(epochs[lane]))
        for lane in range(lanes)
    ]


def fit_ridge(features, targets, regularization: float = 0.0) -> TrainedModel:
    """Exact minimizer of ||y - Xw - b||^2 + regularization * ||w||^2.

    Solved in closed form: center X and y, Cholesky-solve the regularized
    normal equations for w, recover the intercept from the means. The
    factor is numpy's lower Cholesky factor L, and the solve takes L and
    then its transpose. ValueError when the factor fails; with
    regularization 0 this is ordinary least squares and also raises when
    the smallest squared pivot is below d * 2**-52 times the largest
    diagonal entry of the centered Gram matrix, so an exactly collinear
    design is refused whatever the rounding. Non-finite targets raise
    ValueError before any arithmetic; the features are taken to be finite
    (Dataset checks them once).
    """
    X, y = _as_xy(features, targets)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    if not np.isfinite(y).all():
        # a diverged loop's targets; centering them would only warn
        raise ValueError("training targets are not finite")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    d = X.shape[1]
    gram = Xc.T @ Xc + regularization * np.eye(d)
    _check_finite(gram)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        lower = None
    # at regularization 0, a pivot this small is rounding, not rank
    threshold = d * 2.0**-52 * gram.diagonal().max()
    if lower is None or (regularization == 0 and lower.diagonal().min() ** 2 < threshold):
        rank = np.linalg.matrix_rank(Xc, tol=math.sqrt(threshold))
        raise ValueError(
            f"normal matrix is singular at regularization {regularization:g}: "
            f"centered feature rank {rank} < {d} columns"
        )
    rhs = Xc.T @ yc
    _check_finite(rhs)
    w = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    b = y_mean - x_mean @ w
    return TrainedModel(w, float(b), 1)


def _check_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def fit_huber_line(ts, vs) -> TrainedModel:
    """Robust line fit v ~ slope * t + intercept under Huber loss.

    Iteratively reweighted least squares: weight 1 for residuals within
    HUBER_DELTA, HUBER_DELTA/|r| beyond. Converged when the parameter
    change drops below 1e-10, capped at 100 iterations.
    """
    t = np.asarray(ts, dtype=float)
    v = np.asarray(vs, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("ts and vs must be equal-length 1-d sequences")
    if t.size < 3:
        raise ValueError("need at least 3 points")
    if np.ptp(t) == 0:
        raise ValueError("all abscissae identical: slope undefined")

    slope, intercept = 0.0, float(np.mean(v))
    iterations = 0
    for iterations in range(1, 101):
        resid = v - (slope * t + intercept)
        weights = np.ones_like(resid)
        mask = np.abs(resid) > HUBER_DELTA
        weights[mask] = HUBER_DELTA / np.abs(resid[mask])
        sw = weights.sum()
        t_bar = (weights * t).sum() / sw
        v_bar = (weights * v).sum() / sw
        var_t = (weights * (t - t_bar) ** 2).sum()
        cov_tv = (weights * (t - t_bar) * (v - v_bar)).sum()
        new_slope = cov_tv / var_t
        new_intercept = v_bar - new_slope * t_bar
        change = max(abs(new_slope - slope), abs(new_intercept - intercept))
        slope, intercept = new_slope, new_intercept
        if change < 1e-10:
            break
    return TrainedModel(np.array([slope]), float(intercept), iterations)


def predict(model: TrainedModel, features) -> np.ndarray:
    """Row-wise X @ weights + intercept."""
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature count {X.shape[1]} does not match model dimension {model.weights.shape[0]}"
        )
    return X @ model.weights + model.intercept


def mse(model: TrainedModel, features, targets) -> float:
    """Mean squared residual of the model over an evaluation set."""
    X, y = _as_xy(features, targets)
    if X.shape[0] < 1:
        raise ValueError("evaluation set is empty")
    r = y - predict(model, X)
    return float(np.mean(r * r))
