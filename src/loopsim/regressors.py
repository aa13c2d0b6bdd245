"""In-house linear-model fitters.

Three solver families drive the loop simulations (per-sample SGD, exact
ridge via Cholesky on the normal equations, ridge with a fixed penalty)
plus a robust Huber line fitter used by the autonomy diagnostics. All
fitters model an unpenalized intercept and are deterministic functions of
their inputs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

SOLVER_SGD = "sgd"
SOLVER_RIDGE_EXACT = "ridge_exact"
SOLVER_RIDGE_REGULARIZED = "ridge_regularized"
SOLVER_HUBER_LINE = "huber_line"

DEFAULT_RIDGE_PENALTY = 0.1

# SGD schedule: eta_t = eta0 / (1 + decay * t) with t the global update
# counter. The loop dynamics only need a consistent approximate minimizer,
# not a tuned one.
SGD_ETA0 = 0.01
SGD_DECAY = 1e-3


@dataclass(frozen=True)
class TrainedModel:
    """Fitted linear model: y ~ X @ weights + intercept."""

    weights: np.ndarray
    intercept: float
    solver: str
    iterations_used: int = 0


def _as_xy(features, targets):
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"targets shape {y.shape} does not match {X.shape[0]} rows")
    return X, y


def fit_sgd(
    features,
    targets,
    max_iterations: int = 50,
    seed: int = 0,
    eta0: float = SGD_ETA0,
    decay: float = SGD_DECAY,
) -> TrainedModel:
    """Squared-loss linear fit by per-sample SGD with shuffled passes.

    Pass order is a fresh permutation per epoch from a generator seeded by
    ``seed``, so the fit is a deterministic function of (data, seed,
    max_iterations). Never raises on degenerate data; returns the
    best-effort parameters instead. This is the one-lane call of
    ``fit_sgd_lanes``.
    """
    X, y = _as_xy(features, targets)
    return fit_sgd_lanes(X[None], y[None], max_iterations, [seed], eta0, decay)[0]


def fit_sgd_lanes(
    features,
    targets,
    max_iterations: int,
    seeds,
    eta0: float = SGD_ETA0,
    decay: float = SGD_DECAY,
) -> list[TrainedModel]:
    """``fit_sgd`` on L independent lanes at once, bit for bit.

    features is (L, n, d) and targets (L, n); lane l is fitted with
    ``seeds[l]`` and returns exactly what ``fit_sgd`` returns on its slice.
    The lanes share the update counter t, which is exact because every
    lane makes n updates per epoch; a lane that stops early draws no
    further permutations. Each lane's dot product goes through a stacked
    matmul, which numpy evaluates with the same BLAS dot as ``xi @ w``
    (einsum would not give the same bits).
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
        # stop a lane once a full pass no longer moves its parameters; the
        # where() keeps Python's max(), which skips a NaN second argument
        dw = np.max(np.abs(w - w_prev), axis=1)
        db = np.abs(b - b_prev)
        live = live[~(np.where(db > dw, db, dw) < 1e-12)]
        if live.size == 0:
            break
    return [
        TrainedModel(W[lane].copy(), float(B[lane]), SOLVER_SGD, int(epochs[lane]))
        for lane in range(lanes)
    ]


def fit_ridge(features, targets, regularization: float = 0.0) -> TrainedModel:
    """Exact minimizer of ||y - Xw - b||^2 + regularization * ||w||^2.

    Solved in closed form: center X and y, Cholesky-solve the regularized
    normal equations for w, recover the intercept from the means. With
    regularization 0 this is ordinary least squares and raises if the
    centered Gram matrix is rank deficient.
    """
    X, y = _as_xy(features, targets)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + regularization * np.eye(X.shape[1])
    try:
        w = cho_solve(cho_factor(gram), Xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        rank = np.linalg.matrix_rank(Xc)
        raise ValueError(
            f"normal matrix is singular at regularization 0: centered feature rank "
            f"{rank} < {X.shape[1]} columns"
        ) from exc
    b = y_mean - x_mean @ w
    solver = SOLVER_RIDGE_EXACT if regularization == 0 else SOLVER_RIDGE_REGULARIZED
    return TrainedModel(w, float(b), solver, 1)


def fit_huber_line(ts, vs, delta: float = 1.35) -> TrainedModel:
    """Robust line fit v ~ slope * t + intercept under Huber loss.

    Iteratively reweighted least squares: weight 1 for residuals within
    ``delta``, delta/|r| beyond. Converged when the parameter change drops
    below 1e-10, capped at 100 iterations.
    """
    t = np.asarray(ts, dtype=float)
    v = np.asarray(vs, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("ts and vs must be equal-length 1-d sequences")
    if t.size < 3:
        raise ValueError("need at least 3 points")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if np.ptp(t) == 0:
        raise ValueError("all abscissae identical: slope undefined")

    slope, intercept = 0.0, float(np.mean(v))
    iterations = 0
    for iterations in range(1, 101):
        resid = v - (slope * t + intercept)
        weights = np.ones_like(resid)
        mask = np.abs(resid) > delta
        weights[mask] = delta / np.abs(resid[mask])
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
    return TrainedModel(np.array([slope]), float(intercept), SOLVER_HUBER_LINE, iterations)


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
